//! # fgdsm-protocol: coherence protocols over the Tempest substrate
//!
//! Four pieces, mirroring §3–§4.2 of the paper:
//!
//! * [`Dsm`] — the DSM **facade**: the Tempest cluster plus the block
//!   directory and the protocol-neutral twin/diff machinery, with the
//!   coherence *policy* behind the pluggable [`Protocol`] trait.
//! * The **built-in protocols**: [`EagerInvalidate`] — the paper's
//!   directory-based, eager-invalidate, multiple-writer
//!   release-consistency protocol at cache-block granularity (read misses
//!   are 2-hop when the home holds the data and 4-hop when another node
//!   holds it exclusively, Figure 1(a); write upgrades invalidate eagerly
//!   but do not stall the writer; false-shared blocks use per-writer
//!   twins and word-granularity diffs merged at the home) — and
//!   [`WriteUpdate`], the §3 aside's update-based alternative. Third
//!   protocols plug in through [`Dsm::with_protocol_impl`].
//! * The **compiler-directed extension** (`ctl` module, implemented on
//!   [`Dsm`]) — the run-time calls of §4.2's contract: `mk_writable`,
//!   `implicit_writable`, `send_range` / `ready_to_recv`,
//!   `implicit_invalidate`, `flush_range`, plus bulk-transfer payload
//!   grouping and the first-time memoization used by run-time overhead
//!   elimination (§4.3). Data movement is an inspector/executor pair:
//!   the pure [`plan_sends`] / [`plan_flushes`] schedule call sites into
//!   [`TransferPlan`]s, [`Dsm::exec_sends`] / [`Dsm::exec_flushes`]
//!   execute them borrowed.
//! * [`MpRuntime`] — the message-passing backend: raw Tempest messages
//!   with the per-message software overhead of the PGI runtime the paper
//!   measured against.

#![forbid(unsafe_code)]

pub mod ctl;
pub mod dir;
pub mod eager;
pub mod mp;
pub mod node;
pub mod proto;
pub mod trans;
pub mod update;
pub mod wire;

pub use ctl::{
    plan_flushes, plan_sends, CtlStats, FlushEntry, Payload, PlanOp, SendEntry, TransferPlan,
};
pub use dir::DirState;
pub use eager::EagerInvalidate;
pub use mp::{MpRuntime, MpSendPlan};
pub use node::{ChanTransport, Geometry, Loopback, NodeFault, WireTransport};
pub use proto::{Dsm, Injection, Protocol, ProtocolKind};
pub use trans::{AcquireExcl, EnterMulti};
pub use update::WriteUpdate;
pub use wire::{
    diff_bytes, reconcile_stats, write_frame, CtrlMsg, FrameDecoder, RemoteReport, WireError,
    WireHeader, WireMsg, CTRL_MAGIC, DEFAULT_RECV_TIMEOUT, MAX_FRAME_BYTES, WIRE_MAGIC,
    WIRE_VERSION,
};
