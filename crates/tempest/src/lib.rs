//! # fgdsm-tempest: a simulated Tempest-style fine-grain DSM cluster
//!
//! The paper's platform is Tempest (Hill, Larus & Wood, COMPCON '95)
//! implemented on an 8-node cluster of dual-processor SparcStation-20s
//! connected by Myrinet, with fine-grain access control accelerated by the
//! Vortex memory-bus device. None of that hardware exists anymore, so this
//! crate substitutes a **deterministic direct-execution simulator** that
//! exposes the three Tempest mechanisms the paper's protocols are built on
//! (§3):
//!
//! 1. **Locally mapping remote pages in the shared segment** — every node
//!    holds its own copy of the global segment; pages are *mapped* lazily,
//!    charging a mapping cost on first touch (this is what makes `lu`'s
//!    first iteration expensive in the paper);
//! 2. **Fine-grain access control** — a per-node, per-block tag
//!    (`Invalid` / `ReadOnly` / `ReadWrite`), held as two word bitsets per
//!    node (valid, writable) as a board's tag memory holds bits; protocols
//!    read and write the tags through [`Cluster`];
//! 3. **Fine-grain messaging** — active messages with an optional block of
//!    data, modeled by a calibrated cost function (Table 1: 40 µs minimum
//!    roundtrip for a 4-byte message, 20 MB/s bandwidth).
//!
//! Computation runs natively on real data (each node owns a full-size copy
//! of the segment), while *time* is virtual: per-node clocks advance by a
//! cost model calibrated against the paper's Table 1. Protocol-handler
//! occupancy is charged to a dedicated protocol CPU (dual-cpu
//! configuration) or to the compute CPU itself (single-cpu configuration),
//! reproducing the two system design points §5 evaluates.
//!
//! The simulator is deterministic regardless of how it is scheduled:
//! cluster state is sharded per node ([`NodeShard`]), cross-node traffic
//! is serviced in a resolve phase that runs on one thread in a fixed
//! order, and kernels touch only their own shard — so the compute phase
//! may run on real threads while identical runs still produce
//! bit-identical data, miss counts and virtual times, which the test
//! suite relies on.

#![deny(unsafe_code)]

pub mod arena;
pub mod cache;
pub mod cluster;
pub mod costs;
pub mod cursor;
pub mod knob;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod scratch;
pub mod shard;
pub mod stats;
pub mod trace;

pub use cache::CacheModel;
pub use cluster::{Access, ChargeKind, Cluster, HomePolicy, NodeId, ReduceOp, SegmentLayout};
pub use costs::{CostModel, CpuMode};
pub use metrics::{Histogram, Metric, MetricsRegistry, Stage, Telemetry, WireSpan};
pub use pool::{Job, WorkerPool};
pub use profile::{FalseSharingFlag, LoopRow, NodeHeatmap, StepInterval};
pub use scratch::{BlockSet, CacheAligned, DirtySet};
pub use shard::NodeShard;
pub use stats::{ClusterReport, HostPhases, NodeStats};
pub use trace::{
    BlockHasher, BlockHeat, BlockMap, CtlPrim, Event, FaultKind, NodeTrace, TraceEntry, NO_ARRAY,
    NO_BLOCK, NO_LOOP, NO_STEP,
};
