//! # fgdsm-model: exhaustive small-model checker for the coherence core
//!
//! The protocols in `fgdsm-protocol` and the §4.2 compiler contract in
//! `fgdsm-hpf` are subtle exactly where testing is weakest: in the
//! interleavings. This crate closes that gap for small configurations by
//! exhaustively enumerating *every* interleaving of resolve-phase
//! actions (reads, writes, releases, and the ctl primitives
//! `mk_writable` / `implicit_writable` / `send_range` / `ready_to_recv`
//! / `implicit_invalidate` / `flush_range`) over 2–3 nodes and 1–2
//! blocks, up to a bounded depth, against an abstract transition-system
//! model ([`absmodel`]).
//!
//! Three ties keep the model honest about the implementation:
//!
//! 1. **Shared transition core.** Every directory decision the model
//!    makes goes through [`fgdsm_protocol::trans`] — the same pure
//!    functions the stateful protocols call. A rule change lands in
//!    both, or diverges and is caught by (3).
//! 2. **Shared contract.** Every candidate ctl op is gated by the real
//!    [`fgdsm_hpf::ContractTracker`], so the explored space is exactly
//!    the space of contract-legal interleavings.
//! 3. **Conformance replay.** [`conformance`] replays enumerated op
//!    sequences through the real `Dsm` — both the in-process fast path
//!    and the channel-backed wire path — and asserts final directory,
//!    tag, and memory agreement, block by block.
//!
//! The checker ([`checker`]) is a canonicalized-state BFS: the first
//! violation it reports carries a *minimal* counterexample trace, which
//! [`checker::Violation::render`] prints as a numbered interleaving and
//! [`checker::Violation::reproducer`] emits as a standalone `#[test]`.
//! Seeded mutations ([`absmodel::Mutation`]) are deliberate bugs the
//! checker must catch — the model-level half of the fault taxonomy in
//! `fgdsm-fuzz`.
//!
//! Depth is a [`ModelConfig`] value ([`DEFAULT_DEPTH`] by default); the
//! closure test main reads `FGDSM_MODEL_DEPTH` into it.

#![forbid(unsafe_code)]

pub mod absmodel;
pub mod checker;
pub mod conformance;

pub use absmodel::{AbsState, Mutation, Op, Proto, WORDS};
pub use checker::{
    check, contract_invisibility, enumerate_sequences, replay, CheckOutcome, ModelConfig,
    Violation, DEFAULT_DEPTH,
};
pub use conformance::{replay_on_dsm, ConformanceReport};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_display_parse_roundtrip() {
        let ops = [
            Op::Read { p: 0, b: 1 },
            Op::Write {
                p: 1,
                b: 0,
                w: 1,
                multi: true,
            },
            Op::Release,
            Op::MkWritable { o: 1, b: 0 },
            Op::ImplicitWritable { r: 0, b: 0 },
            Op::SendRange { o: 1, r: 0, b: 0 },
            Op::ReadyToRecv { r: 0 },
            Op::ImplicitInvalidate { r: 0, b: 0 },
            Op::FlushRange { f: 1, o: 0, b: 0 },
        ];
        for op in ops {
            let s = op.to_string();
            let back: Op = s.parse().unwrap_or_else(|e| panic!("{s:?}: {e}"));
            assert_eq!(back, op, "round-trip of {s:?}");
        }
        assert!("frobnicate x=1".parse::<Op>().is_err());
    }
}
