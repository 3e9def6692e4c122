//! # fgdsm-fuzz: the correctness harness
//!
//! Differential testing for the whole executor stack. Three pieces:
//!
//! * [`gen`] — a seeded generator of random mini-HPF programs: BLOCK /
//!   CYCLIC last-dimension distributions, INDEPENDENT loops with random
//!   affine stencils and optional indirect (`x(idx(i))`) gathers,
//!   reductions, scalar statements and multi-statement time loops. The
//!   generator's output is a [`FuzzSpec`] — a small, plain-data model of
//!   the program — so a failing case can be shrunk and replayed exactly.
//! * [`oracle`] — runs the spec's program through the sequential
//!   reference interpreter and every backend (`sm_unopt`, `sm_opt` at
//!   every [`fgdsm_hpf::OptLevel`] toggle combination, `mp`), each in
//!   both serial and threaded compute mode, and asserts byte-identical
//!   final array contents and scalars. Protocol consistency and trace
//!   invariants (balanced message/byte counters, monotone per-node
//!   clocks) are asserted inside the engine on every run.
//! * [`shrink`] — on divergence, a greedy minimizer that drops
//!   statements, reads and arrays and shrinks extents / time counts /
//!   node counts while the divergence persists, then renders a
//!   standalone Rust reproducer ([`FuzzSpec::to_rust`]).
//!
//! Fault injection rides on [`fgdsm_hpf::InjectConfig`]: *tolerated*
//! perturbations (randomized resolve order, cleared `implicit_writable`
//! memo, boundary blocks forced onto the default path) must produce
//! identical results; *must-catch* protocol mutations (off-by-one
//! `send_range`, skipped `flush_range`) must make the oracle report a
//! divergence.

#![forbid(unsafe_code)]

pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod taxonomy;

pub use gen::{gen_spec, ArraySpec, FStmt, FuzzSpec, LoopSpec, ReadSpec};
pub use oracle::{check_spec, check_spec_strict, check_spec_tcp, Divergence};
pub use shrink::shrink;
pub use taxonomy::{Detector, Fault};

/// Golden stride between corpus seeds (the SplitMix64 increment, so
/// corpus seeds match `fgdsm_testkit::check_cases` numbering).
pub const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derive the seed of corpus case `case` from a base seed.
pub fn case_seed(base: u64, case: u64) -> u64 {
    base ^ case.wrapping_mul(SEED_STRIDE)
}

/// Check one corpus case end to end: generate from `seed`, run the
/// oracle, and on divergence shrink and panic with the failing seed and
/// a standalone reproducer in the message.
pub fn check_case(seed: u64) {
    let mut rng = fgdsm_testkit::Rng::new(seed);
    let spec = gen_spec(&mut rng, seed);
    if let Err(d) = check_spec(&spec) {
        let small = shrink(&spec);
        let small_d = check_spec(&small).expect_err("shrunk spec must still diverge");
        panic!(
            "fuzz divergence at seed {seed:#x}\n\
             original: {d}\n\
             shrunk:   {small_d}\n\
             reproducer:\n{}",
            small.to_rust()
        );
    }
}

/// How many cases, from the start of a corpus, also replay through
/// [`check_case_strict`].
pub const STRICT_SLICE: u64 = 50;

/// Replay one corpus case through a secondary `oracle`, without a shrink
/// pass: the main matrix already shrinks this seed if the divergence is
/// not specific to the path, and spawning process fleets per shrink
/// candidate would dominate the suite.
fn replay(seed: u64, path: &str, oracle: fn(&FuzzSpec) -> Result<(), Divergence>) {
    let mut rng = fgdsm_testkit::Rng::new(seed);
    let spec = gen_spec(&mut rng, seed);
    if let Err(d) = oracle(&spec) {
        panic!(
            "{path} fuzz divergence at seed {seed:#x}: {d}\n\
             reproducer spec:\n{}",
            spec.to_rust()
        );
    }
}

/// Replay one corpus case through [`check_spec_strict`]: strict wire
/// mode at every optimization level the main matrix runs fast-path only.
pub fn check_case_strict(seed: u64) {
    replay(seed, "strict-wire", check_spec_strict);
}

/// Replay one corpus case over the socket-backed `tcp` path
/// ([`check_spec_tcp`]: serial tcp vs the reference bitwise, and vs
/// `sm_opt[full]`'s serial artifacts byte for byte). Callers gate on
/// [`fgdsm_hpf::tcp_available`].
pub fn check_case_tcp(seed: u64) {
    replay(seed, "tcp", check_spec_tcp);
}
