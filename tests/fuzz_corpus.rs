//! Tier-1 differential fuzz corpus.
//!
//! Runs a fixed, seeded corpus of randomly generated mini-HPF programs
//! through the cross-backend differential oracle (reference interpreter
//! vs `sm_unopt`, `sm_opt` at every optimization-toggle combination,
//! and `mp`, each serial and threaded). The corpus is deterministic:
//! case `k` always uses seed `case_seed(BASE_SEED, k)`, so a failure
//! message's seed can be replayed with `FGDSM_FUZZ_CASES`:
//!
//! ```text
//! FGDSM_FUZZ_CASES=500 cargo test --test fuzz_corpus
//! ```
//!
//! On divergence the harness shrinks the case and panics with the seed
//! and a standalone Rust reproducer.

use fgdsm::tempest::knob::Knobs;
use fgdsm_fuzz::{
    case_seed, check_case, check_case_paged, check_case_strict, check_case_tcp, check_spec,
    gen_spec_paged, PAGED_SLICE, STRICT_SLICE,
};
use fgdsm_testkit::{Rng, BASE_SEED};

fn corpus_cases() -> u64 {
    Knobs::from_env().fuzz_cases.unwrap_or(200)
}

/// The whole corpus through the main matrix; its first [`STRICT_SLICE`]
/// cases additionally through strict wire mode at every optimization
/// level.
#[test]
fn differential_corpus() {
    for case in 0..corpus_cases() {
        let seed = case_seed(BASE_SEED, case);
        check_case(seed);
        if case < STRICT_SLICE {
            check_case_strict(seed);
        }
    }
}

/// Paged cases the oracle catches at every run-time-overhead-elimination
/// level, and only there: a reader's copy of a block that a memoized
/// `implicit_writable` tagged ReadWrite stays ReadWrite after the block's
/// owner rewrites it, and a later loop that reads the block as a
/// boundary block — through the default protocol, which trusts the tag
/// — computes from the stale copy. A known defect of the §4.3 contract
/// (ROADMAP), pinned here so that its fix shows.
const PAGED_STALE_MEMO: [u64; 1] = [24];

/// The first [`PAGED_SLICE`] seeds of the corpus with a page per
/// distributed unit ([`fgdsm_fuzz::gen_spec_paged`]): nodes home to whole
/// pages of their own data, whose lost blocks only the default walk's
/// scan of lost homed runs wins back.
#[test]
fn differential_corpus_paged() {
    for case in 0..PAGED_SLICE {
        let seed = case_seed(BASE_SEED, case);
        if !PAGED_STALE_MEMO.contains(&case) {
            check_case_paged(seed);
            continue;
        }
        let spec = gen_spec_paged(&mut Rng::new(seed), seed);
        let d = check_spec(&spec).expect_err("the stale-memo case diverges");
        assert!(d.config.contains("rtoe"), "case {case} diverged at {d}");
    }
}

/// The first eighth of the same seeded corpus replayed over the
/// socket-backed `tcp` backend: every transfer framed over loopback to
/// spawned `fgdsm-node` processes, results bitwise against the
/// reference and artifacts byte-identical to `sm_opt[full]` serial.
/// Smaller because each case spawns a process fleet; seeds match
/// `differential_corpus` case for case, so a tcp-only failure is
/// immediately comparable with its in-process twin. Skips with a notice
/// when the sandbox forbids sockets.
#[test]
fn differential_corpus_tcp() {
    if !fgdsm::hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping differential_corpus_tcp");
        return;
    }
    for case in 0..corpus_cases() / 8 {
        check_case_tcp(case_seed(BASE_SEED, case));
    }
}
