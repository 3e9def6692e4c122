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
use fgdsm_fuzz::{case_seed, check_case, check_case_strict, check_case_tcp, STRICT_SLICE};
use fgdsm_testkit::BASE_SEED;

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
