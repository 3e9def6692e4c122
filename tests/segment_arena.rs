//! Reuse through the segment arena is invisible: an execute that draws
//! the segments and the gather output an earlier execute left behind —
//! of its own program on another backend, after a program of another
//! shape, or while another thread executes the same program — produces
//! the bits a first execute does.

use fgdsm::apps::{jacobi, suite, Scale};
use fgdsm::hpf::{execute_traced, ExecConfig, Program};
use std::sync::Barrier;

const NP: usize = 4;

/// What a run must reproduce: its data bits, its canonical report and
/// its event trace.
#[derive(Debug, PartialEq)]
struct Artifacts {
    data: Vec<u64>,
    report: String,
    trace: String,
}

fn artifacts(prog: &Program, cfg: &ExecConfig) -> Artifacts {
    let (run, trace) = execute_traced(prog, cfg);
    Artifacts {
        data: run.data.iter().map(|x| x.to_bits()).collect(),
        report: run.report.to_json(),
        trace,
    }
}

/// For every suite app, back to back in one process: execute it, then
/// the next app (another shape), then the app on another backend, then
/// the app again — which must match its first execute exactly.
#[test]
fn interleaved_executes_match_the_first() {
    let apps = suite(Scale::Test);
    let backends = [
        ExecConfig::sm_unopt(NP),
        ExecConfig::sm_opt(NP),
        ExecConfig::mp(NP),
    ];
    for (i, app) in apps.iter().enumerate() {
        let cfg = &backends[i % backends.len()];
        let other = &backends[(i + 1) % backends.len()];
        let first = artifacts(&app.program, cfg);
        artifacts(&apps[(i + 1) % apps.len()].program, cfg);
        artifacts(&app.program, other);
        assert!(
            artifacts(&app.program, cfg) == first,
            "{}: a reused execute differs from the first",
            app.name
        );
    }
}

/// Two threads execute the same program 20 times each, every pair of
/// executes started together so both draw from the arena at once: every
/// result equals the serial one, so the arena never hands one buffer to
/// two clusters.
#[test]
fn concurrent_executes_match_the_serial_one() {
    let prog = jacobi::build(&jacobi::Params::at(Scale::Test));
    for cfg in [ExecConfig::sm_opt(NP).serial(), ExecConfig::mp(NP).serial()] {
        let want = artifacts(&prog, &cfg);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for k in 0..20 {
                        start.wait();
                        assert!(artifacts(&prog, &cfg) == want, "execute {k} differs");
                    }
                });
            }
        });
    }
}
