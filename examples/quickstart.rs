//! Quickstart: run the jacobi benchmark on a simulated 8-node cluster,
//! unoptimized vs. compiler-optimized, and print the paper's headline
//! quantities (execution time, communication time, per-node miss count).
//!
//!     cargo run --release --example quickstart
//!     FGDSM_CHROME=/tmp/chrome.json FGDSM_TRACE_CAP=65536 cargo run --release --example quickstart
//!
//! `FGDSM_TRACE` / `FGDSM_CHROME` export the optimized run's event trace
//! and Chrome timeline; `FGDSM_TRACE_CAP` sizes its per-node trace ring.

use fgdsm::apps::{jacobi, Scale};
use fgdsm::hpf::{execute, execute_profiled, ExecConfig};
use fgdsm::tempest::knob::Knobs;

fn main() {
    let params = jacobi::Params::at(Scale::Bench);
    let program = jacobi::build(&params);
    println!(
        "jacobi {}x{}, {} iterations, 8 nodes, 128-byte blocks\n",
        params.n, params.m, params.iters
    );

    let knobs = Knobs::from_env();
    let unopt = execute(&program, &ExecConfig::sm_unopt(8));
    let mut opt_cfg = ExecConfig::sm_opt(8);
    opt_cfg.trace_cap = knobs.trace_cap;
    let (opt, trace, chrome) = execute_profiled(&program, &opt_cfg);
    knobs.export(&trace, &chrome);

    // Identical numerics, very different communication behaviour.
    assert_eq!(
        unopt.array(&program, jacobi::A),
        opt.array(&program, jacobi::A)
    );

    println!("{:<26}{:>14}{:>14}", "", "unoptimized", "optimized");
    println!(
        "{:<26}{:>14.3}{:>14.3}",
        "execution time (s)",
        unopt.total_s(),
        opt.total_s()
    );
    println!(
        "{:<26}{:>14.3}{:>14.3}",
        "communication time (s)",
        unopt.report.comm_s(),
        opt.report.comm_s()
    );
    println!(
        "{:<26}{:>14.1}{:>14.1}",
        "misses per node (K)",
        unopt.report.avg_misses() / 1e3,
        opt.report.avg_misses() / 1e3
    );
    println!(
        "{:<26}{:>14}{:>14}",
        "messages (total)",
        unopt.report.total_msgs(),
        opt.report.total_msgs()
    );
    println!(
        "\ncompiler-directed calls: {} sends, {} blocks pushed, \
         {} implicit_writable ({} memo hits possible)",
        opt.ctl.send_range,
        opt.ctl.blocks_pushed,
        opt.ctl.implicit_writable,
        opt.ctl.implicit_writable.saturating_sub(1)
    );
    println!(
        "\nmiss reduction: {:.1}%   execution-time reduction: {:.1}%",
        100.0 * (1.0 - opt.report.avg_misses() / unopt.report.avg_misses()),
        100.0 * (1.0 - opt.total_s() / unopt.total_s())
    );
    println!("checksum: {:.6e}", opt.scalars["checksum"]);
}
