//! One-line-per-application summary of absolute virtual times under every
//! backend — the quickest way to see the whole evaluation at once.
//!
//! Besides the virtual (simulated) times, each row records the host
//! wall-clock spent executing the run, so `bench_results/suite.json`
//! accumulates a real-speedup trajectory for the threaded compute phase.
//! Wall-clock is host-dependent and is *not* part of the canonical report
//! JSON.
//!
//! When the sandbox allows sockets, each row also carries the
//! socket-backed `tcp` backend's virtual times (`tcp_s`/`tcp_comm_s`
//! must equal `chan`'s — both are `sm_opt[full]` behind a wire seam)
//! and a sixth wall-clock entry; otherwise those fields are `null` and
//! the wall vector keeps its five in-process entries.
//!
//!     cargo run --release -p fgdsm-bench --bin suite_report
//!     FGDSM_FULL=1 cargo run --release -p fgdsm-bench --bin suite_report

use fgdsm_apps::suite;
use fgdsm_bench::{json_row, save_json, scale};
use fgdsm_hpf::{execute, tcp_available, ExecConfig, ParallelMode, RunResult};

json_row! {
    struct Row {
        app: &'static str,
        uni_s: f64,
        unopt_s: f64,
        unopt_comm_s: f64,
        opt_s: f64,
        opt_comm_s: f64,
        mp_s: f64,
        mp_comm_s: f64,
        chan_s: f64,
        chan_comm_s: f64,
        /// Socket-backed multi-process backend; `null` when the sandbox
        /// forbids sockets.
        tcp_s: Option<f64>,
        tcp_comm_s: Option<f64>,
        /// Host wall-clock for the runs above, in order (a sixth entry
        /// when the `tcp` run participates).
        wall_ns: Vec<u64>,
    }
}

fn main() {
    let with_tcp = tcp_available();
    if !with_tcp {
        eprintln!("notice: sandbox forbids sockets; suite report carries no tcp columns");
    }
    println!(
        "suite report — {} — {} compute worker(s)\n",
        fgdsm_bench::scale_label(scale()),
        ParallelMode::Auto.workers(),
    );
    let mut rows = Vec::new();
    for spec in suite(scale()) {
        let uni = execute(&spec.program, &ExecConfig::sm_unopt(1));
        let un = execute(&spec.program, &ExecConfig::sm_unopt(8));
        let op = execute(&spec.program, &ExecConfig::sm_opt(8));
        let mp = execute(&spec.program, &ExecConfig::mp(8));
        let chan = execute(&spec.program, &ExecConfig::chan(8));
        let tcp = with_tcp.then(|| execute(&spec.program, &ExecConfig::tcp(8)));
        let wall = |r: &RunResult| r.report.wall_ns;
        let mut walls = vec![wall(&uni), wall(&un), wall(&op), wall(&mp), wall(&chan)];
        if let Some(t) = &tcp {
            walls.push(wall(t));
        }
        let wall_ms: f64 = walls.iter().map(|&ns| ns as f64 / 1e6).sum();
        let tcp_col = match &tcp {
            Some(t) => format!(
                " | tcp tot {:7.3} comm {:7.3}",
                t.total_s(),
                t.report.comm_s()
            ),
            None => String::new(),
        };
        println!(
            "{:8} uni {:8.3}s | unopt tot {:7.3} comm {:7.3} | opt tot {:7.3} comm {:7.3} | mp tot {:7.3} comm {:7.3} | chan tot {:7.3} comm {:7.3}{tcp_col} | wall {:8.1}ms",
            spec.name,
            uni.total_s(),
            un.total_s(),
            un.report.comm_s(),
            op.total_s(),
            op.report.comm_s(),
            mp.total_s(),
            mp.report.comm_s(),
            chan.total_s(),
            chan.report.comm_s(),
            wall_ms,
        );
        rows.push(Row {
            app: spec.name,
            uni_s: uni.total_s(),
            unopt_s: un.total_s(),
            unopt_comm_s: un.report.comm_s(),
            opt_s: op.total_s(),
            opt_comm_s: op.report.comm_s(),
            mp_s: mp.total_s(),
            mp_comm_s: mp.report.comm_s(),
            chan_s: chan.total_s(),
            chan_comm_s: chan.report.comm_s(),
            tcp_s: tcp.as_ref().map(RunResult::total_s),
            tcp_comm_s: tcp.as_ref().map(|t| t.report.comm_s()),
            wall_ns: walls,
        });
    }
    save_json("suite", &rows);
}
