//! Loop-attributed communication profile: predicted vs. observed traffic
//! per IR loop, under the unoptimized and optimized shared-memory
//! backends.
//!
//! For each application the report decomposes the whole-run counters into
//! one row per parallel loop (per-superstep interval stats folded by
//! loop id), pairs the measured payload bytes with the §4.2 contract's
//! *planned* section volume, and marks loops where default-protocol
//! faults survived under the optimized backend — traffic the contract
//! was supposed to orchestrate but did not (`!` in the `byp` column).
//! False-sharing flags (multi-word blocks faulted by ≥2 nodes in one
//! superstep) are summarized per run, and every run's Chrome-trace
//! export is validated as well-formed before the table is trusted.
//!
//! `--backend chan` appends the channel-backed distributed backend to
//! the per-app matrix; each chan run additionally self-asserts the
//! strict-wire accounting invariants (every heatmap byte attributed for
//! reduction-free apps, wire payload reconciling with the cluster's
//! `bytes_sent`). `--backend tcp` appends the socket-backed multi-process
//! backend instead: the same invariants apply, and the report closes
//! with a predicted-vs-measured latency table putting the Table-1 cost
//! model's virtual communication time next to the host nanoseconds the
//! coordinator actually spent blocked on its sockets.
//!
//! `--phases N` prints only the `host ms:` row of each app and backend,
//! each phase the median of `N` untraced executes after 3 warm-ups:
//! what `execute` costs, without the trace ring a traced run keeps.
//!
//! `--out-dir DIR` writes `profile.json`, `calibration.json` and the
//! merged coordinator+worker `merged_chrome.json` under `DIR` instead of
//! updating the committed `bench_results/` artifacts. `FGDSM_TRACE` /
//! `FGDSM_CHROME` export the last run's trace documents.
//!
//!     cargo run --release -p fgdsm-bench --bin profile_report
//!     cargo run --release -p fgdsm-bench --bin profile_report -- jacobi
//!     cargo run --release -p fgdsm-bench --bin profile_report -- --backend chan jacobi
//!     cargo run --release -p fgdsm-bench --bin profile_report -- --backend tcp --out-dir /tmp/p jacobi
//!     taskset -c 0 cargo run --release -p fgdsm-bench --bin profile_report -- --phases 15 shallow
//!     FGDSM_CHROME=/tmp/j.json cargo run --release -p fgdsm-bench --bin profile_report -- jacobi

use fgdsm_apps::suite;
use fgdsm_bench::{json, json_row, save_json, scale};
use fgdsm_hpf::{execute, execute_profiled, ExecConfig, Program, RunResult};
use fgdsm_tempest::knob::Knobs;
use fgdsm_tempest::{HostPhases, Stage, NO_LOOP};
use std::collections::BTreeMap;
use std::path::PathBuf;

const NPROCS: usize = 8;

json_row! {
    struct Row {
        app: &'static str,
        backend: &'static str,
        loop_name: String,
        supersteps: u64,
        compute_ns: u64,
        comm_ns: u64,
        misses: u64,
        bytes_sent: u64,
        planned_bytes: u64,
    }
}

json_row! {
    struct CalRow {
        app: &'static str,
        class: &'static str,
        frames: u64,
        payload_bytes: u64,
        predicted_roundtrip_ns: u64,
        measured_p50_ns: u64,
        measured_p90_ns: u64,
        measured_p99_ns: u64,
        measured_mean_ns: u64,
    }
}

/// Calibration: join the Table-1 cost model's predicted round-trip time
/// against the coordinator's measured wall-clock route histograms of a
/// metered `tcp` run, one row per exercised frame kind. Predicted
/// is the simulated network's round-trip for this class's *mean* frame
/// payload; measured is the *amortised streaming cost* per frame — each
/// link-level batch's blocked time (its write plus the wait for its
/// echo) split equally over its frames — not a blocking round trip,
/// which is fgbench's `net.rtt_us_*`. The table makes the constant
/// factor between the two worlds explicit per message class.
fn calibration_rows(app: &'static str, run: &RunResult) -> Vec<CalRow> {
    let reg = run
        .metrics()
        .unwrap_or_else(|| panic!("{app}/tcp: calibration needs a metered run"));
    let cost = fgdsm_tempest::CostModel::paper_dual_cpu();
    let mut rows = Vec::new();
    let coord = reg.coord();
    for kind in 0u8..=4 {
        let class = fgdsm_tempest::metrics::class_name(kind);
        let frames = coord.frames(kind);
        if frames == 0 {
            continue;
        }
        let payload = coord.payload_bytes(kind);
        let h = coord.hist(Stage::Route, kind);
        assert_eq!(
            h.count(),
            frames,
            "{app}/tcp: route.{class} histogram must have one sample per frame"
        );
        rows.push(CalRow {
            app,
            class,
            frames,
            payload_bytes: payload,
            predicted_roundtrip_ns: cost.roundtrip_ns((payload / frames) as usize),
            measured_p50_ns: h.percentile(0.50),
            measured_p90_ns: h.percentile(0.90),
            measured_p99_ns: h.percentile(0.99),
            measured_mean_ns: h.sum() / h.count(),
        });
    }
    assert!(
        !rows.is_empty(),
        "{app}/tcp: no frame kind was exercised — calibration would be empty"
    );
    rows
}

/// Render the per-class calibration table.
fn calibration_table(rows: &[CalRow]) {
    println!(
        "calibration — Table 1 predicted round-trip vs measured streaming cost per frame (tcp)"
    );
    println!(
        "{:<10} {:<8} {:>8} {:>11} {:>13} {:>11} {:>11} {:>11} {:>11}",
        "app",
        "class",
        "frames",
        "payload_B",
        "predicted_ns",
        "p50_ns",
        "p90_ns",
        "p99_ns",
        "mean_ns"
    );
    for r in rows {
        println!(
            "{:<10} {:<8} {:>8} {:>11} {:>13} {:>11} {:>11} {:>11} {:>11}",
            r.app,
            r.class,
            r.frames,
            r.payload_bytes,
            r.predicted_roundtrip_ns,
            r.measured_p50_ns,
            r.measured_p90_ns,
            r.measured_p99_ns,
            r.measured_mean_ns,
        );
    }
}

/// Assert the Chrome-trace export is a well-formed JSON array of
/// complete-span (`X`), instant (`i`), and metadata (`M`) events, each
/// carrying the `pid`/`tid`/`ts` fields Perfetto requires. (`M` only
/// appears in merged traces — the per-process `process_name` labels.)
fn validate_chrome(app: &str, backend: &str, chrome: &str) {
    let v = json::parse(chrome)
        .unwrap_or_else(|e| panic!("{app}/{backend}: chrome trace is not JSON: {e}"));
    let events = v
        .as_arr()
        .unwrap_or_else(|| panic!("{app}/{backend}: chrome trace is not an array"));
    assert!(
        !events.is_empty(),
        "{app}/{backend}: chrome trace has no events"
    );
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or_else(|| panic!("{app}/{backend}: event without ph: {ev:?}"));
        assert!(
            ph == "X" || ph == "i" || ph == "M",
            "{app}/{backend}: unexpected phase {ph:?}"
        );
        for key in ["pid", "tid"] {
            assert!(
                ev.get(key).and_then(|v| v.as_u64()).is_some(),
                "{app}/{backend}: event missing {key}: {ev:?}"
            );
        }
        assert!(
            ev.get("ts").and_then(|v| v.as_f64()).is_some(),
            "{app}/{backend}: event missing ts: {ev:?}"
        );
        assert!(
            ev.get("name").and_then(|n| n.as_str()).is_some(),
            "{app}/{backend}: event missing name"
        );
        if ph == "X" {
            assert!(
                ev.get("dur").and_then(|d| d.as_f64()).is_some(),
                "{app}/{backend}: span missing dur"
            );
        }
    }
}

/// `profile_report [--backend chan|tcp] [--out-dir DIR] [--phases N] [APP]`.
#[derive(Debug, Default, PartialEq)]
struct Args {
    backend: Option<String>,
    out_dir: Option<PathBuf>,
    phases: Option<usize>,
    app: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args::default();
    while let Some(a) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| panic!("{a} needs a value (see the module docs)"))
        };
        match a.as_str() {
            "--backend" => args.backend = Some(value()),
            "--out-dir" => args.out_dir = Some(value().into()),
            "--phases" => {
                let n = value();
                let n = n.parse().ok().filter(|&n| n > 0);
                args.phases = Some(n.unwrap_or_else(|| panic!("--phases needs a count above 0")));
            }
            flag if flag.starts_with("--") => panic!("unknown option {flag}"),
            _ => args.app = Some(a),
        }
    }
    args
}

/// The extra backend requested with `--backend` (`chan` or `tcp`),
/// appended after the standard two. `tcp` in a sandbox that forbids
/// sockets is skipped with a notice, like the socket-backed tests.
fn extra_backends(backend: Option<&str>) -> Vec<(&'static str, ExecConfig)> {
    match backend {
        None => Vec::new(),
        Some("chan") => vec![("chan", ExecConfig::chan(NPROCS))],
        Some("tcp") if !fgdsm_hpf::tcp_available() => {
            println!("notice: sandbox forbids sockets; profile report carries no tcp runs\n");
            Vec::new()
        }
        // Metered: the tcp run feeds the calibration table and the
        // merged Perfetto trace. Telemetry is a side channel, so the
        // profile rows are byte-identical to an unmetered run.
        Some("tcp") => vec![("tcp", ExecConfig::tcp(NPROCS).metered())],
        Some(other) => panic!("--backend: unknown backend `{other}` (expected `chan` or `tcp`)"),
    }
}

/// Strict-wire accounting invariants of a `chan` or `tcp` run: the run
/// actually moved envelopes, the payload words they carried never exceed
/// the protocol's own byte accounting (`bytes_sent` adds fixed
/// per-message headers on top, reduction traffic is counted but not
/// enveloped), and for reduction-free apps every heatmap byte is
/// block-attributed — reductions are the only traffic with no home
/// block, so nothing else may leak into `unattributed_bytes`. A `tcp`
/// run must additionally accrue *measured* route time: real socket
/// batches cost host nanoseconds the in-process backends never see.
fn check_wire_invariants(app: &str, backend: &str, run: &RunResult) {
    let mut whole = fgdsm_tempest::NodeStats::default();
    for n in &run.report.nodes {
        whole.accumulate(n);
    }
    assert!(
        run.wire_frames > 0 || whole.bytes_sent == 0,
        "{app}/{backend}: traffic flowed ({} bytes) but no envelopes were routed",
        whole.bytes_sent
    );
    assert!(
        run.wire_payload_bytes > 0 || whole.bytes_sent == 0,
        "{app}/{backend}: envelopes routed but carried no payload"
    );
    assert!(
        run.wire_payload_bytes <= whole.bytes_sent,
        "{app}/{backend}: wire payload {} exceeds cluster bytes_sent {}",
        run.wire_payload_bytes,
        whole.bytes_sent
    );
    if whole.reductions == 0 {
        for (n, hm) in run.report.heatmaps.iter().enumerate() {
            assert_eq!(
                hm.unattributed_bytes, 0,
                "{app}/{backend}: node {n} sent unattributed bytes in a reduction-free app"
            );
        }
    }
    if backend == "tcp" {
        assert!(
            run.wire_route_ns() > 0 || run.wire_frames == 0,
            "{app}/tcp: socket batches must accrue measured route time"
        );
    }
    println!(
        "    wire: {} frames in {} batches flushed, {} syncs, {} payload bytes ({} cluster bytes_sent)",
        run.wire_frames, run.wire_batches, run.wire_syncs, run.wire_payload_bytes, whole.bytes_sent
    );
}

/// One app's predicted-vs-measured latency comparison: the Table-1 cost
/// model's virtual communication time against the host time the
/// coordinator spent blocked on its sockets.
struct LatencyRow {
    app: &'static str,
    predicted_comm_ns: u64,
    measured_route_ns: u64,
    frames: u64,
    payload_bytes: u64,
}

/// Render the closing predicted-vs-measured table for the `tcp` runs.
/// The two columns answer different questions — the predicted side is
/// the simulated network of Table 1 (fixed per-message latency plus
/// bandwidth), the measured side is loopback-socket host time — so the
/// table validates *liveness and proportionality* of the cost model
/// (more frames cost more on both clocks), not equality.
fn latency_table(rows: &[LatencyRow]) {
    println!("predicted vs measured wire latency — Table 1 cost model vs host sockets");
    println!(
        "{:<10} {:>15} {:>15} {:>8} {:>11} {:>13} {:>13}",
        "app", "predicted_ns", "measured_ns", "frames", "payload_B", "pred_ns/frm", "meas_ns/frm"
    );
    for r in rows {
        let per = |ns: u64| if r.frames == 0 { 0 } else { ns / r.frames };
        println!(
            "{:<10} {:>15} {:>15} {:>8} {:>11} {:>13} {:>13}",
            r.app,
            r.predicted_comm_ns,
            r.measured_route_ns,
            r.frames,
            r.payload_bytes,
            per(r.predicted_comm_ns),
            per(r.measured_route_ns),
        );
    }
}

fn report_run(
    app: &'static str,
    backend: &'static str,
    loop_names: &[&'static str],
    run: &RunResult,
    chrome: &str,
    rows: &mut Vec<Row>,
) {
    validate_chrome(app, backend, chrome);

    // Planned (contract-orchestrated) bytes per loop, from the backend's
    // plan-time records. Empty for sm_unopt: everything is "unplanned".
    let mut planned: BTreeMap<u32, u64> = BTreeMap::new();
    for x in &run.planned {
        *planned.entry(x.loop_id).or_default() += x.bytes;
    }

    let handler_in_comm = run.report.handler_in_comm;
    let table = run.report.loop_table();
    println!("  {backend} (virtual {:.3}s)", run.total_s());
    println!(
        "    {:<10} {:>5} {:>12} {:>12} {:>8} {:>12} {:>12}  byp",
        "loop", "steps", "compute_ns", "comm_ns", "misses", "bytes", "planned_B"
    );
    let mut sum = fgdsm_tempest::NodeStats::default();
    for row in &table {
        let name = if row.loop_id == NO_LOOP {
            "(outside)"
        } else {
            loop_names
                .get(row.loop_id as usize)
                .copied()
                .unwrap_or("<?>")
        };
        let planned_bytes = planned.get(&row.loop_id).copied().unwrap_or(0);
        // Under the optimized backend, misses inside a planned loop mean
        // traffic bypassed the contract onto the default-protocol path.
        let bypassed = backend == "sm-opt" && row.loop_id != NO_LOOP && row.total.misses() > 0;
        println!(
            "    {:<10} {:>5} {:>12} {:>12} {:>8} {:>12} {:>12}  {}",
            name,
            row.supersteps,
            row.total.compute_ns,
            row.total.comm_ns(handler_in_comm),
            row.total.misses(),
            row.total.bytes_sent,
            planned_bytes,
            if bypassed { "!" } else { "" }
        );
        rows.push(Row {
            app,
            backend,
            loop_name: name.to_string(),
            supersteps: row.supersteps,
            compute_ns: row.total.compute_ns,
            comm_ns: row.total.comm_ns(handler_in_comm),
            misses: row.total.misses(),
            bytes_sent: row.total.bytes_sent,
            planned_bytes,
        });
        sum.accumulate(&row.total);
    }

    // The table is a decomposition, not a sample: summing every row must
    // reproduce the whole-run cluster counters field by field.
    let mut whole = fgdsm_tempest::NodeStats::default();
    for n in &run.report.nodes {
        whole.accumulate(n);
    }
    assert_eq!(
        sum, whole,
        "{app}/{backend}: per-loop table does not sum to the whole run"
    );

    let fs = &run.report.false_sharing;
    if fs.is_empty() {
        println!("    false sharing: none");
    } else {
        let blocks: std::collections::BTreeSet<u32> = fs.iter().map(|f| f.block).collect();
        println!(
            "    false sharing: {} flags over {} blocks (first: step {} loop {} block {} nodes {:?})",
            fs.len(),
            blocks.len(),
            fs[0].step,
            fs[0].loop_id,
            fs[0].block,
            fs[0].nodes
        );
    }

    // Where the host time of this run went (real time, not part of any
    // canonical artifact), plus what the inspector memo saved.
    let (inspections, hits) = run
        .inspector
        .iter()
        .fold((0, 0), |(i, h), r| (i + r.inspections, h + r.hits));
    println!(
        "{} | inspector: {inspections} inspected, {hits} reused, {} plans",
        host_row(&run.report.host.rows(), run.report.wall_ns),
        run.plans_cached
    );
    // What each loop's kernels cost on this host: a kernel that lost its
    // vectorized inner loop shows here as a number.
    let kernels: Vec<String> = loop_names
        .iter()
        .zip(&run.inspector)
        .filter(|(_, r)| r.points > 0)
        .map(|(name, r)| format!("{name} {:.2}", r.compute_ns as f64 / r.points as f64))
        .collect();
    println!("    kernel ns/point: {}", kernels.join(" | "));
}

/// The `host ms:` row: each phase, their sum and the wall clock, in ms.
fn host_row(rows: &[(&str, u64)], wall_ns: u64) -> String {
    let phases: Vec<String> = rows
        .iter()
        .map(|&(name, ns)| format!("{name} {:.2}", ns as f64 / 1e6))
        .collect();
    format!(
        "    host ms: {} | sum {:.2} of wall {:.2}",
        phases.join(" "),
        rows.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 / 1e6,
        wall_ns as f64 / 1e6
    )
}

/// The median of `ns` (the upper one of an even count).
fn median(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// `--phases N`: the `host ms:` row of `app` on each backend, every
/// phase and the wall the median of `n` untraced executes after 3
/// warm-ups (the first executes of a shape also pay fresh segments).
fn phase_rows(app: &str, prog: &Program, backends: &[(&'static str, ExecConfig)], n: usize) {
    for (backend, cfg) in backends {
        for _ in 0..3 {
            execute(prog, cfg);
        }
        let runs: Vec<(HostPhases, u64)> = (0..n)
            .map(|_| execute(prog, cfg))
            .map(|r| (r.report.host, r.report.wall_ns))
            .collect();
        let mut rows = HostPhases::default().rows();
        for (i, (_, ns)) in rows.iter_mut().enumerate() {
            *ns = median(runs.iter().map(|r| r.0.rows()[i].1).collect());
        }
        let wall = median(runs.iter().map(|r| r.1).collect());
        println!("  {app}/{backend}, medians of {n} untraced executes");
        println!("{}", host_row(&rows, wall));
    }
}

/// Co-residency demo: jacobi's Test geometry is block-aligned at 8
/// procs (6 columns × 96 words = 36 blocks per node), so the detector
/// finds nothing — the hazard `shmem_limits` exists for is absent by
/// construction. Re-running at one column per node makes every ghost
/// column a two-reader section: the unoptimized run faults co-resident
/// blocks all over, while the §4.2 contract covers the fully-aligned
/// interior blocks, leaving only the partial head/tail blocks (which
/// `shmem_limits` correctly refuses to orchestrate) on the default path.
fn false_sharing_demo() {
    use fgdsm_apps::{jacobi, Scale};
    use std::collections::BTreeSet;
    let prog = jacobi::build(&jacobi::Params::at(Scale::Test));
    let nprocs = 48; // one column per node: two remote readers per ghost column
    let un = fgdsm_hpf::execute(&prog, &ExecConfig::sm_unopt(nprocs));
    let op = fgdsm_hpf::execute(&prog, &ExecConfig::sm_opt(nprocs));
    let un_blocks: BTreeSet<u32> = un.report.false_sharing.iter().map(|f| f.block).collect();
    let op_blocks: BTreeSet<u32> = op.report.false_sharing.iter().map(|f| f.block).collect();
    let covered: Vec<u32> = un_blocks.difference(&op_blocks).copied().collect();
    println!("co-residency demo — jacobi at {nprocs} procs (one column per node)");
    println!(
        "  sm-unopt: {} flags over {} blocks | sm-opt: {} flags over {} blocks",
        un.report.false_sharing.len(),
        un_blocks.len(),
        op.report.false_sharing.len(),
        op_blocks.len(),
    );
    println!(
        "  {} co-resident blocks in the unoptimized run are clean under the contract",
        covered.len()
    );
    assert!(
        !un.report.false_sharing.is_empty(),
        "unoptimized jacobi at one column per node must exhibit co-resident faults"
    );
    assert!(
        !covered.is_empty(),
        "the contract must clean at least one block the unoptimized run faults multi-node"
    );
    assert!(
        op.report.false_sharing.len() < un.report.false_sharing.len(),
        "the contract must strictly reduce co-resident faulting"
    );
}

fn main() {
    let knobs = Knobs::from_env();
    let args = parse_args(std::env::args().skip(1));
    let filter = args.app;
    // Rows go to the committed `bench_results/` artifacts unless
    // `--out-dir` redirects them (the ci smoke runs at test scale and
    // must not clobber the bench-scale files).
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("--out-dir {}: {e}", dir.display()));
    }
    let save = |name: &str, rows: &dyn json::ToJson| match &args.out_dir {
        Some(dir) => fgdsm_bench::save_json_in(dir, name, rows),
        None => save_json(name, rows),
    };
    println!(
        "profile report — {} — {} procs\n",
        fgdsm_bench::scale_label(scale()),
        NPROCS
    );
    let mut rows = Vec::new();
    let mut latency = Vec::new();
    let mut calibration = Vec::new();
    let mut ran = 0;
    let mut backends = vec![
        ("sm-unopt", ExecConfig::sm_unopt(NPROCS)),
        ("sm-opt", ExecConfig::sm_opt(NPROCS)),
    ];
    backends.extend(extra_backends(args.backend.as_deref()));
    for spec in suite(scale()) {
        if let Some(f) = &filter {
            if spec.name != f.as_str() {
                continue;
            }
        }
        ran += 1;
        if let Some(n) = args.phases {
            phase_rows(spec.name, &spec.program, &backends, n);
            continue;
        }
        println!("{}", spec.name);
        let loop_names: Vec<&'static str> =
            spec.program.par_loops().iter().map(|l| l.name).collect();
        for (backend, mut cfg) in backends.iter().cloned() {
            cfg.trace_cap = knobs.trace_cap;
            let (run, trace, chrome) = execute_profiled(&spec.program, &cfg);
            knobs.export(&trace, &chrome);
            report_run(spec.name, backend, &loop_names, &run, &chrome, &mut rows);
            if backend == "chan" || backend == "tcp" {
                check_wire_invariants(spec.name, backend, &run);
            }
            if backend == "tcp" {
                let mut whole = fgdsm_tempest::NodeStats::default();
                for n in &run.report.nodes {
                    whole.accumulate(n);
                }
                latency.push(LatencyRow {
                    app: spec.name,
                    predicted_comm_ns: whole.comm_ns(run.report.handler_in_comm),
                    measured_route_ns: run.wire_route_ns(),
                    frames: run.wire_frames,
                    payload_bytes: run.wire_payload_bytes,
                });
                // Metered run: the telemetry side channel must conserve
                // the wire's payload accounting on both sides of the
                // socket, and the merged Perfetto trace (virtual-clock
                // coordinator tracks + wall-clock worker pid tracks)
                // must validate like any other chrome export.
                run.check_metrics_conservation()
                    .unwrap_or_else(|e| panic!("{}/tcp: {e}", spec.name));
                let merged = run.merged_chrome(&chrome);
                validate_chrome(spec.name, "tcp-merged", &merged);
                if let Some(dir) = &args.out_dir {
                    let path = dir.join("merged_chrome.json");
                    if let Err(e) = std::fs::write(&path, &merged) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
                }
                calibration.extend(calibration_rows(spec.name, &run));
            }
        }
        println!();
    }
    assert!(ran > 0, "no app matched {filter:?}");
    if args.phases.is_some() {
        return;
    }
    if !latency.is_empty() {
        latency_table(&latency);
        println!();
    }
    if !calibration.is_empty() {
        calibration_table(&calibration);
        println!();
        save("calibration", &calibration);
    }
    if filter.is_none() || filter.as_deref() == Some("jacobi") {
        false_sharing_demo();
    }
    save("profile", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_in_any_order_and_reject_unknown_options() {
        let argv = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        assert_eq!(argv(&[]), Args::default());
        assert_eq!(
            argv(&["--backend", "tcp", "jacobi", "--out-dir", "/tmp/p"]),
            Args {
                backend: Some("tcp".into()),
                out_dir: Some("/tmp/p".into()),
                phases: None,
                app: Some("jacobi".into()),
            }
        );
        assert_eq!(argv(&["--phases", "3", "shallow"]).phases, Some(3));
        assert!(std::panic::catch_unwind(|| argv(&["--phases", "0"])).is_err());
        // A mistyped option is an error, not an app filter.
        assert!(std::panic::catch_unwind(|| argv(&["--bakend", "tcp"])).is_err());
    }
}
