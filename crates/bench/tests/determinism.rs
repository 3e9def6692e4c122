//! Serial vs. threaded determinism (the sharded-executor invariant).
//!
//! The compute phase runs on threads: it dispatches kernels over
//! disjoint `NodeShard`s, and every charge, trace event, and memory
//! write in it is shard-local, so thread scheduling must not be
//! observable. These tests pin that down end to end — serial against a
//! 4-worker pool — asserting byte-identical canonical report
//! JSON, byte-identical per-node trace streams, byte-identical profile
//! artifacts (per-superstep intervals, heatmaps, false-sharing flags and
//! the Chrome-trace export), and bit-identical gathered segment data.
//! Failures name the app, backend, mode pair, and the first diverging
//! per-node stats field.

use fgdsm_apps::{suite, AppSpec, Scale};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute_profiled, ExecConfig, RunResult};
use fgdsm_tempest::NodeStats;

/// Name the first differing `NodeStats` field between two nodes, if any.
fn diff_stats(a: &NodeStats, b: &NodeStats) -> Option<String> {
    macro_rules! fields {
        ($($f:ident),+ $(,)?) => {{
            $(
                if a.$f != b.$f {
                    return Some(format!("{} ({} vs {})", stringify!($f), a.$f, b.$f));
                }
            )+
        }};
    }
    fields!(
        compute_ns,
        stall_ns,
        handler_ns,
        barrier_ns,
        ctl_call_ns,
        read_misses,
        write_misses,
        msgs_sent,
        bytes_sent,
        msgs_recv,
        bytes_recv,
        pages_mapped,
        mk_writable_calls,
        implicit_writable_calls,
        implicit_invalidate_calls,
        send_range_calls,
        ready_recv_calls,
        flush_range_calls,
        blocks_pushed,
        reductions,
    );
    None
}

/// Describe where two runs diverge: the first differing per-node stats
/// field if the reports differ, otherwise raw report JSON positions.
fn explain_report_diff(a: &RunResult, b: &RunResult) -> String {
    for (n, (sa, sb)) in a.report.nodes.iter().zip(&b.report.nodes).enumerate() {
        if let Some(d) = diff_stats(sa, sb) {
            return format!("node {n} field {d}");
        }
    }
    if a.report.makespan_ns != b.report.makespan_ns {
        return format!(
            "makespan_ns ({} vs {})",
            a.report.makespan_ns, b.report.makespan_ns
        );
    }
    "report JSON differs outside per-node stats".into()
}

/// Run `spec` serially, then under each `(mode, cfg)` variant; assert
/// every variant reproduces the serial baseline in every observable
/// output, naming app/backend/mode/field on failure.
fn assert_modes_match(
    spec: &AppSpec,
    cfg: &ExecConfig,
    backend: &str,
    modes: Vec<(&str, ExecConfig)>,
) {
    let (rs, ts, cs) = execute_profiled(&spec.program, &cfg.clone().serial());
    for (mode, cfg) in modes {
        let (rp, tp, cp) = execute_profiled(&spec.program, &cfg);
        assert_eq!(
            rs.report.to_json(),
            rp.report.to_json(),
            "{}/{backend}/{mode}: report diverged from serial at {}",
            spec.name,
            explain_report_diff(&rs, &rp)
        );
        assert_eq!(
            ts, tp,
            "{}/{backend}/{mode}: trace streams diverged from the serial run",
            spec.name
        );
        assert_eq!(
            rs.report.profile_json(),
            rp.report.profile_json(),
            "{}/{backend}/{mode}: profile artifacts diverged from the serial run",
            spec.name
        );
        assert_eq!(
            cs, cp,
            "{}/{backend}/{mode}: Chrome-trace export diverged from the serial run",
            spec.name
        );
        assert_eq!(
            rs.planned, rp.planned,
            "{}/{backend}/{mode}: planned transfers diverged from the serial run",
            spec.name
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&rs.data),
            bits(&rp.data),
            "{}/{backend}/{mode}: gathered segment diverged from the serial run",
            spec.name
        );
        assert_eq!(
            rs.scalars, rp.scalars,
            "{}/{backend}/{mode}: scalars diverged from the serial run",
            spec.name
        );
    }
}

/// Serial against a 4-worker compute phase.
fn assert_deterministic(spec: &AppSpec, cfg: &ExecConfig, backend: &str) {
    assert_modes_match(
        spec,
        cfg,
        backend,
        vec![("threads", cfg.clone().threads(4))],
    );
}

/// Every Table 2 application, every executor configuration, tiny sizes.
#[test]
fn whole_suite_is_schedule_independent_at_test_scale() {
    for spec in suite(Scale::Test) {
        assert_deterministic(&spec, &ExecConfig::sm_unopt(NPROCS), "sm_unopt");
        assert_deterministic(&spec, &ExecConfig::sm_opt(NPROCS), "sm_opt");
        assert_deterministic(&spec, &ExecConfig::mp(NPROCS), "mp");
        assert_deterministic(&spec, &ExecConfig::chan(NPROCS), "chan");
    }
}

/// The channel-backed distributed backend is `sm_opt` at the full
/// optimization level behind a wire seam, so it must not merely be
/// internally deterministic — every observable artifact (report, trace,
/// profile JSON, Chrome export, planned transfers, gathered data bits,
/// scalars) must be byte-identical to the `sm_opt` *serial baseline*,
/// in serial and threaded mode alike. This is the cross-backend pin
/// that makes the wire refactor invisible.
#[test]
fn chan_is_byte_identical_to_sm_opt() {
    for spec in suite(Scale::Test) {
        assert_modes_match(
            &spec,
            &ExecConfig::sm_opt(NPROCS),
            "chan-vs-sm_opt",
            vec![
                ("chan-serial", ExecConfig::chan(NPROCS).serial()),
                ("chan-threads", ExecConfig::chan(NPROCS).threads(4)),
            ],
        );
    }
}

/// The socket-backed distributed backend is the same contract as `chan`
/// carried over real sockets to spawned `fgdsm-node` processes — so the
/// identical cross-backend pin applies: every observable artifact must
/// be byte-identical to the `sm_opt` serial baseline, in serial and
/// threaded mode alike, even though the data path round-trips through
/// kernel socket buffers and separate address spaces. Skips with a
/// notice when the sandbox forbids sockets.
#[test]
fn tcp_is_byte_identical_to_sm_opt() {
    if !fgdsm_hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping tcp_is_byte_identical_to_sm_opt");
        return;
    }
    for spec in suite(Scale::Test) {
        assert_modes_match(
            &spec,
            &ExecConfig::sm_opt(NPROCS),
            "tcp-vs-sm_opt",
            vec![
                ("tcp-serial", ExecConfig::tcp(NPROCS).serial()),
                ("tcp-threads", ExecConfig::tcp(NPROCS).threads(4)),
            ],
        );
    }
}

/// Strict wire mode (`ExecConfig::strict`) reroutes every inter-node
/// transfer through encoded envelopes on every backend, but charges and
/// counters are taken at exactly the same points — so each backend's
/// strict runs must reproduce its own fast-path serial baseline byte
/// for byte.
#[test]
fn strict_wire_matches_fast_path() {
    for spec in suite(Scale::Test) {
        for (backend, cfg) in [
            ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm_opt", ExecConfig::sm_opt(NPROCS)),
            ("mp", ExecConfig::mp(NPROCS)),
        ] {
            assert_modes_match(
                &spec,
                &cfg,
                backend,
                vec![
                    ("strict-serial", cfg.clone().serial().strict()),
                    ("strict-threads", cfg.clone().threads(4).strict()),
                ],
            );
        }
    }
}

/// Two representative applications at the reduced benchmark scale, so
/// the invariant is exercised on runs long enough for threads to
/// genuinely interleave (jacobi: regular stencil; grav: reductions).
#[test]
fn jacobi_and_grav_are_schedule_independent_at_bench_scale() {
    for spec in suite(Scale::Bench)
        .into_iter()
        .filter(|s| s.name == "jacobi" || s.name == "grav")
    {
        assert_deterministic(&spec, &ExecConfig::sm_unopt(NPROCS), "sm_unopt");
        assert_deterministic(&spec, &ExecConfig::sm_opt(NPROCS), "sm_opt");
    }
}

/// Three representative applications with the problem stretched by the
/// `suite_scaled` work factor 4 — large enough that the compute volume
/// gate is cleared, so the worker pool genuinely runs — pinned
/// byte-identical across serial/threads.
#[test]
fn scaled_suite_is_schedule_independent() {
    for spec in fgdsm_apps::suite_scaled(Scale::Test, 4)
        .into_iter()
        .filter(|s| matches!(s.name, "jacobi" | "pde" | "grav"))
    {
        for (backend, cfg) in [
            ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm_opt", ExecConfig::sm_opt(NPROCS)),
            ("mp", ExecConfig::mp(NPROCS)),
            ("chan", ExecConfig::chan(NPROCS)),
        ] {
            assert_deterministic(&spec, &cfg, backend);
        }
    }
}
