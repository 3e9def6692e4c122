//! Wall-clock telemetry guards.
//!
//! Two properties pin the metrics layer:
//!
//! * **Byte-identity**: telemetry is a pure side channel. Every canonical
//!   artifact — report JSON, structured trace, profile JSON, Chrome
//!   trace, gathered data, scalars — must be byte-identical with metrics
//!   on vs off, across the serial, threaded, `chan`, and (when the
//!   sandbox allows sockets) `tcp` configurations.
//! * **Liveness + conservation**: a metered carrier run (`chan` always,
//!   `tcp` where sockets are allowed) must actually populate per-class
//!   histograms on both sides of the link, bring the workers' tables
//!   home under node-tagged keys, conserve the wire's payload accounting on
//!   both sides, and splice into a merged Perfetto trace that the bench
//!   JSON parser accepts.

use fgdsm_apps::{jacobi, suite, Scale};
use fgdsm_bench::{json, NPROCS};
use fgdsm_hpf::{execute_profiled, tcp_available, ExecConfig};
use fgdsm_tempest::metrics::class_name;
use fgdsm_tempest::{Metric, MetricsRegistry, Stage};

/// Canonical artifacts are byte-identical with telemetry on vs off.
#[test]
fn metrics_on_vs_off_canonical_artifacts_are_byte_identical() {
    let prog = jacobi::build(&jacobi::Params::at(Scale::Test));
    let mut configs: Vec<(&str, ExecConfig)> = vec![
        ("sm_opt/serial", ExecConfig::sm_opt(NPROCS).serial()),
        ("sm_opt/threads", ExecConfig::sm_opt(NPROCS).threads(3)),
        ("sm_opt/strict", ExecConfig::sm_opt(NPROCS).strict()),
        ("chan", ExecConfig::chan(NPROCS)),
    ];
    if tcp_available() {
        configs.push(("tcp", ExecConfig::tcp(NPROCS)));
    } else {
        eprintln!("notice: sandbox forbids sockets; byte-identity guard skips the tcp config");
    }
    for (name, cfg) in configs {
        let (off, off_trace, off_chrome) = execute_profiled(&prog, &cfg.clone().unmetered());
        let (on, on_trace, on_chrome) = execute_profiled(&prog, &cfg.clone().metered());
        assert_eq!(
            off.report.to_json(),
            on.report.to_json(),
            "{name}: metered report diverged"
        );
        assert_eq!(off_trace, on_trace, "{name}: metered trace diverged");
        assert_eq!(off_chrome, on_chrome, "{name}: metered chrome diverged");
        assert_eq!(
            off.report.profile_json(),
            on.report.profile_json(),
            "{name}: metered profile diverged"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&off.data), bits(&on.data), "{name}: data diverged");
        assert_eq!(off.scalars, on.scalars, "{name}: scalars diverged");
        assert!(
            off.metrics().is_none(),
            "{name}: unmetered run must carry no registry"
        );
        assert!(
            off.wire_spans.is_empty(),
            "{name}: unmetered run must record no wire spans"
        );
        // On the wire configurations the metered run must have recorded
        // something; the fast path has no wire seam to observe.
        if off.wire_frames > 0 {
            let reg = on
                .metrics()
                .unwrap_or_else(|| panic!("{name}: metered wire run must carry a registry"));
            assert!(
                reg.iter().next().is_some(),
                "{name}: metered registry is empty"
            );
            // Route time is booked once per batch, not once per frame:
            // the per-class histograms add up to the measured total.
            let booked: u64 = (0u8..=5)
                .map(|kind| reg.coord().hist(Stage::Route, kind).sum())
                .sum();
            assert_eq!(
                booked,
                on.wire_route_ns(),
                "{name}: the coordinator's route histograms must sum to wire_route_ns"
            );
            assert!(
                on.check_metrics_conservation().is_ok(),
                "{name}: {:?}",
                on.check_metrics_conservation()
            );
        }
    }
}

/// A metered carrier run of the whole suite: per-class histograms on
/// both sides, node-tagged worker keys, conservation, and a valid merged
/// Perfetto document.
#[test]
fn carrier_telemetry_populates_both_sides_and_merges_cleanly() {
    carrier_telemetry("chan", ExecConfig::chan(NPROCS));
    if tcp_available() {
        carrier_telemetry("tcp", ExecConfig::tcp(NPROCS));
    } else {
        eprintln!("notice: sandbox forbids sockets; carrier telemetry checked on chan only");
    }
}

/// What fgbench reads: `iter()` yields `(key, metric)` strictly
/// ascending by key, one key per non-zero counter and non-empty
/// histogram on either side and nothing else, so its `wire.*` /
/// `node.*` sums over `<who>.<stage>.<class>` keys are the typed sums.
fn iterated_keys_are_the_recorded_ones(name: &str, reg: &MetricsRegistry) {
    let got: Vec<_> = reg.iter().collect();
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "{name}: keys must be strictly ascending"
    );
    let tables = std::iter::once(("coord".to_string(), reg.coord()))
        .chain(reg.nodes().map(|(n, t)| (format!("node{n}"), t)));
    let mut want: Vec<(String, u64)> = Vec::new();
    for (tag, t) in tables {
        for kind in 0u8..=5 {
            let class = class_name(kind);
            want.push((format!("{tag}.frames.{class}"), t.frames(kind)));
            want.push((
                format!("{tag}.payload_bytes.{class}"),
                t.payload_bytes(kind),
            ));
            for stage in Stage::ALL {
                let key = format!("{tag}.{}.{class}", stage.name());
                want.push((key, t.hist(stage, kind).count()));
            }
        }
    }
    want.retain(|&(_, v)| v != 0);
    want.sort();
    let seen: Vec<(String, u64)> = got
        .iter()
        .map(|(k, m)| match m {
            Metric::Counter(v) => (k.clone(), *v),
            Metric::Hist(h) => (k.clone(), h.count()),
        })
        .collect();
    assert_eq!(
        seen, want,
        "{name}: iter() must yield exactly the recorded keys"
    );
    for prefix in ["coord.", "node"] {
        assert!(
            got.iter().any(|(k, _)| k.starts_with(prefix)),
            "{name}: no {prefix}* keys"
        );
    }
    for (on_node, stage) in [(false, Stage::Route), (true, Stage::Apply)] {
        let by_key: u64 = got
            .iter()
            .filter_map(|(key, metric)| {
                let mut parts = key.splitn(3, '.');
                let (who, st) = (parts.next()?, parts.next()?);
                if who.starts_with("node") != on_node || st != stage.name() {
                    return None;
                }
                metric.as_hist().map(|h| h.sum())
            })
            .sum();
        let typed: u64 = if on_node {
            reg.nodes()
                .flat_map(|(_, t)| (0u8..=5).map(move |k| t.hist(stage, k).sum()))
                .sum()
        } else {
            (0u8..=5).map(|k| reg.coord().hist(stage, k).sum()).sum()
        };
        assert_eq!(by_key, typed, "{name}: {} summed by key", stage.name());
    }
}

fn carrier_telemetry(carrier: &str, cfg: ExecConfig) {
    for spec in suite(Scale::Test) {
        let name = format!("{carrier}/{}", spec.name);
        let (run, _trace, chrome) = execute_profiled(&spec.program, &cfg.clone().metered());
        let reg = run.metrics().expect("metered carrier run has a registry");

        // Coordinator side: for every exercised class the full pipeline
        // is histogrammed, one route sample per frame.
        let coord = reg.coord();
        let mut exercised = 0u64;
        for kind in 0u8..=4 {
            let class = class_name(kind);
            let frames = coord.frames(kind);
            if frames == 0 {
                continue;
            }
            exercised += frames;
            for stage in [Stage::Encode, Stage::Route, Stage::Decode] {
                assert_eq!(
                    coord.hist(stage, kind).count(),
                    frames,
                    "{}: coord.{}.{class} must sample every frame",
                    name,
                    stage.name()
                );
            }
        }
        assert_eq!(
            exercised, run.wire_frames,
            "{}: per-class frame counters must cover every routed frame",
            name
        );

        // Worker side: the nodes shipped their tables home, and in each
        // node's table every stage of the worker loop sampled every frame
        // that node served — which together are every frame the
        // coordinator routed.
        let mut served = 0u64;
        for (node, table) in reg.nodes() {
            for kind in 0u8..=4 {
                let frames = table.frames(kind);
                served += frames;
                for stage in [Stage::Recv, Stage::Apply, Stage::Reencode] {
                    assert_eq!(
                        table.hist(stage, kind).count(),
                        frames,
                        "{}: node{node}.{}.{} must sample every served frame",
                        name,
                        stage.name(),
                        class_name(kind)
                    );
                }
            }
        }
        assert_eq!(
            served, run.wire_frames,
            "{}: the workers' per-class frame counters must cover every routed frame",
            name
        );

        run.check_metrics_conservation()
            .unwrap_or_else(|e| panic!("{}: {e}", name));
        iterated_keys_are_the_recorded_ones(&name, reg);

        // Merged Perfetto document: parses, keeps the virtual-clock
        // coordinator events on pid 0, adds worker pid tracks with
        // wall-clock socket-batch spans and process_name metadata.
        assert!(
            !run.wire_spans.is_empty(),
            "{}: metered carrier run recorded no batch spans",
            name
        );
        let merged = run.merged_chrome(&chrome);
        let v = json::parse(&merged)
            .unwrap_or_else(|e| panic!("{}: merged chrome is not JSON: {e}", name));
        let events = v.as_arr().expect("merged chrome is an array");
        let pid = |ev: &json::Value| ev.get("pid").and_then(|p| p.as_u64()).unwrap();
        let ph = |ev: &json::Value| ev.get("ph").and_then(|p| p.as_str()).unwrap().to_string();
        assert!(
            events.iter().any(|e| pid(e) == 0),
            "{}: merged trace lost the coordinator track",
            name
        );
        assert!(
            events.iter().any(|e| pid(e) >= 1 && ph(e) == "X"),
            "{}: merged trace has no worker wall-clock spans",
            name
        );
        let labels = events.iter().filter(|e| ph(e) == "M").count();
        assert!(
            labels >= 2,
            "{}: merged trace must label the coordinator and at least one worker, got {labels}",
            name
        );
    }
}
