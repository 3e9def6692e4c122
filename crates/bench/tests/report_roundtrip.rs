//! `ClusterReport::to_json` → bench JSON parser round trip.
//!
//! The canonical report JSON is hand-rolled (no serde); this pins its
//! shape against the equally hand-rolled parser consumers use: parsing
//! the encoding back must reproduce every per-node counter field exactly,
//! on a real multi-backend application run. A field added to
//! `NodeStats`' `with_stat_fields!` list shows up here automatically via
//! `for_each_field`.

use fgdsm_apps::{jacobi, Scale};
use fgdsm_bench::json;
use fgdsm_hpf::{execute, ExecConfig};

const NPROCS: usize = 4;

#[test]
fn report_json_roundtrips_every_counter() {
    let prog = jacobi::build(&jacobi::Params::at(Scale::Test));
    for (name, cfg) in [
        ("sm-unopt", ExecConfig::sm_unopt(NPROCS)),
        ("sm-opt", ExecConfig::sm_opt(NPROCS)),
        ("mp", ExecConfig::mp(NPROCS)),
    ] {
        let report = &execute(&prog, &cfg).report;
        let v = json::parse(&report.to_json())
            .unwrap_or_else(|e| panic!("{name}: report JSON does not parse: {e}"));
        assert_eq!(
            v.get("makespan_ns").and_then(|m| m.as_u64()),
            Some(report.makespan_ns),
            "{name}: makespan_ns did not round-trip"
        );
        let nodes = v
            .get("nodes")
            .and_then(|n| n.as_arr())
            .unwrap_or_else(|| panic!("{name}: report JSON has no nodes array"));
        assert_eq!(nodes.len(), report.nodes.len(), "{name}: node count");
        for (i, (node, stats)) in nodes.iter().zip(&report.nodes).enumerate() {
            stats.for_each_field(|field, want| {
                let got = node.get(field).and_then(|f| f.as_u64());
                assert_eq!(
                    got,
                    Some(want),
                    "{name}: node {i} field {field} did not round-trip"
                );
            });
        }
    }
}

/// The profile JSON (intervals / false-sharing / heatmaps) parses with
/// the same consumer parser and its interval node lists carry the full
/// stats encoding.
#[test]
fn profile_json_parses_and_intervals_carry_node_stats() {
    let prog = jacobi::build(&jacobi::Params::at(Scale::Test));
    let report = &execute(&prog, &ExecConfig::sm_opt(NPROCS)).report;
    let v = json::parse(&report.profile_json()).expect("profile JSON parses");
    let intervals = v
        .get("intervals")
        .and_then(|i| i.as_arr())
        .expect("profile JSON has intervals");
    assert_eq!(intervals.len(), report.intervals.len());
    for (iv, want) in intervals.iter().zip(&report.intervals) {
        assert_eq!(
            iv.get("step").and_then(|s| s.as_u64()),
            Some(want.step as u64)
        );
        let nodes = iv
            .get("nodes")
            .and_then(|n| n.as_arr())
            .expect("interval nodes");
        assert_eq!(nodes.len(), NPROCS);
        for (node, stats) in nodes.iter().zip(&want.nodes) {
            stats.for_each_field(|field, want| {
                assert_eq!(node.get(field).and_then(|f| f.as_u64()), Some(want));
            });
        }
    }
    let heatmaps = v
        .get("heatmaps")
        .and_then(|h| h.as_arr())
        .expect("profile JSON has heatmaps");
    assert_eq!(heatmaps.len(), NPROCS);
}
