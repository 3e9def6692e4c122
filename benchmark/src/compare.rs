//! `fgbench compare <a.json> <b.json>`: two result files of the full
//! set, held against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the files cannot say whether the metric moved.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
pub struct Bounded {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Per-layer metrics that repeat bit for bit: any difference between
/// two files means the model changed, not the host speed. (`alloc.*`
/// is not here: it repeats on the in-process serial workloads but
/// wobbles by a few allocations where channel threads are involved.)
pub const EXACT: [&str; 15] = [
    "sim.time_s",
    "sim.compute_s",
    "sim.comm_s",
    "sim.msgs",
    "sim.bytes",
    "sim.read_misses",
    "sim.write_misses",
    "sim.blocks_pushed",
    "sim.ctl_calls",
    "plan.xfers",
    "plan.bytes",
    "wire.frames",
    "wire.payload_bytes",
    "hpf.loops",
    "hpf.transfers",
];

/// The set-up metric every `BENCHMARK.json` must have. Like the PR
/// driver, `compare` holds only its median against the bound, not its
/// spread: set-up is sampled five times a run, not for 15 s.
const SETUP: &str = "setup_s";

/// Verdict for one workload × metric from each side's per-round values.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if stats::spread(a) > bound || stats::spread(b) > bound {
        return Verdict::Unresolved;
    }
    verdict_of_medians(a, b, lower_is_better, bound)
}

fn verdict_of_medians(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::quartiles(a).1, stats::quartiles(b).1);
    let worse_by = if lower_is_better { mb - ma } else { ma - mb };
    if worse_by > bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Verdict for a count that repeats bit for bit: any difference, in
/// either direction, means the model changed.
pub fn verdict_exact(a: f64, b: f64) -> Verdict {
    if a.to_bits() == b.to_bits() {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

pub fn bounds_from(bench: &Json) -> Result<Vec<Bounded>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bounded {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn values_of(workload: &Json, metric: &str) -> Option<(Vec<f64>, String)> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let values: Vec<f64> = m
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let unit = m.get("unit")?.as_str()?.to_string();
    (!values.is_empty()).then_some((values, unit))
}

/// Every workload of `a` × every bounded metric, then every exact count.
/// A workload or metric missing from `b` is an error, not a skipped row.
pub fn compare(a: &Json, b: &Json, bounds: &[Bounded]) -> Result<Vec<Row>, String> {
    let wa = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let mut rows = Vec::new();
    for (name, in_a) in wa {
        let in_b = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("second file has no workload `{name}`"))?;
        for bd in bounds {
            let missing = |which| format!("{which} file: `{name}` has no `{}`", bd.name);
            let (va, unit) = values_of(in_a, &bd.name).ok_or_else(|| missing("first"))?;
            let (vb, _) = values_of(in_b, &bd.name).ok_or_else(|| missing("second"))?;
            rows.push(Row {
                workload: name.clone(),
                metric: bd.name.clone(),
                unit,
                a: stats::quartiles(&va).1,
                b: stats::quartiles(&vb).1,
                verdict: if bd.name == SETUP {
                    verdict_of_medians(&va, &vb, bd.lower_is_better, bd.bound)
                } else {
                    verdict(&va, &vb, bd.lower_is_better, bd.bound)
                },
            });
        }
        for exact in EXACT {
            let layer = |w: &Json| {
                let m = w.get("per_layer")?.get(exact)?;
                Some((
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            };
            let missing = |which| format!("{which} file: `{name}` has no `{exact}`");
            let (va, unit) = layer(in_a).ok_or_else(|| missing("first"))?;
            let (vb, _) = layer(in_b).ok_or_else(|| missing("second"))?;
            rows.push(Row {
                workload: name.clone(),
                metric: exact.to_string(),
                unit,
                a: va,
                b: vb,
                verdict: verdict_exact(va, vb),
            });
        }
    }
    Ok(rows)
}

/// Print every row, each ratio with its base; `true` when all are ok.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<20} {:<22} {:>14} {:>14}  {:<24} verdict",
        "workload", "metric", "a", "b", "b/a (base a)"
    );
    for r in rows {
        let ratio = if r.a != 0.0 {
            format!("{:.4} of {:.6} {}", r.b / r.a, r.a, r.unit)
        } else {
            format!("- of 0 {}", r.unit)
        };
        println!(
            "{:<20} {:<22} {:>14.6} {:>14.6}  {:<24} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.verdict.label()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    count(Verdict::Ok) == rows.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 100.5, 99.5, 100.2];

    fn scaled(v: &[f64], by: f64) -> Vec<f64> {
        v.iter().map(|x| x * by).collect()
    }

    #[test]
    fn inside_the_bound_is_ok_either_direction() {
        assert_eq!(
            verdict(&STEADY, &scaled(&STEADY, 1.08), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&STEADY, &scaled(&STEADY, 0.5), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&STEADY, &scaled(&STEADY, 0.95), false, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn outside_the_bound_is_regressed() {
        assert_eq!(
            verdict(&STEADY, &scaled(&STEADY, 1.12), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&STEADY, &scaled(&STEADY, 0.85), false, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(verdict(&noisy, &STEADY, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&STEADY, &noisy, true, 0.10), Verdict::Unresolved);
        // Even when the medians are far apart: noise this wide decides
        // nothing.
        assert_eq!(
            verdict(&STEADY, &scaled(&noisy, 2.0), true, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn an_exact_metric_drifting_by_one_unit_is_regressed() {
        assert_eq!(verdict_exact(31584.0, 31584.0), Verdict::Ok);
        assert_eq!(verdict_exact(31584.0, 31585.0), Verdict::Regressed);
        // Fewer is a model change too, not an improvement.
        assert_eq!(verdict_exact(31584.0, 31583.0), Verdict::Regressed);
    }

    fn file(wall: &[f64], msgs: f64) -> Json {
        file_of("exec_wall_ms", wall, msgs)
    }

    fn file_of(metric: &str, values: &[f64], msgs: f64) -> Json {
        let exact = EXACT
            .iter()
            .map(|&n| {
                let value = if n == "sim.msgs" { msgs } else { 7.0 };
                (
                    n,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str("count"))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    (
                        "end_to_end",
                        Json::obj([(
                            metric,
                            Json::obj([("unit", Json::str("ms")), ("values", Json::nums(values))]),
                        )]),
                    ),
                    ("per_layer", Json::obj(exact)),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_reads_files_and_bounds() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "exec_wall_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds_from(&bench).unwrap();
        let a = file(&STEADY, 10.0);
        let rows = compare(&a, &file(&scaled(&STEADY, 1.2), 11.0), &bounds).unwrap();
        assert_eq!(rows.len(), 1 + EXACT.len());
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        let msgs = rows.iter().find(|r| r.metric == "sim.msgs").unwrap();
        assert_eq!(msgs.verdict, Verdict::Regressed);
        assert!(rows
            .iter()
            .filter(|r| r.metric != "sim.msgs" && r.metric != "exec_wall_ms")
            .all(|r| r.verdict == Verdict::Ok));
        // The same tree twice: everything ok.
        assert!(compare(&a, &a, &bounds)
            .unwrap()
            .iter()
            .all(|r| r.verdict == Verdict::Ok));
        // A missing workload is an error, not a quiet pass.
        assert!(compare(&a, &Json::obj([("workloads", Json::Obj(vec![]))]), &bounds).is_err());
        assert!(bounds_from(&Json::parse(r#"{"end_to_end": [{"name": "x"}]}"#).unwrap()).is_err());
    }

    #[test]
    fn setup_is_held_to_its_median_only() {
        let noisy = [0.30, 0.50, 0.40, 0.32, 0.45];
        let bounds = |name: &str| {
            vec![Bounded {
                name: name.into(),
                lower_is_better: true,
                bound: 0.25,
            }]
        };
        let verdict_for = |name: &str, b: &[f64]| {
            let rows = compare(
                &file_of(name, &noisy, 1.0),
                &file_of(name, b, 1.0),
                &bounds(name),
            )
            .unwrap();
            rows[0].verdict
        };
        assert_eq!(verdict_for("exec_wall_ms", &noisy), Verdict::Unresolved);
        assert_eq!(verdict_for(SETUP, &noisy), Verdict::Ok);
        assert_eq!(verdict_for(SETUP, &scaled(&noisy, 1.3)), Verdict::Regressed);
    }
}
