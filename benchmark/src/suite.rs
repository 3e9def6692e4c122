//! `fgbench all`: the full set. Each (round, workload) is one child
//! process of this binary in the driver-contract form, so a workload
//! starts cold every round and machine drift during a set lands on all
//! workloads alike. One traced child per workload follows the rounds.

use crate::json::Json;
use crate::layers::Rng;
use crate::stats;
use crate::workloads::WORKLOADS;
use std::process::{Command, Stdio};

pub struct Plan {
    pub rounds: usize,
    pub seconds: f64,
    pub seed: u64,
    pub quick: bool,
    /// Where the result file goes; `None` prints only.
    pub out: Option<String>,
}

/// Largest `ladder.top_vs_e2e_pct`, either sign, at which the ladder
/// still counts as a decomposition of `exec_wall_ms`.
const LADDER_TOLERANCE_PCT: f64 = 10.0;

/// The result object of one child run.
fn child(name: &str, seed: u64, plan: &Plan, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plan.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name}: child printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{name}: result line: {e}"))
}

/// Fisher–Yates over workload indices, from the seeded stream.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn count(result: &Json, key: &str) -> Result<u64, String> {
    result
        .get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or(format!("result line has no `{key}`"))
}

fn metrics_of(result: &Json) -> Result<&[(String, Json)], String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no `metrics`".into())
}

fn value_unit<'a>(workload: &str, metric: &str, v: &'a Json) -> Result<(f64, &'a str), String> {
    let value = v.get("value").and_then(Json::as_f64);
    let unit = v.get("unit").and_then(Json::as_str);
    value
        .zip(unit)
        .ok_or(format!("{workload}: malformed metric `{metric}`"))
}

fn host() -> Json {
    let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    let git = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Json::obj([
        (
            "cpus_allowed",
            Json::Arr(
                crate::pin::allowed()
                    .unwrap_or_default()
                    .into_iter()
                    .map(|c| Json::Num(c as f64))
                    .collect(),
            ),
        ),
        (
            "kernel",
            Json::str(read("/proc/sys/kernel/osrelease").unwrap_or_else(|_| "unknown".into())),
        ),
        ("git", Json::str(git.unwrap_or_else(|| "unknown".into()))),
    ])
}

/// Per workload: each end-to-end metric's per-round values, in metric
/// order of the first round.
struct Rounds {
    metrics: Vec<(String, String, Vec<f64>)>,
    attempted: u64,
    failed: u64,
}

pub fn run(plan: &Plan) -> Result<bool, String> {
    if plan.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let host = host();
    println!(
        "fgbench all — {} round(s) x {} s, seed {}{} — host {host}",
        plan.rounds,
        plan.seconds,
        plan.seed,
        if plan.quick { ", quick" } else { "" }
    );
    for w in &WORKLOADS {
        let note = if w.gated {
            ""
        } else {
            " [not in BENCHMARK.json]"
        };
        println!("{:<20} {}{note}", w.name, w.why);
    }
    let mut rounds: Vec<Rounds> = WORKLOADS
        .iter()
        .map(|_| Rounds {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        })
        .collect();
    for round in 0..plan.rounds {
        let seed = plan.seed + round as u64;
        for i in shuffled(WORKLOADS.len(), &mut Rng(seed)) {
            let name = WORKLOADS[i].name;
            eprintln!("fgbench all: round {} — {name}", round + 1);
            let result = child(name, seed, plan, false)?;
            let r = &mut rounds[i];
            r.attempted += count(&result, "attempted")?;
            r.failed += count(&result, "failed")?;
            for (metric, v) in metrics_of(&result)? {
                let (value, unit) = value_unit(name, metric, v)?;
                match r.metrics.iter_mut().find(|(m, _, _)| m == metric) {
                    Some((_, _, values)) => values.push(value),
                    None => r.metrics.push((metric.clone(), unit.into(), vec![value])),
                }
            }
        }
    }

    let mut all_ok = true;
    let mut file = Vec::new();
    println!("\n== end to end (median over rounds [q1 .. q3], spread = (q3-q1)/median) ==");
    for (w, r) in WORKLOADS.iter().zip(&mut rounds) {
        for (metric, unit, values) in &r.metrics {
            let (q1, q2, q3) = stats::quartiles(values);
            println!(
                "{:<20} {:<18} {:>12.4} {:<4} [{:.4} .. {:.4}] spread {:.2}% n={}",
                w.name,
                metric,
                q2,
                unit,
                q1,
                q3,
                100.0 * stats::spread(values),
                values.len()
            );
        }
    }
    println!("\n== per layer (one traced pass per workload) ==");
    for (w, r) in WORKLOADS.iter().zip(&mut rounds) {
        eprintln!("fgbench all: traced — {}", w.name);
        let result = child(w.name, plan.seed, plan, true)?;
        r.attempted += count(&result, "attempted")?;
        r.failed += count(&result, "failed")?;
        let layers = metrics_of(&result)?;
        for (metric, v) in layers {
            let (value, unit) = value_unit(w.name, metric, v)?;
            println!("{:<20} {:<30} {:>16.4} {unit}", w.name, metric, value);
            if metric == "ladder.top_vs_e2e_pct"
                && !plan.quick
                && value.abs() > LADDER_TOLERANCE_PCT
            {
                println!(
                    "{:<20} ladder.top_vs_e2e_pct beyond {LADDER_TOLERANCE_PCT}%: the ladder \
                     does not decompose exec_wall_ms here",
                    w.name
                );
                all_ok = false;
            }
        }
        file.push((
            w.name,
            Json::obj([
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                (
                    "end_to_end",
                    Json::Obj(
                        r.metrics
                            .iter()
                            .map(|(m, unit, values)| {
                                (
                                    m.clone(),
                                    Json::obj([
                                        ("unit", Json::str(unit.as_str())),
                                        ("values", Json::nums(values)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
                ("per_layer", Json::Obj(layers.to_vec())),
            ]),
        ));
    }
    println!("\n== failures (failed = Err, output differs from the reference, or canonical report differs) ==");
    for (w, r) in WORKLOADS.iter().zip(&rounds) {
        println!(
            "{:<20} failed_share {:.6} ({} failed of {} attempted)",
            w.name,
            r.failed as f64 / r.attempted as f64,
            r.failed,
            r.attempted
        );
        all_ok &= r.failed == 0;
    }
    if let Some(path) = &plan.out {
        let doc = Json::obj([
            ("host", host),
            ("rounds", Json::Num(plan.rounds as f64)),
            ("seconds", Json::Num(plan.seconds)),
            ("seed", Json::Num(plan.seed as f64)),
            ("quick", Json::Bool(plan.quick)),
            ("workloads", Json::obj(file)),
        ]);
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_order_is_a_seeded_permutation() {
        let a = shuffled(6, &mut Rng(1));
        assert_eq!(a, shuffled(6, &mut Rng(1)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4, 5]);
        assert!((2..20).any(|s| shuffled(6, &mut Rng(s)) != a));
    }
}
