//! `fgbench`: host-time benchmark for fgdsm.
//!
//! ```text
//! fgbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! fgbench all [--rounds <n>] [--seconds <s>] [--seed <n>] [--quick] [--out <file>]
//! fgbench compare <a.json> <b.json> [--bench <BENCHMARK.json>]
//! ```
//!
//! The first form is the driver contract of `BENCHMARK.json`: one
//! workload, one process, one JSON object as the last line of standard
//! output. `all` runs that form as child processes, in rounds
//! interleaved across the workloads, and prints every metric by name.
//! Start it through `benchmark/run.sh`, which builds `fgdsm-node` and
//! passes its path in `FGDSM_NODE_BIN`. See `benchmark/README.md`.

mod alloc;
mod compare;
mod json;
mod layers;
mod measure;
mod pin;
mod stats;
mod suite;
mod workloads;

use json::Json;
use layers::Effort;
use measure::Budget;
use std::ffi::OsString;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The one variable the program's libraries may still read: where the
/// `tcp` backend finds its worker binary.
const NODE_BIN: &str = "FGDSM_NODE_BIN";

/// Names of the variables to remove so that no `FGDSM_*` knob of the
/// caller's shell reaches the program: every mode is set on
/// `ExecConfig` instead.
fn fgdsm_knobs(vars: impl Iterator<Item = (OsString, OsString)>) -> Vec<OsString> {
    vars.map(|(k, _)| k)
        .filter(|k| {
            let k = k.to_string_lossy();
            k.starts_with("FGDSM_") && k != NODE_BIN
        })
        .collect()
}

/// Executes attempted and failed, over both passes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("fgbench: FAILED execute: {why}");
    }
}

/// The CPU sets workloads are pinned to.
pub struct Pins {
    allowed: Vec<usize>,
}

impl Pins {
    fn detect() -> Pins {
        let allowed = pin::allowed().unwrap_or_else(|e| {
            eprintln!("fgbench: WARNING: {e}; wall-clock numbers are unpinned");
            Vec::new()
        });
        eprintln!("fgbench: allowed CPUs {allowed:?}");
        Pins { allowed }
    }

    /// Pin this thread, and all it starts, to `n` CPUs. A host that
    /// refuses is reported, loudly, and measured unpinned: the driver
    /// contract has no way to print a metric as unresolved.
    pub fn apply(&self, n: usize) {
        let cpus = pin::pick(&self.allowed, n);
        if cpus.len() < n {
            eprintln!(
                "fgbench: WARNING: wanted {n} CPUs, have {:?}; wall-clock numbers are not \
                 comparable with a host that has them",
                self.allowed
            );
        }
        if cpus.is_empty() {
            return;
        }
        if let Err(e) = pin::pin_to(&cpus) {
            eprintln!("fgbench: WARNING: {e}; wall-clock numbers are unpinned");
        }
    }
}

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

/// Length of the timed loop of a run that stands alone, unless
/// `--seconds` says otherwise; the `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 26.0;
/// Length of one round's timed loop in the full set, whose interleaved
/// rounds spread a slow spell of the host over all workloads.
const ROUND_SECONDS: f64 = 15.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest executes a timed loop attempts, however short `--seconds`.
const MIN_SAMPLES: u64 = 5;
/// Samples of a quick run, which ignores the clock.
const QUICK_SAMPLES: u64 = 3;

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// One workload, one process: the driver contract.
fn run_workload(a: &RunArgs) -> Result<Json, String> {
    let w = a.workload;
    let pins = Pins::detect();
    pins.apply(w.rung.cpus());
    let mut tally = Tally::default();
    let budget = if a.quick {
        Budget {
            seconds: 0.0,
            min_samples: QUICK_SAMPLES,
        }
    } else {
        Budget {
            seconds: a.seconds,
            min_samples: MIN_SAMPLES,
        }
    };

    let mut metrics: Vec<(String, Json)> = Vec::new();
    if !a.trace {
        let mut setup_s = Vec::new();
        let mut prepared = None;
        for _ in 0..if a.quick { 1 } else { SETUPS } {
            // The previous set-up's data is released first, as a fresh
            // process would not hold it.
            drop(prepared.take());
            let (p, took) = measure::setup(w)?;
            tally.ok();
            setup_s.push(took.as_secs_f64());
            prepared = Some(p);
        }
        let prepared = prepared.expect("at least one set-up");
        let samples_ms = measure::timed_loop(&prepared, &budget, &mut tally);
        if samples_ms.is_empty() {
            return Err("no execute succeeded; nothing to report".into());
        }
        eprintln!(
            "fgbench: {} — {} samples in the timed loop, ms: {}",
            w.name,
            samples_ms.len(),
            samples_ms
                .iter()
                .map(|ms| format!("{ms:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let samples_ms = stats::sorted(&samples_ms);
        metrics.push((
            "exec_wall_ms".into(),
            metric(stats::percentile(&samples_ms, 50.0), "ms"),
        ));
        metrics.push(("setup_s".into(), metric(stats::median(&setup_s), "s")));
        metrics.push(("peak_rss_mb".into(), metric(measure::peak_rss_mb()?, "MiB")));
    } else {
        let (prepared, _) = measure::setup(w)?;
        tally.ok();
        let effort = if a.quick { Effort::QUICK } else { Effort::FULL };
        for m in layers::traced(w, &prepared, &effort, a.seed, &pins, &mut tally)? {
            metrics.push((m.name.into(), metric(m.value, m.unit)));
        }
    }
    Ok(Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

const USAGE: &str = "usage:
  fgbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  fgbench all [--rounds <n>] [--seconds <s>] [--seed <n>] [--quick] [--out <file>]
  fgbench compare <a.json> <b.json> [--bench <BENCHMARK.json>]";

/// `--flag value` pairs and bare words, in order.
struct Cli {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["--quick"];

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args;
        while let Some(arg) = args.next() {
            if SWITCHES.contains(&arg.as_str()) {
                cli.flags.push((arg, String::new()));
            } else if arg.starts_with("--") {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                cli.flags.push((arg, value));
            } else {
                cli.words.push(arg);
            }
        }
        Ok(cli)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read `{v}`")),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option {f}")),
            None => Ok(()),
        }
    }
}

fn seconds_of(cli: &Cli) -> Result<Option<f64>, String> {
    match cli.value::<f64>("--seconds")? {
        Some(s) if !(s > 0.0 && s <= 600.0) => Err("--seconds must be in (0, 600]".into()),
        other => Ok(other),
    }
}

fn real_main() -> Result<bool, String> {
    for k in fgdsm_knobs(std::env::vars_os()) {
        std::env::remove_var(k);
    }
    let cli = Cli::parse(std::env::args().skip(1))?;
    match cli.words.first().map(String::as_str) {
        Some("compare") => {
            cli.only(&["--bench"])?;
            let [_, a, b] = cli.words.as_slice() else {
                return Err(USAGE.into());
            };
            let bench = cli
                .value::<String>("--bench")?
                .unwrap_or_else(|| "BENCHMARK.json".into());
            let read = |path: &str| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let bounds = compare::bounds_from(&read(&bench)?)?;
            let rows = compare::compare(&read(a)?, &read(b)?, &bounds)?;
            Ok(compare::print(&rows))
        }
        Some("all") if cli.words.len() == 1 => {
            cli.only(&["--rounds", "--seconds", "--seed", "--quick", "--out"])?;
            need_node_bin()?;
            let quick = cli.has("--quick");
            suite::run(&suite::Plan {
                rounds: cli.value("--rounds")?.unwrap_or(if quick { 1 } else { 5 }),
                seconds: seconds_of(&cli)?.unwrap_or(ROUND_SECONDS),
                seed: cli.value("--seed")?.unwrap_or(1),
                quick,
                out: cli.value("--out")?,
            })
        }
        None => {
            cli.only(&["--workload", "--seed", "--seconds", "--trace", "--quick"])?;
            let name: String = cli.value("--workload")?.ok_or(USAGE)?;
            let workload = workloads::find(&name).ok_or_else(|| {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; have {names:?}")
            })?;
            let trace = match cli.value::<u8>("--trace")? {
                None | Some(0) => false,
                Some(1) => true,
                Some(_) => return Err("--trace takes 0 or 1".into()),
            };
            need_node_bin()?;
            let result = run_workload(&RunArgs {
                workload,
                seed: cli.value("--seed")?.unwrap_or(1),
                seconds: seconds_of(&cli)?.unwrap_or(RUN_SECONDS),
                trace,
                quick: cli.has("--quick"),
            })?;
            println!("{result}");
            Ok(true)
        }
        Some(_) => Err(USAGE.into()),
    }
}

/// The `tcp` rungs spawn `fgdsm-node`; without an explicit path the
/// library would fall back to `cargo run`, which is not what anyone
/// wants timed.
fn need_node_bin() -> Result<(), String> {
    match std::env::var_os(NODE_BIN) {
        Some(p) if std::path::Path::new(&p).is_file() => Ok(()),
        Some(p) => Err(format!("{NODE_BIN}={p:?} is not a file")),
        None => Err(format!(
            "{NODE_BIN} is not set; start fgbench through benchmark/run.sh"
        )),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("fgbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbing_leaves_no_fgdsm_knob_but_the_node_binary() {
        let env = [
            ("PATH", "/usr/bin"),
            ("FGDSM_PAR", "4"),
            ("FGDSM_WIRE", "strict"),
            ("FGDSM_NODE_BIN", "/x/fgdsm-node"),
            ("FGDSM_METRICS", "1"),
            ("FGDSM_NODE_BINARY", "decoy"),
            ("NOT_FGDSM_PAR", "1"),
            ("CARGO_TARGET_DIR", ".bench_build"),
        ];
        let vars = || {
            env.iter()
                .map(|(k, v)| (OsString::from(k), OsString::from(v)))
        };
        let removed = fgdsm_knobs(vars());
        let left: Vec<String> = vars()
            .map(|(k, _)| k)
            .filter(|k| !removed.contains(k))
            .map(|k| k.to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            left,
            [
                "PATH",
                "FGDSM_NODE_BIN",
                "NOT_FGDSM_PAR",
                "CARGO_TARGET_DIR"
            ]
        );
        assert!(left
            .iter()
            .all(|k| !k.starts_with("FGDSM_") || k == NODE_BIN));
    }

    #[test]
    fn cli_reads_the_driver_contract_and_rejects_the_rest() {
        let parse = |s: &str| Cli::parse(s.split_whitespace().map(String::from));
        let cli = parse("--workload pde_tcp --seed 7 --seconds 10 --trace 1").unwrap();
        assert!(cli.words.is_empty());
        assert_eq!(
            cli.value::<String>("--workload").unwrap().unwrap(),
            "pde_tcp"
        );
        assert_eq!(cli.value::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(seconds_of(&cli).unwrap(), Some(10.0));
        assert!(!cli.has("--quick"));
        assert!(cli
            .only(&["--workload", "--seed", "--seconds", "--trace"])
            .is_ok());
        assert!(cli.only(&["--workload"]).is_err());
        let cli = parse("all --quick --rounds 2").unwrap();
        assert_eq!(cli.words, ["all"]);
        assert!(cli.has("--quick"));
        assert_eq!(cli.value::<usize>("--rounds").unwrap(), Some(2));
        assert!(parse("--seed").is_err());
        assert!(parse("--seed x").unwrap().value::<u64>("--seed").is_err());
        assert!(seconds_of(&parse("--seconds 0").unwrap()).is_err());
        assert!(seconds_of(&parse("--seconds nan").unwrap()).is_err());
    }
}
