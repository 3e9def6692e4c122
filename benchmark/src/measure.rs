//! The untraced pass: set-up, the closed timed loop, and the output
//! checks every execute goes through.

use crate::workloads::Workload;
use crate::Tally;
use fgdsm_hpf::{execute_reference, try_execute, ExecConfig, Program, ReferenceResult, RunResult};
use std::time::{Duration, Instant};

/// A workload ready to time: its program, the independent sequential
/// interpreter's answer, and the warm-up run every later run of the
/// same configuration must reproduce.
pub struct Prepared {
    pub prog: Program,
    pub cfg: ExecConfig,
    pub reference: ReferenceResult,
    /// Canonical `report.to_json()` of the warm-up: the virtual-time
    /// state, which host speed must never move.
    pub canonical: String,
}

/// Why an execute counts as failed.
pub fn check_against_reference(
    prog: &Program,
    reference: &ReferenceResult,
    run: &RunResult,
) -> Result<(), String> {
    for (i, decl) in prog.arrays.iter().enumerate() {
        // Compared in place: `array()` would copy tens of megabytes per
        // check and show up in `peak_rss_mb`.
        let (want, got) = (reference.metas[i].base, run.metas[i].base);
        let want = &reference.data[want..want + decl.len()];
        let got = &run.data[got..got + decl.len()];
        if let Some(at) = (0..want.len()).find(|&k| want[k].to_bits() != got[k].to_bits()) {
            return Err(format!(
                "array `{}` differs from the reference at element {at}: {} vs {}",
                decl.name, got[at], want[at]
            ));
        }
    }
    if reference.scalars.len() != run.scalars.len() {
        return Err("scalar sets differ from the reference".into());
    }
    for (name, want) in &reference.scalars {
        match run.scalars.get(name) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            got => {
                return Err(format!(
                    "scalar `{name}` differs from the reference: {got:?} vs {want}"
                ))
            }
        }
    }
    Ok(())
}

impl Prepared {
    /// One checked execute: `Err` is a failed operation.
    pub fn checked(&self, run: Result<RunResult, String>) -> Result<RunResult, String> {
        let run = run?;
        check_against_reference(&self.prog, &self.reference, &run)?;
        if run.report.to_json() != self.canonical {
            return Err("canonical report differs from the warm-up's".into());
        }
        Ok(run)
    }
}

/// Set-up as a user pays it before the first timed execute: build the
/// program, run the reference interpreter, one checked warm-up execute.
/// A failed warm-up is fatal — there is nothing to compare later runs
/// against.
pub fn setup(w: &Workload) -> Result<(Prepared, Duration), String> {
    let t0 = Instant::now();
    let prog = w.program();
    let cfg = w.config();
    let reference = execute_reference(&prog, &cfg);
    let warmup = try_execute(&prog, &cfg).map_err(|e| format!("warm-up: {e}"))?;
    check_against_reference(&prog, &reference, &warmup).map_err(|e| format!("warm-up: {e}"))?;
    let canonical = warmup.report.to_json();
    drop(warmup);
    let took = t0.elapsed();
    Ok((
        Prepared {
            prog,
            cfg,
            reference,
            canonical,
        },
        took,
    ))
}

/// How long the loop runs: until `seconds` have passed and at least
/// `min_samples` executes were attempted, or exactly `min_samples` when
/// `seconds` is zero (quick mode).
pub struct Budget {
    pub seconds: f64,
    pub min_samples: u64,
}

/// Consecutive failures from the start after which the loop gives up:
/// a backend that cannot run at all (sockets forbidden) fails fast
/// instead of spinning for the whole budget.
const GIVE_UP_AFTER: u64 = 3;

/// Closed loop, one client: the next `try_execute` starts when the
/// previous one has returned and been checked. Only the `try_execute`
/// call is inside the timed region; a failed run contributes no sample.
/// Returns the wall-clock of each successful execute, ms, in run order.
pub fn timed_loop(p: &Prepared, budget: &Budget, tally: &mut Tally) -> Vec<f64> {
    let mut samples_ms = Vec::new();
    let start = Instant::now();
    let mut attempted = 0;
    loop {
        let t0 = Instant::now();
        let run = try_execute(&p.prog, &p.cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        attempted += 1;
        match p.checked(run.map_err(|e| e.to_string())) {
            Ok(_) => {
                tally.ok();
                samples_ms.push(ms);
            }
            Err(e) => tally.fail(e),
        }
        let out_of_time = start.elapsed().as_secs_f64() >= budget.seconds;
        if (out_of_time && attempted >= budget.min_samples)
            || (samples_ms.is_empty() && attempted >= GIVE_UP_AFTER)
        {
            return samples_ms;
        }
    }
}

/// `VmHWM` of this process in MiB: the resident-set high-water mark.
/// Child processes (`fgdsm-node`) are not in it.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
