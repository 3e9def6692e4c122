//! The cross-backend differential oracle.
//!
//! One fuzz case is checked by running its program through the
//! sequential reference interpreter and then through every backend ×
//! optimization-toggle × parallelism combination, comparing final array
//! contents and scalars **bitwise** against the reference. Within each
//! backend the serial run is additionally the determinism baseline:
//! every threaded run — the compute phase on a worker pool — must
//! reproduce its report, trace and profile JSON byte-for-byte.
//! The engine itself asserts the protocol consistency check and the
//! trace invariants (balanced message/byte counters, monotone per-node
//! clocks) after every run, so a violated invariant surfaces here as a
//! panic — which the oracle converts into a [`Divergence`] like any
//! wrong answer.

use crate::gen::FuzzSpec;
use fgdsm_hpf::{execute_profiled, execute_reference, ArrayId, ExecConfig, OptLevel};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One detected disagreement between a backend run and the reference.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which run diverged, e.g. `sm_opt[ctl+bulk+rtoe]/threads`.
    pub config: String,
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.config, self.detail)
    }
}

fn opt_label(o: &OptLevel) -> String {
    let mut s = String::from("ctl");
    if o.bulk {
        s.push_str("+bulk");
    }
    if o.rtoe {
        s.push_str("+rtoe");
    }
    if o.pre {
        s.push_str("+pre");
    }
    s
}

/// The `sm_opt` config label at the full optimization level — the
/// config the `chan` backend is pinned byte-identical to.
fn sm_opt_full_label() -> String {
    format!("sm_opt[{}]", opt_label(&OptLevel::full()))
}

/// The backend matrix for a spec: `sm_unopt`, `sm_opt` at every
/// [`OptLevel`] toggle combination, and `mp` — unless the spec performs
/// non-owner writes, which the owner-computes `mp` backend does not
/// model (it never flushes written data back to the distribution owner).
/// After the fast-path configs, the same corners re-run in strict wire
/// mode (every transfer round-trips through encoded [`fgdsm_hpf`] wire
/// envelopes over a loopback transport), and the `chan` backend closes
/// the matrix: channel workers carrying owned bytes, whose serial run
/// must additionally be byte-identical to `sm_opt[full]`'s.
pub fn backend_configs(spec: &FuzzSpec) -> Vec<(String, ExecConfig)> {
    let n = spec.nprocs;
    let mut v = vec![("sm_unopt".to_string(), ExecConfig::sm_unopt(n))];
    // (`sm_unopt` *is* the ctl-off level: one backend, `OptLevel::unopt`.)
    for o in OptLevel::all_combos().into_iter().filter(|o| o.ctl) {
        v.push((
            format!("sm_opt[{}]", opt_label(&o)),
            ExecConfig::sm_unopt(n).with_opt(o),
        ));
    }
    if !spec.has_nonowner_writes() {
        v.push(("mp".to_string(), ExecConfig::mp(n)));
    }
    v.push((
        "sm_unopt/wire-strict".to_string(),
        ExecConfig::sm_unopt(n).strict(),
    ));
    v.push((
        format!("{}/wire-strict", sm_opt_full_label()),
        ExecConfig::sm_unopt(n).with_opt(OptLevel::full()).strict(),
    ));
    if !spec.has_nonowner_writes() {
        v.push(("mp/wire-strict".to_string(), ExecConfig::mp(n).strict()));
    }
    v.push(("chan".to_string(), ExecConfig::chan(n)));
    v
}

/// Strict wire mode under every [`OptLevel`] toggle combination that
/// [`backend_configs`] runs only on the fast path (`sm_unopt` and `full`
/// are already strict there): the corpus replays its first [`crate::STRICT_SLICE`]
/// cases through these, so envelope routing is differentially tested at
/// every optimization level, not just the two corners.
pub fn strict_sweep_configs(spec: &FuzzSpec) -> Vec<(String, ExecConfig)> {
    OptLevel::all_combos()
        .into_iter()
        .filter(|&o| o.ctl && o != OptLevel::full())
        .map(|o| {
            (
                format!("sm_opt[{}]/wire-strict", opt_label(&o)),
                ExecConfig::sm_unopt(spec.nprocs).with_opt(o).strict(),
            )
        })
        .collect()
}

fn panic_msg(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| {
            // Transport failures unwind with a typed payload (see
            // `fgdsm_protocol::WireError`); render it so a divergence
            // report names the peer and failure kind.
            p.downcast_ref::<fgdsm_protocol::WireError>()
                .map(|e| e.to_string())
        })
        .unwrap_or_else(|| "non-string panic".into())
}

/// First byte position where two strings differ, with a short excerpt of
/// each side for the divergence report.
fn first_diff(a: &str, b: &str) -> String {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let snip = |s: &str| {
        let lo = at.saturating_sub(20);
        let hi = (at + 20).min(s.len());
        s.get(lo..hi).unwrap_or("<end>").to_string()
    };
    format!("first diff at byte {at}: `{}` vs `{}`", snip(a), snip(b))
}

/// One run's canonical artifacts: report, trace and profile JSON.
type Artifacts = [String; 3];

/// `Ok` when run `config`'s artifacts equal `want`'s byte for byte, else
/// the first differing artifact as a divergence "from `baseline`".
fn same_artifacts(
    config: String,
    got: &Artifacts,
    want: &Artifacts,
    baseline: &str,
) -> Result<(), Divergence> {
    for ((what, g), w) in ["report", "trace", "profile"].iter().zip(got).zip(want) {
        if g != w {
            let detail = format!("{what} diverges from {baseline} ({})", first_diff(w, g));
            return Err(Divergence { config, detail });
        }
    }
    Ok(())
}

/// Run the full differential matrix for one spec. `Ok(())` means every
/// run agreed with the reference bit-for-bit, every threaded run (the
/// compute phase on 2 and 4 workers) reproduced the serial run's report,
/// trace and profile byte-for-byte, and no run panicked.
pub fn check_spec(spec: &FuzzSpec) -> Result<(), Divergence> {
    check_matrix(spec, backend_configs(spec), &MODES)
}

/// [`check_spec`]'s checks over the [`strict_sweep_configs`] cells.
pub fn check_spec_strict(spec: &FuzzSpec) -> Result<(), Divergence> {
    check_matrix(spec, strict_sweep_configs(spec), &MODES)
}

/// Scheduling modes of one matrix cell, `(label, workers)`: the serial
/// run first — it is the determinism baseline of the others.
const MODES: [(&str, usize); 3] = [("serial", 1), ("threads2", 2), ("threads4", 4)];

fn check_matrix(
    spec: &FuzzSpec,
    configs: Vec<(String, ExecConfig)>,
    modes: &[(&str, usize)],
) -> Result<(), Divergence> {
    let prog = spec.build();
    let reference = execute_reference(&prog, &ExecConfig::sm_unopt(spec.nprocs));
    // `chan` and `tcp` are `sm_opt[full]` behind a transport, so beyond
    // agreeing with the reference they must reproduce that config's
    // serial artifacts byte for byte — the cross-backend pin that proves
    // the wire seam changes nothing observable.
    let mut smopt_full_serial: Option<Artifacts> = None;
    for (name, cfg) in configs {
        // The serial run's artifacts — the determinism baseline for this
        // backend's threaded runs (worker pools of size 2 and 4).
        let mut baseline: Option<Artifacts> = None;
        for &(mode, workers) in modes {
            // Telemetry is forced on: canonical artifacts are pinned
            // byte-identical metrics on/off elsewhere, so metering every
            // oracle run costs nothing observable — and it lets the
            // per-case conservation invariant below (and its
            // `undercount_metrics` must-catch) fire on every wire config.
            let cfg = match workers {
                1 => cfg.clone().serial(),
                w => cfg.clone().threads(w),
            }
            .metered()
            .with_inject(spec.inject);
            let label = format!("{name}/{mode}");
            let (r, trace, _chrome) =
                match catch_unwind(AssertUnwindSafe(|| execute_profiled(&prog, &cfg))) {
                    Err(p) => {
                        return Err(Divergence {
                            config: label,
                            detail: format!("panic: {}", panic_msg(&p)),
                        })
                    }
                    Ok(rt) => rt,
                };
            // Post-run profile invariants: per-superstep interval stats
            // sum exactly to the whole-run `NodeStats`, and heatmap
            // totals match the miss / pushed / bytes counters. The engine
            // asserts these too; checking here keeps a violation
            // attributable to the fuzz case even if that assert moves.
            if let Err(e) = r.report.check_profile_invariants() {
                return Err(Divergence {
                    config: label,
                    detail: format!("profile invariant violated: {e}"),
                });
            }
            // Telemetry double-entry: on a metered wire run, the
            // per-class `payload_bytes.*` counters across the coordinator
            // and worker registries must sum exactly to the wire's own
            // payload total. The only detector for a silently
            // undercounting telemetry path.
            if let Err(e) = r.check_metrics_conservation() {
                return Err(Divergence {
                    config: label,
                    detail: format!("metrics conservation violated: {e}"),
                });
            }
            for ai in 0..prog.arrays.len() {
                let want = reference.array(&prog, ArrayId(ai));
                let got = r.array(&prog, ArrayId(ai));
                if let Some(at) = (0..want.len()).find(|&k| want[k].to_bits() != got[k].to_bits()) {
                    return Err(Divergence {
                        config: label,
                        detail: format!(
                            "array `{}` diverges at flat index {at}: reference {} vs {}",
                            prog.arrays[ai].name, want[at], got[at]
                        ),
                    });
                }
            }
            for (k, want) in &reference.scalars {
                let got = r.scalars.get(k).copied();
                if got.map(f64::to_bits) != Some(want.to_bits()) {
                    return Err(Divergence {
                        config: label,
                        detail: format!("scalar `{k}` diverges: reference {want} vs {got:?}"),
                    });
                }
            }
            let artifacts = [r.report.to_json(), trace, r.report.profile_json()];
            match &baseline {
                None => baseline = Some(artifacts),
                Some(serial) => same_artifacts(label, &artifacts, serial, "serial run")?,
            }
        }
        let serial = baseline.expect("serial mode always runs");
        if name == sm_opt_full_label() {
            smopt_full_serial = Some(serial);
        } else if name == "chan" || name == "tcp" {
            let want = smopt_full_serial
                .as_ref()
                .expect("sm_opt[full] runs before the carriers in the matrix");
            same_artifacts(
                format!("{name}/serial"),
                &serial,
                want,
                "sm_opt[full]/serial",
            )?;
        }
    }
    Ok(())
}

/// Differential check of the socket-backed `tcp` backend for one spec:
/// a serial tcp run — every inter-node transfer framed over a real
/// socket to spawned `fgdsm-node` worker processes — must pass every
/// check of [`check_spec`] and reproduce `sm_opt[full]`'s serial report,
/// trace and profile artifacts byte for byte, exactly as `chan` does.
///
/// Kept out of [`backend_configs`], and serial only: one tcp run spawns a
/// whole process fleet, so the corpus replays a smaller slice through
/// this oracle. Callers must gate on [`fgdsm_hpf::tcp_available`] —
/// sandboxes may forbid sockets.
pub fn check_spec_tcp(spec: &FuzzSpec) -> Result<(), Divergence> {
    let configs = vec![
        (
            sm_opt_full_label(),
            ExecConfig::sm_unopt(spec.nprocs).with_opt(OptLevel::full()),
        ),
        ("tcp".to_string(), ExecConfig::tcp(spec.nprocs)),
    ];
    check_matrix(spec, configs, &MODES[..1])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial-vs-threaded comparison has teeth: one flipped byte in
    /// any of the three artifacts is a divergence naming that artifact
    /// and the baseline it was compared against.
    #[test]
    fn one_flipped_byte_in_any_artifact_is_a_divergence() {
        let serial: Artifacts = ["{\"r\":1}".into(), "{\"t\":1}".into(), "{\"p\":1}".into()];
        let label = || "sm_opt/threads2".to_string();
        assert!(same_artifacts(label(), &serial, &serial, "serial run").is_ok());
        for (i, what) in ["report", "trace", "profile"].into_iter().enumerate() {
            let mut threaded = serial.clone();
            threaded[i] = threaded[i].replace('1', "2");
            let d = same_artifacts(label(), &threaded, &serial, "serial run")
                .expect_err("a flipped byte must diverge");
            assert_eq!(d.config, "sm_opt/threads2");
            assert!(
                d.detail
                    .starts_with(&format!("{what} diverges from serial run")),
                "{d}"
            );
            assert!(d.detail.contains("first diff at byte 5"), "{d}");
        }
    }
}
