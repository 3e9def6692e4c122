//! The six workloads and the eight rungs of the layer ladder. Every
//! mode is set explicitly on the `ExecConfig`; nothing is left to the
//! `FGDSM_*` environment (which `main` scrubs anyway).

use fgdsm_apps::{jacobi, lu, pde, shallow, Scale};
use fgdsm_hpf::{ExecConfig, PoolMode, Program, WireMode};

/// The paper's cluster size.
pub const NODES: usize = 8;

/// One rung of the ladder: the same program on a backend that adds one
/// layer to the rung it is subtracted from (README has the table).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    /// `execute_reference`: kernels over one flat memory, no cluster.
    Reference,
    Mp,
    SmUnopt,
    SmOpt,
    /// `sm_opt` with every transfer encoded and decoded, carried by
    /// the no-op `Loopback` transport.
    Strict,
    Chan,
    Tcp,
    /// `sm_opt` with two worker threads on two CPUs.
    SmOptT2,
}

impl Rung {
    pub const ALL: [Rung; 8] = [
        Rung::Reference,
        Rung::Mp,
        Rung::SmUnopt,
        Rung::SmOpt,
        Rung::Strict,
        Rung::Chan,
        Rung::Tcp,
        Rung::SmOptT2,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Rung::Reference => "ladder.reference_ms",
            Rung::Mp => "ladder.mp_ms",
            Rung::SmUnopt => "ladder.smunopt_ms",
            Rung::SmOpt => "ladder.smopt_ms",
            Rung::Strict => "ladder.strict_ms",
            Rung::Chan => "ladder.chan_ms",
            Rung::Tcp => "ladder.tcp_ms",
            Rung::SmOptT2 => "ladder.smopt_t2_ms",
        }
    }

    /// CPUs the rung is pinned to: one, so nothing overlaps and layer
    /// times subtract; two only where threading is the thing measured.
    pub fn cpus(self) -> usize {
        match self {
            Rung::SmOptT2 => 2,
            _ => 1,
        }
    }

    /// Rungs that are `sm_opt` behind another carrier or scheduler and
    /// must reproduce its virtual-time state byte for byte.
    pub fn is_smopt_carrier(self) -> bool {
        matches!(self, Rung::Strict | Rung::Chan | Rung::Tcp | Rung::SmOptT2)
    }

    /// The rung's configuration. `Reference` reads only the node count
    /// and page size of what it is given, so `mp` stands in for it.
    pub fn config(self) -> ExecConfig {
        let cfg = match self {
            Rung::Reference | Rung::Mp => ExecConfig::mp(NODES).serial(),
            Rung::SmUnopt => ExecConfig::sm_unopt(NODES).serial(),
            Rung::SmOpt => ExecConfig::sm_opt(NODES).serial(),
            Rung::Strict => ExecConfig::sm_opt(NODES).serial().strict(),
            Rung::Chan => ExecConfig::chan(NODES).serial(),
            Rung::Tcp => ExecConfig::tcp(NODES).serial(),
            Rung::SmOptT2 => ExecConfig::sm_opt(NODES).threads(2),
        };
        explicit(cfg)
    }
}

/// Close every `Auto` mode that would otherwise consult the
/// environment: telemetry off, persistent pool, fast wire unless the
/// rung asked for strict.
fn explicit(mut cfg: ExecConfig) -> ExecConfig {
    cfg = cfg.unmetered();
    cfg.pool = PoolMode::Persistent;
    if cfg.wire == WireMode::Auto {
        cfg.wire = WireMode::Fast;
    }
    cfg
}

pub struct Workload {
    pub name: &'static str,
    /// Why this workload is in the set (also in `BENCHMARK.json`).
    pub why: &'static str,
    app: App,
    /// `suite_scaled` work-growth factor.
    factor: usize,
    /// The rung whose configuration this workload times end to end.
    pub rung: Rung,
    /// Listed in `BENCHMARK.json`, so the driver gates on it. The two
    /// workloads that are not (README, "Why the bounds are this wide")
    /// are still measured by the full set.
    pub gated: bool,
}

#[derive(Clone, Copy)]
enum App {
    Lu,
    Shallow,
    Jacobi,
    Pde,
}

impl Workload {
    /// Build the workload's program at `Scale::Bench`.
    pub fn program(&self) -> Program {
        let (s, f) = (Scale::Bench, self.factor);
        match self.app {
            App::Lu => lu::spec(&lu::Params::at(s).scaled(f)),
            App::Shallow => shallow::spec(&shallow::Params::at(s).scaled(f)),
            App::Jacobi => jacobi::spec(&jacobi::Params::at(s).scaled(f)),
            App::Pde => pde::spec(&pde::Params::at(s).scaled(f)),
        }
        .program
    }

    pub fn config(&self) -> ExecConfig {
        self.rung.config()
    }
}

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lu_smopt",
        why: "lu x1 on sm_opt, serial: the section-4.2 contract path (protocol ctl) is ~75% of \
              the time; net and codec do nothing",
        app: App::Lu,
        factor: 1,
        rung: Rung::SmOpt,
        gated: true,
    },
    Workload {
        name: "shallow_unopt",
        why: "shallow x1 on sm_unopt, serial: the same protocol+tempest layers through faults, \
              invalidations and forwards instead of pushes",
        app: App::Shallow,
        factor: 1,
        rung: Rung::SmUnopt,
        gated: true,
    },
    Workload {
        name: "jacobi_mp_x8",
        why: "jacobi x8 on mp, serial: kernel compute is ~87%; the no-change control for every \
              protocol, wire and net optimisation",
        app: App::Jacobi,
        factor: 8,
        rung: Rung::Mp,
        gated: true,
    },
    Workload {
        name: "pde_tcp",
        why: "pde x1 on tcp, 8 fgdsm-node processes: ~31k small frames, socket latency \
              dominates; spawn and teardown paid per execute",
        app: App::Pde,
        factor: 1,
        rung: Rung::Tcp,
        gated: true,
    },
    Workload {
        name: "jacobi_chan_x8",
        why: "jacobi x8 on chan, serial: ~3.5k frames of ~3.3 KB, bandwidth-bound \
              encode/decode/apply with hop time near zero",
        app: App::Jacobi,
        factor: 8,
        rung: Rung::Chan,
        gated: false,
    },
    Workload {
        name: "jacobi_smopt_x8_t2",
        why: "jacobi x8 on sm_opt with 2 threads on 2 CPUs: guards tempest::pool and the \
              threaded compute/apply path against serial-path changes",
        app: App::Jacobi,
        factor: 8,
        rung: Rung::SmOptT2,
        gated: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use fgdsm_hpf::{MetricsMode, ParallelMode};

    #[test]
    fn every_rung_config_is_closed_against_the_environment() {
        for rung in Rung::ALL {
            let cfg = rung.config();
            assert_eq!(cfg.nprocs, NODES);
            assert_eq!(cfg.metrics, MetricsMode::Off, "{rung:?}");
            assert_eq!(cfg.pool, PoolMode::Persistent, "{rung:?}");
            assert_ne!(cfg.wire, WireMode::Auto, "{rung:?}");
            assert_ne!(cfg.parallel, ParallelMode::Auto, "{rung:?}");
            assert_eq!(cfg.resolve_parallel, None, "{rung:?}");
        }
        assert_eq!(Rung::Strict.config().wire, WireMode::Strict);
        assert_eq!(Rung::SmOptT2.config().parallel, ParallelMode::Threads(2));
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(std::ptr::eq(find(w.name).unwrap(), w));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn benchmark_json_lists_our_workloads_for_the_same_reasons() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, ours);
    }
}
