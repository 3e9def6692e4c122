//! Executors: run a mini-HPF program over the simulated DSM.
//!
//! The executor is split into a backend-agnostic BSP **superstep driver**
//! ([`engine`]) and two pluggable **communication backends** behind the
//! [`backend::CommBackend`] trait:
//!
//! * [`sm_opt::SmOpt`] at [`OptLevel::unopt`] ([`Backend::SmUnopt`]) —
//!   every remote access goes through the default protocol: before a
//!   loop's kernels run, each node's declared read/write sections are
//!   resolved (faults, invalidations, 4-hop forwards), exactly what the
//!   authors' unoptimized shared-memory compiler emits.
//! * [`sm_opt::SmOpt`] — the compiler-orchestrated incoherence of §4.2:
//!   per-loop access analysis finds the producer→consumer transfers,
//!   `shmem_limits` shrinks them to whole blocks, and the §4.2 call
//!   contract (`mk_writable` / barrier / `implicit_writable` / barrier /
//!   `send` + `ready_to_recv` / loop / `implicit_invalidate` / barrier)
//!   moves the data; boundary blocks and cold misses still take the
//!   default path. [`OptLevel`] toggles bulk transfer, run-time overhead
//!   elimination and the PRE extension (Figure 4).
//! * [`mp::Mp`] — the message-passing backend: owner-computes with direct
//!   marshalled messages, no coherence machinery at all, paying the PGI
//!   runtime's per-message overhead.
//!
//! A *carrier* is a transport, not a backend: [`Backend::Chan`] and
//! [`Backend::Tcp`] run `sm_opt` at the full optimization level with
//! every inter-node transfer encoded into a [`fgdsm_protocol::WireMsg`]
//! envelope and carried to one node runtime
//! ([`fgdsm_protocol::node::serve`]) hosted on per-node worker threads
//! or in spawned `fgdsm-node` processes (`engine::make_transport` picks
//! the [`fgdsm_protocol::WireTransport`]) — the seam a real distributed
//! port would use, byte-identical to `sm_opt` (determinism suite + fuzz
//! oracle). [`WireMode::Strict`] ([`ExecConfig::strict`]) forces the same
//! envelope round-trip, over an in-process loopback, under the sm_* and
//! mp backends for differential testing.
//!
//! Execution is BSP, and every superstep is split into two explicit
//! phases. The **resolve phase** services every cross-node transfer the
//! loop needs against the state the previous superstep left behind, on
//! the driver thread: each backend *executes a schedule* — plain data
//! built once per static loop and kept in its [`crate::plan::LoopPlan`]
//! (the default protocol's covers, the §4.2 contract's call sites and
//! [`fgdsm_protocol::TransferPlan`]s, message passing's sends) — in
//! schedule order. The **compute phase** then runs each node's
//! kernel against that node's own [`fgdsm_tempest::NodeShard`] only —
//! zero cross-node access — dispatched across the run's
//! [`fgdsm_tempest::WorkerPool`]. The threading never changes a
//! virtual-time charge: serial and parallel runs produce byte-identical
//! reports and traces. [`ParallelMode`] selects the compute phase's
//! worker count.
//!
//! Every mode is a value in [`ExecConfig`]: nothing here reads the process
//! environment. [`execute_traced`] / [`execute_profiled`] hand back the
//! structured event trace (see [`fgdsm_tempest::NodeTrace`]) and the
//! Chrome timeline as strings; writing them to a file is the caller's
//! business.

pub mod backend;
pub mod engine;
pub mod mp;
pub mod reference;
pub mod sm_opt;

pub use reference::{execute_reference, ReferenceResult};

use crate::ir::Program;
use crate::plan::{ArrayMeta, OptLevel};
use backend::CommBackend;
use fgdsm_protocol::{CtlStats, ProtocolKind};
use fgdsm_section::Env;
use fgdsm_tempest::{CacheModel, ClusterReport, CostModel, MetricsRegistry, WireSpan};
use std::collections::BTreeMap;

/// Can the `tcp` backend run here? True when the sandbox lets us bind a
/// loopback TCP or Unix-domain socket. Callers that get `false` should
/// skip with a notice rather than fail.
pub fn tcp_available() -> bool {
    fgdsm_net::available_kind().is_some()
}

/// Which executor to use.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Default protocol only.
    SmUnopt,
    /// Compiler-orchestrated incoherence at the given optimization level.
    SmOpt(OptLevel),
    /// Message-passing backend.
    Mp,
    /// `sm_opt` at the full optimization level over the channel carrier
    /// ([`fgdsm_protocol::ChanTransport`]): every inter-node transfer
    /// round-trips through encoded [`fgdsm_protocol::WireMsg`] bytes to a
    /// per-node worker *thread* that shares no shard memory: it owns a
    /// mirror of the shard words, decodes each envelope with the paranoid
    /// wire decoder, scatters it, and re-gathers the reply from its own
    /// memory. Byte-identical to `sm_opt` (pinned by the determinism
    /// suite and the fuzz oracle). Peer death, recv deadlines and
    /// rejected frames surface as typed [`fgdsm_protocol::WireError`]s
    /// through [`try_execute`].
    Chan,
    /// The same node runtime over the socket carrier
    /// ([`fgdsm_net::SocketTransport`]): each worker is a spawned
    /// `fgdsm-node` *process* reached over a real socket (TCP loopback,
    /// or Unix-domain where TCP is forbidden).
    Tcp,
}

/// Whether inter-node data movement must round-trip through encoded
/// [`fgdsm_protocol::WireMsg`] envelopes. The strict path exists for
/// differential testing: it is behaviorally identical to the zero-copy
/// fast path — same charges, same counters, bit-identical data — and the
/// determinism suite holds it to that.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WireMode {
    /// The default: the fast path.
    #[default]
    Auto,
    /// Zero-copy fast path (shard-to-shard copies).
    Fast,
    /// Envelope every transfer: encode → transport → decode → apply.
    Strict,
}

impl WireMode {
    /// Does every transfer round-trip through an encoded envelope?
    pub fn is_strict(self) -> bool {
        self == WireMode::Strict
    }
}

/// Whether wall-clock telemetry (the [`fgdsm_tempest::metrics`]
/// registry: per-`WireMsg`-class encode/route/decode/apply histograms on
/// the coordinator, recv/apply/re-encode histograms in the workers) is
/// recorded for a run. Purely a side-channel knob: canonical reports,
/// traces, and profiles are byte-identical with metrics on or off — the
/// guard suite holds it to that. Zero-cost when off: no clocks are read.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MetricsMode {
    /// The default: off.
    #[default]
    Auto,
    /// Record wall-clock telemetry.
    On,
    /// No telemetry, no clock reads.
    Off,
}

impl MetricsMode {
    /// Is wall-clock telemetry recorded?
    pub fn enabled(self) -> bool {
        self == MetricsMode::On
    }
}

/// How page homes are assigned relative to the data distribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HomeAssign {
    /// The HPF runtime places pages to match each array's distribution,
    /// so owners of BLOCK-distributed data are home to their own pages
    /// (CYCLIC arrays still interleave owners within a page). This is how
    /// the paper's system behaves: first writes by owners do not fault;
    /// `lu` pays page *mapping* cost, not ownership misses.
    #[default]
    DataAligned,
    /// Pages round-robin across nodes regardless of the distribution.
    RoundRobin,
    /// Contiguous page chunks per node.
    Blocked,
}

/// How the compute phase is scheduled onto host threads (the resolve
/// phase always runs on the driver thread). Purely a wall-clock knob:
/// virtual-time charges are per-shard, so every setting produces
/// byte-identical [`ClusterReport`]s and trace streams.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ParallelMode {
    /// The default: one worker per available host core.
    #[default]
    Auto,
    /// Run everything on the driver thread, one node at a time.
    Serial,
    /// Run the compute phase on up to `n` pool workers (never more than
    /// there are nodes).
    Threads(usize),
}

impl ParallelMode {
    /// Resolve to a concrete worker count (≥ 1).
    pub fn workers(self) -> usize {
        match self {
            ParallelMode::Serial => 1,
            ParallelMode::Threads(n) => n.max(1),
            ParallelMode::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// How worker threads are provisioned for a parallel compute phase: one
/// long-lived [`fgdsm_tempest::WorkerPool`] per `execute`. There is no
/// other strategy and both variants mean "the pool"; the enum and the
/// [`ExecConfig::pool`] field are read by nothing and survive only
/// because `benchmark/src/workloads.rs` names them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PoolMode {
    #[default]
    Auto,
    Persistent,
}

/// A full execution configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    pub nprocs: usize,
    pub cost: CostModel,
    pub cache: CacheModel,
    pub home: HomeAssign,
    pub backend: Backend,
    /// Default coherence protocol (compiler-orchestrated incoherence is
    /// only supported over the eager-invalidate protocol).
    pub protocol: ProtocolKind,
    /// Bindings for problem-level symbolics referenced by the program.
    pub base_env: Env,
    /// Host-thread scheduling of the compute phase (wall-clock only;
    /// never affects results).
    pub parallel: ParallelMode,
    /// Vestigial, read by nothing: the resolve phase runs on the driver
    /// thread. Survives only because `benchmark/src/workloads.rs` names
    /// it.
    pub resolve_parallel: Option<ParallelMode>,
    /// Vestigial (see [`PoolMode`]): a parallel compute phase always runs
    /// on the run's worker pool.
    pub pool: PoolMode,
    /// Wire discipline for inter-node data movement: zero-copy fast path
    /// or strict envelope round-tripping. The `chan` and `tcp` carriers
    /// are always strict regardless of this setting.
    pub wire: WireMode,
    /// Wall-clock telemetry: per-message-class latency histograms on
    /// both sides of the wire, merged into [`RunResult::metrics`].
    /// Side-channel only — canonical artifacts are byte-identical either
    /// way.
    pub metrics: MetricsMode,
    /// Per-recv deadline of the `chan` and `tcp` carriers: a peer silent
    /// for this long fails the run with a typed
    /// [`fgdsm_protocol::WireError::Timeout`].
    pub recv_timeout: std::time::Duration,
    /// Trace entries kept per node (`None`: the trace ring's default).
    /// Aggregates stay exact; only the raw entry stream is truncated.
    pub trace_cap: Option<usize>,
    /// Injection knobs for the differential fuzzer (all off by default).
    pub inject: InjectConfig,
}

/// Injection configuration: *tolerated* perturbations the §4.2
/// contract must survive without changing results, plus *must-catch*
/// protocol mutations (forwarded to
/// [`fgdsm_protocol::Dsm::set_injection`]) whose incoherence the
/// differential oracle has to detect. Everything defaults to off and the
/// tolerated knobs are honest config — they only reorder or de-optimize
/// work the contract already claims is order-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectConfig {
    /// Shuffle the node service order of the default-protocol resolve
    /// sub-phases with this seed. Faults of independent nodes commute, so
    /// results must not change.
    pub shuffle_resolve: Option<u64>,
    /// Clear the `implicit_writable` memo (and the tags it records)
    /// before every superstep's resolve, de-optimizing run-time-overhead
    /// elimination back to the slow path.
    pub clear_iw_memo: bool,
    /// Shrink every compiler-controlled block range by one block at each
    /// end, forcing those boundary blocks onto the default-protocol path.
    pub force_boundary: bool,
    /// Must-catch: off-by-one `send_range` bounds.
    pub skew_send_range: bool,
    /// Must-catch: skip `flush_range` entirely.
    pub skip_flush_range: bool,
    /// Must-catch: redirect `send_range` pushes to the (possibly stale)
    /// home copy whenever the home is a third party — the §4.3 stale
    /// owner-memo hazard.
    pub stale_owner_push: bool,
    /// Must-catch: flip a byte inside the first envelope routed in strict
    /// wire mode — `WireMsg::from_bytes` must reject the frame and fail
    /// the run loudly, proving decode validation has teeth (needs an
    /// envelope path: a carrier or [`WireMode::Strict`]).
    pub corrupt_envelope: bool,
    /// Must-catch: overwrite the length prefix of the first data frame
    /// the coordinator sends with an oversized value — the node's
    /// framing layer must reject it against [`fgdsm_protocol::MAX_FRAME_BYTES`]
    /// before allocating, and the run must fail loudly. Only the socket
    /// link has length prefixes, so it only has an effect on the `tcp`
    /// backend.
    pub corrupt_frame_len: bool,
    /// Fault-tolerance harness knob: arm node `n` of a carrier (`chan`
    /// or `tcp`) with a [`fgdsm_protocol::NodeFault`] (exit or wedge
    /// after a batch count). The coordinator must surface a typed
    /// [`fgdsm_protocol::WireError`] within the configured deadline —
    /// no hang, no partial artifact. No effect without a carrier.
    pub node_fault: Option<(u32, fgdsm_protocol::NodeFault)>,
    /// Must-catch: keep a *symbolic* loop's first default-protocol
    /// schedule and walk it on every later instance, so blocks the new
    /// sections reach are never made accessible. (No effect on loops with
    /// an indirect reference, whose schedule is rebuilt at walk time.)
    pub stale_resolve_schedule: bool,
    /// Must-catch: skip the coordinator's per-class `payload_bytes.*`
    /// metrics counter for the first envelope encoded — the run itself
    /// and the double-entry books stay correct, so only the telemetry
    /// conservation invariant ([`RunResult::check_metrics_conservation`])
    /// can catch the undercount (needs metrics on and an envelope
    /// path).
    pub undercount_metrics: bool,
}

impl ExecConfig {
    /// Unoptimized shared memory on the paper's dual-cpu cluster.
    pub fn sm_unopt(nprocs: usize) -> Self {
        ExecConfig {
            nprocs,
            cost: CostModel::paper_dual_cpu(),
            cache: CacheModel::paper(),
            home: HomeAssign::DataAligned,
            backend: Backend::SmUnopt,
            protocol: ProtocolKind::EagerInvalidate,
            base_env: Env::new(),
            parallel: ParallelMode::Auto,
            resolve_parallel: None,
            pool: PoolMode::Auto,
            wire: WireMode::Auto,
            metrics: MetricsMode::Auto,
            recv_timeout: fgdsm_protocol::DEFAULT_RECV_TIMEOUT,
            trace_cap: None,
            inject: InjectConfig::default(),
        }
    }

    /// Optimized shared memory (full §4.2 + §4.3 optimizations).
    pub fn sm_opt(nprocs: usize) -> Self {
        ExecConfig {
            backend: Backend::SmOpt(OptLevel::full()),
            ..Self::sm_unopt(nprocs)
        }
    }

    /// Message-passing backend.
    pub fn mp(nprocs: usize) -> Self {
        ExecConfig {
            backend: Backend::Mp,
            ..Self::sm_unopt(nprocs)
        }
    }

    /// `sm_opt` over the channel carrier: the full contract with every
    /// transfer round-tripped through encoded envelopes over per-node
    /// channel workers.
    pub fn chan(nprocs: usize) -> Self {
        ExecConfig {
            backend: Backend::Chan,
            ..Self::sm_unopt(nprocs)
        }
    }

    /// `sm_opt` over the socket carrier: the full contract with every
    /// transfer framed over loopback TCP (or UDS) to spawned `fgdsm-node`
    /// worker processes. Check [`tcp_available`] first — sandboxes may
    /// forbid sockets.
    pub fn tcp(nprocs: usize) -> Self {
        ExecConfig {
            backend: Backend::Tcp,
            ..Self::sm_unopt(nprocs)
        }
    }

    /// Switch to the single-cpu cost model.
    pub fn single_cpu(mut self) -> Self {
        self.cost = CostModel {
            cpu: fgdsm_tempest::CpuMode::Single,
            ..self.cost
        };
        self
    }

    /// Replace the optimization level (must be an SmOpt config).
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.backend = Backend::SmOpt(opt);
        self
    }

    /// Run the default protocol as write-update instead of
    /// eager-invalidate (unoptimized shared memory only).
    pub fn write_update(mut self) -> Self {
        self.protocol = ProtocolKind::WriteUpdate;
        self
    }

    /// Pin the compute phase to the driver thread.
    pub fn serial(mut self) -> Self {
        self.parallel = ParallelMode::Serial;
        self
    }

    /// Dispatch the compute phase across up to `n` pool workers.
    pub fn threads(mut self, n: usize) -> Self {
        self.parallel = ParallelMode::Threads(n);
        self
    }

    /// Force every inter-node transfer through an encoded wire envelope
    /// (the differential-testing path).
    pub fn strict(mut self) -> Self {
        self.wire = WireMode::Strict;
        self
    }

    /// Record wall-clock telemetry for this run.
    pub fn metered(mut self) -> Self {
        self.metrics = MetricsMode::On;
        self
    }

    /// Record no wall-clock telemetry for this run (the default).
    pub fn unmetered(mut self) -> Self {
        self.metrics = MetricsMode::Off;
        self
    }

    /// Replace the injection configuration.
    pub fn with_inject(mut self, inject: InjectConfig) -> Self {
        self.inject = inject;
        self
    }
}

/// One contract-planned transfer: the §4.2 schedule decided to move
/// `blocks` whole cache blocks of `array` during superstep `step` (loop
/// `loop_id`). The profiler compares these against the measured per-loop
/// traffic to expose loops the contract failed to cover (bytes moved by
/// default-protocol faults instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedXfer {
    pub step: u32,
    pub loop_id: u32,
    pub array: u32,
    pub blocks: u64,
    pub bytes: u64,
}

/// Host-side bookkeeping for one parallel loop. Plans: how many of its
/// instances built a plan (`inspections`) and how many reused the one in
/// the per-loop table (`hits`) — a loop whose access structure is fixed
/// builds once per run, a symbolic one every instance. Kernels: the host
/// time its compute phases took over the run (`compute_ns`, the same
/// clock reads as [`HostPhases::compute_ns`](fgdsm_tempest::HostPhases))
/// and the iteration points they covered on all nodes (`points`), so a
/// kernel that stops vectorizing shows as ns/point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InspectorRow {
    pub inspections: u64,
    pub hits: u64,
    pub compute_ns: u64,
    pub points: u64,
}

/// The result of executing a program.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub report: ClusterReport,
    pub scalars: BTreeMap<&'static str, f64>,
    /// Gathered canonical contents of the global segment.
    pub data: Vec<f64>,
    pub metas: Vec<ArrayMeta>,
    pub ctl: CtlStats,
    /// PRE statistics: transfers skipped as redundant / performed.
    pub pre_skipped: u64,
    pub pre_performed: u64,
    /// Contract-planned transfer volumes, in planning order (empty for
    /// backends that plan nothing: `sm_unopt`, `mp`).
    pub planned: Vec<PlannedXfer>,
    /// Plan and kernel-time bookkeeping per parallel loop, indexed by
    /// loop id (program order). Host-side, in no canonical artifact.
    pub inspector: Vec<InspectorRow>,
    /// Plans the per-loop table held at the end of the run — never more
    /// than the program has loops.
    pub plans_cached: usize,
    /// Envelope frames routed through the wire layer (0 on the zero-copy
    /// fast path). Wire accounting only — deliberately outside the
    /// canonical report so strict and fast runs stay byte-identical.
    pub wire_frames: u64,
    /// Total on-wire payload bytes carried by those frames.
    pub wire_payload_bytes: u64,
    /// Link-level batches those frames travelled in, and the barrier-time
    /// syncs that settled them: together, how often the coordinator had
    /// to wait on a link (both 0 on the fast path; 0 batches over the
    /// in-process loopback, which has no link).
    pub wire_batches: u64,
    pub wire_syncs: u64,
    /// Merged wall-clock telemetry (`None` when metrics are off):
    /// coordinator keys under `coord.`, per-worker keys under `node<i>.`
    /// for the carriers. Side-channel only — never feeds the
    /// canonical report.
    pub metrics: Option<MetricsRegistry>,
    /// Wall-clock spans of the wire transport's link-level batches, one
    /// per flush (empty when metrics are off), feeding the merged Chrome
    /// trace.
    pub wire_spans: Vec<WireSpan>,
}

impl RunResult {
    /// Extract the gathered contents of one array.
    pub fn array(&self, prog: &Program, id: crate::dist::ArrayId) -> Vec<f64> {
        let meta = &self.metas[id.0];
        let len = prog.array(id).len();
        self.data[meta.base..meta.base + len].to_vec()
    }

    /// Total execution time in seconds (Figure 3's quantity).
    pub fn total_s(&self) -> f64 {
        self.report.total_s()
    }

    /// Measured host time the wire transport spent blocked on its links:
    /// writing each batch, then waiting for and verifying its echo (0 on
    /// the zero-copy fast path and over the loopback). Real time, like
    /// [`fgdsm_tempest::ClusterReport::wall_ns`] — outside the canonical
    /// report so strict/fast/socket runs stay byte-identical.
    pub fn wire_route_ns(&self) -> u64 {
        self.report.wire_route_ns
    }

    /// The merged wall-clock metrics registry, if telemetry was on.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Double-entry conservation over the telemetry side channel: the
    /// per-class `payload_bytes.*` counters — coordinator's, and each
    /// worker's when present — must each sum to exactly
    /// [`RunResult::wire_payload_bytes`]. `Ok(())` when metrics are off
    /// (nothing to check) or no frames were routed.
    pub fn check_metrics_conservation(&self) -> Result<(), String> {
        let Some(reg) = self.metrics.as_ref() else {
            return Ok(());
        };
        let coord: u64 = reg
            .iter()
            .filter(|(k, _)| k.starts_with("coord.payload_bytes."))
            .filter_map(|(_, m)| m.as_counter())
            .sum();
        if coord != self.wire_payload_bytes {
            return Err(format!(
                "metrics conservation: coordinator per-class payload counters sum to {coord}, \
                 but the run routed {} payload bytes",
                self.wire_payload_bytes
            ));
        }
        // Worker registries (carriers only): every node that shipped
        // metrics home must account for the full payload volume it saw.
        let mut nodes: Vec<&str> = reg
            .iter()
            .filter_map(|(k, _)| k.split_once('.').map(|(tag, _)| tag))
            .filter(|tag| tag.starts_with("node"))
            .collect();
        nodes.dedup();
        let per_node_total: u64 = nodes
            .iter()
            .map(|tag| {
                reg.iter()
                    .filter(|(k, _)| {
                        k.strip_prefix(tag)
                            .and_then(|r| r.strip_prefix('.'))
                            .is_some_and(|r| r.starts_with("payload_bytes."))
                    })
                    .filter_map(|(_, m)| m.as_counter())
                    .sum::<u64>()
            })
            .sum();
        if !nodes.is_empty() && per_node_total != self.wire_payload_bytes {
            return Err(format!(
                "metrics conservation: worker per-class payload counters sum to {per_node_total} \
                 across {} nodes, but the run routed {} payload bytes",
                nodes.len(),
                self.wire_payload_bytes
            ));
        }
        Ok(())
    }

    /// Splice this run's wall-clock wire spans (and per-process track
    /// labels) into a canonical Chrome trace, producing one merged
    /// Perfetto document: the coordinator's virtual-time tracks plus a
    /// wall-clock pid track per worker process. The canonical `base` is
    /// never modified — this is a derived, side-channel document.
    pub fn merged_chrome(&self, base: &str) -> String {
        fgdsm_tempest::metrics::merge_chrome(base, &self.wire_spans)
    }
}

/// Instantiate the communication backend for a configuration. With
/// `engine::make_transport` (which carrier moves the envelopes) this is
/// one of the only two places the [`Backend`] enum is dispatched on.
fn make_backend(cfg: &ExecConfig) -> Box<dyn CommBackend> {
    let opt = match cfg.backend {
        Backend::Mp => return Box::new(mp::Mp::new(cfg.nprocs)),
        Backend::SmUnopt => OptLevel::unopt(),
        Backend::SmOpt(opt) => opt,
        Backend::Chan | Backend::Tcp => OptLevel::full(),
    };
    Box::new(sm_opt::SmOpt::new(opt))
}

/// Execute `prog` under `cfg`.
pub fn execute(prog: &Program, cfg: &ExecConfig) -> RunResult {
    engine::run(prog, cfg, make_backend(cfg), false, false).0
}

/// Execute `prog` under `cfg` with a caller-supplied communication
/// backend in place of the one `cfg.backend` names (the wire carrier, if
/// any, still follows `cfg`) — the entry point for third-party
/// [`CommBackend`]s and for test backends that wrap a built-in one to
/// observe the engine between its hooks.
pub fn execute_with(prog: &Program, cfg: &ExecConfig, backend: Box<dyn CommBackend>) -> RunResult {
    engine::run(prog, cfg, backend, false, false).0
}

/// How an execution failed. The engine reports failures by panicking —
/// typed [`fgdsm_protocol::WireError`] payloads for everything the wire
/// layer reports (an envelope its own decoder refuses, peer death, recv
/// deadline, a frame the peer rejected, a wrong echo or otherwise broken
/// conversation, diverging books), strings for everything else
/// (invariant violations). Delivery is split-phase, so a transport
/// failure surfaces no later than the next barrier. [`try_execute`] catches both
/// and hands them back as values.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// The wire layer failed: an envelope did not decode (`BadVersion`,
    /// `Truncated`, …), a peer died
    /// ([`fgdsm_protocol::WireError::PeerGone`]), a recv deadline fired
    /// (`Timeout`), the peer refused a frame (`Rejected`) or echoed a
    /// different one (`BadReply`).
    Wire(fgdsm_protocol::WireError),
    /// Any other engine panic, stringified.
    Panic(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Wire(e) => write!(f, "wire transport failed: {e}"),
            ExecError::Panic(msg) => write!(f, "execution panicked: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execute `prog` under `cfg`, catching engine failures as typed values
/// instead of unwinding. This is the fault-tolerant entry point for the
/// carriers: a killed node (thread or `fgdsm-node` process) surfaces as
/// `Err(ExecError::Wire(WireError::PeerGone(n)))`, a wedged one as
/// `Err(ExecError::Wire(WireError::Timeout(n)))` — within the configured
/// recv deadline, with no partial artifacts. Successful runs are
/// indistinguishable from [`execute`].
pub fn try_execute(prog: &Program, cfg: &ExecConfig) -> Result<RunResult, ExecError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(prog, cfg))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            let payload = match payload.downcast::<fgdsm_protocol::WireError>() {
                Ok(we) => return Err(ExecError::Wire(*we)),
                Err(p) => p,
            };
            let msg = match payload.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => match p.downcast::<&'static str>() {
                    Ok(s) => (*s).to_string(),
                    Err(_) => "non-string panic payload".to_string(),
                },
            };
            Err(ExecError::Panic(msg))
        }
    }
}

/// Execute `prog` under `cfg` and also return the structured event-trace
/// JSON.
pub fn execute_traced(prog: &Program, cfg: &ExecConfig) -> (RunResult, String) {
    let (result, trace, _) = engine::run(prog, cfg, make_backend(cfg), true, false);
    (result, trace.expect("trace requested"))
}

/// Execute `prog` under `cfg` and also return both profiler exports: the
/// structured event-trace JSON and the Chrome trace-event timeline.
/// Both are pure functions of virtual-time state — byte-identical across
/// serial and threaded runs.
pub fn execute_profiled(prog: &Program, cfg: &ExecConfig) -> (RunResult, String, String) {
    let (result, trace, chrome) = engine::run(prog, cfg, make_backend(cfg), true, true);
    (
        result,
        trace.expect("trace requested"),
        chrome.expect("chrome trace requested"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use crate::ir::{ARef, Kernel, KernelCtx, ParLoop, Stmt, Subscript};
    use fgdsm_section::SymRange;

    const A: crate::dist::ArrayId = crate::dist::ArrayId(0);

    fn fill_kernel(ctx: &mut KernelCtx) {
        let a = ctx.h(A);
        for j in ctx.iter[1].iter() {
            for i in ctx.iter[0].iter() {
                ctx.mem[a.at2(i, j)] = (i + 100 * j) as f64;
            }
        }
    }

    fn tiny_program(rows: usize, cols: usize, dist: Dist) -> Program {
        let mut b = Program::builder();
        let a = b.array("a", &[rows, cols], dist);
        b.stmt(Stmt::Par(ParLoop {
            name: "fill",
            iter: vec![
                SymRange::new(0, rows as i64 - 1),
                SymRange::new(0, cols as i64 - 1),
            ],
            dist: crate::ir::CompDist::Owner(a),
            refs: vec![ARef::write(
                a,
                vec![Subscript::loop_var(0), Subscript::loop_var(1)],
            )],
            kernel: Kernel::new(fill_kernel),
            cost_per_iter_ns: 20,
            reduction: None,
        }));
        b.build()
    }

    #[test]
    fn config_builders() {
        let c = ExecConfig::sm_opt(8).single_cpu();
        assert!(matches!(c.backend, Backend::SmOpt(_)));
        assert_eq!(c.cost.cpu, fgdsm_tempest::CpuMode::Single);
        let c2 = ExecConfig::sm_unopt(4).with_opt(OptLevel::base());
        assert!(matches!(c2.backend, Backend::SmOpt(o) if o.ctl && !o.bulk));
        assert!(matches!(ExecConfig::mp(2).backend, Backend::Mp));
    }

    #[test]
    fn parallel_mode_resolves_to_worker_counts() {
        assert_eq!(ParallelMode::Serial.workers(), 1);
        assert_eq!(ParallelMode::Threads(0).workers(), 1);
        assert_eq!(ParallelMode::Threads(4).workers(), 4);
        assert!(ParallelMode::Auto.workers() >= 1);
        assert_eq!(
            ExecConfig::sm_unopt(4).threads(2).parallel,
            ParallelMode::Threads(2)
        );
        assert_eq!(
            ExecConfig::sm_unopt(4).serial().parallel,
            ParallelMode::Serial
        );
    }

    #[test]
    fn threaded_compute_phase_matches_serial_exactly() {
        // Uneven split on purpose: 4 shards over 3 workers.
        let prog = tiny_program(64, 64, Dist::Block);
        let (rs, ts) = execute_traced(&prog, &ExecConfig::sm_unopt(4).serial());
        let (rp, tp) = execute_traced(&prog, &ExecConfig::sm_unopt(4).threads(3));
        assert_eq!(rs.report.to_json(), rp.report.to_json());
        assert_eq!(ts, tp, "per-node event streams must be identical");
        assert_eq!(rs.data, rp.data);
        assert_eq!(rs.scalars, rp.scalars);
    }

    #[test]
    fn data_aligned_homes_eliminate_owner_cold_write_faults() {
        let prog = tiny_program(64, 64, Dist::Block);
        let mut aligned = ExecConfig::sm_unopt(4);
        aligned.home = HomeAssign::DataAligned;
        let mut rr = ExecConfig::sm_unopt(4);
        rr.home = HomeAssign::RoundRobin;
        let ra = execute(&prog, &aligned);
        let rb = execute(&prog, &rr);
        // Owners are home to their data: the init writes never fault.
        let misses_aligned: u64 = ra.report.nodes.iter().map(|n| n.misses()).sum();
        let misses_rr: u64 = rb.report.nodes.iter().map(|n| n.misses()).sum();
        assert_eq!(misses_aligned, 0, "aligned homes: no cold write faults");
        assert!(misses_rr > 0, "round-robin homes: owners must fault");
        // Same data either way.
        assert_eq!(ra.data, rb.data);
    }

    #[test]
    fn all_home_policies_agree_on_data() {
        let prog = tiny_program(40, 24, Dist::Cyclic);
        let mut results = Vec::new();
        for home in [
            HomeAssign::DataAligned,
            HomeAssign::RoundRobin,
            HomeAssign::Blocked,
        ] {
            let mut cfg = ExecConfig::sm_opt(4);
            cfg.home = home;
            results.push(execute(&prog, &cfg).data);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn run_result_array_extracts_values() {
        let prog = tiny_program(8, 6, Dist::Block);
        let r = execute(&prog, &ExecConfig::sm_unopt(2));
        let a = r.array(&prog, A);
        assert_eq!(a.len(), 48);
        assert_eq!(a[0], 0.0);
        assert_eq!(a[8], 100.0); // (0,1)
        assert_eq!(a[7 + 5 * 8], (7 + 500) as f64);
    }

    #[test]
    fn makespan_is_positive_and_monotone_with_work() {
        // Page-aligned owner chunks on both sizes, so the comparison is
        // pure compute (no boundary faults).
        let small = tiny_program(64, 32, Dist::Block);
        let big = tiny_program(128, 64, Dist::Block);
        let rs = execute(&small, &ExecConfig::sm_unopt(2));
        let rb = execute(&big, &ExecConfig::sm_unopt(2));
        assert!(rs.total_s() > 0.0);
        assert!(rb.total_s() > rs.total_s());
    }

    #[test]
    fn scalar_statements_update_replicated_state() {
        let mut b = Program::builder();
        let a = b.array("a", &[8, 8], Dist::Block);
        b.scalar("x", 2.0);
        b.stmt(Stmt::Par(ParLoop {
            name: "fill",
            iter: vec![SymRange::new(0, 7), SymRange::new(0, 7)],
            dist: crate::ir::CompDist::Owner(a),
            refs: vec![ARef::write(
                a,
                vec![Subscript::loop_var(0), Subscript::loop_var(1)],
            )],
            kernel: Kernel::new(fill_kernel),
            cost_per_iter_ns: 10,
            reduction: None,
        }));
        b.stmt(Stmt::Scalar {
            name: "x",
            f: |s| s["x"] * 10.0 + 1.0,
        });
        b.stmt(Stmt::Scalar {
            name: "y",
            f: |s| s["x"] - 1.0,
        });
        let prog = b.build();
        let r = execute(&prog, &ExecConfig::sm_unopt(2));
        assert_eq!(r.scalars["x"], 21.0);
        assert_eq!(r.scalars["y"], 20.0);
    }

    #[test]
    #[should_panic(expected = "eager-invalidate")]
    fn ctl_over_write_update_is_rejected() {
        let prog = tiny_program(8, 8, Dist::Block);
        let cfg = ExecConfig::sm_opt(2).write_update();
        execute(&prog, &cfg);
    }
}
