//! The backend-agnostic BSP superstep driver and the shared execution
//! state ([`EngineCore`]) every backend works against.
//!
//! The driver walks the program statement list; for each parallel loop it
//! takes the loop's [`LoopPlan`] — analysis and lowering, built once for
//! a static loop and kept in a table indexed by loop id, rebuilt every
//! instance for a symbolic one — and runs one superstep in two explicit
//! phases:
//!
//! * **Resolve phase**: the backend's [`CommBackend::resolve`] services
//!   every cross-node fault / ctl transfer / message the loop needs,
//!   against the state the previous superstep left behind. Everything in
//!   it runs on the driver thread in the order of a schedule the plan
//!   holds ([`crate::plan`]): default-protocol faults and the ctl tag
//!   transitions in node order, the bulk data movement one
//!   [`fgdsm_protocol::TransferPlan`] per (source, destination) pair.
//! * **Compute phase** ([`compute_phase`]): each node's kernel runs
//!   against its own [`NodeShard`] with zero cross-node access, so the
//!   driver may dispatch the shards across the run's [`WorkerPool`]
//!   workers. Every charge, event and memory write in this phase is
//!   shard-local and its cost is a pure function of the loop analysis,
//!   so the schedule cannot perturb the virtual-time results: serial and
//!   threaded runs are byte-identical.
//!
//! Afterwards the backend observes writes, performs the reduction, runs
//! `post_loop`, and the driver stamps a superstep boundary into the event
//! trace. Nothing in this module inspects which backend is running.
//!
//! The default-protocol part of a resolve ([`EngineCore::resolve_default`])
//! walks the plan's [`ResolveSchedule`] range by range through
//! [`Dsm::write_access_range`] / [`Dsm::read_access_range`].

use super::backend::CommBackend;
use super::{Backend, ExecConfig, HomeAssign, InspectorRow, RunResult};
use crate::analysis::{self, LoopAccess};
use crate::ir::{par_loops_of, ARef, ArrayHandle, KernelCtx, ParLoop, Program, Stmt};
use crate::plan::{self, ArrayMeta, LoopPlan, ResolveSchedule};
use fgdsm_protocol::{ChanTransport, Dsm, Geometry, Loopback, WireTransport};
use fgdsm_section::{Env, Range};
use fgdsm_tempest::{
    CacheAligned, ChargeKind, Cluster, ClusterReport, HomePolicy, HostPhases, Job, NodeShard,
    SegmentLayout, WorkerPool, NO_LOOP, NO_STEP,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Minimum total kernel iteration count (summed over nodes) before the
/// compute phase dispatches onto worker threads: below this, even parked
/// pool workers cost more to wake than the kernels cost to run, and a
/// serial compute is faster. Determinism is unaffected either way.
pub const PAR_COMPUTE_MIN_POINTS: u64 = 2048;

/// Shared execution state: the program binding, the DSM, and the helpers
/// every backend composes (default-protocol resolution, the
/// indirect-access inspector, directory-based gather).
pub struct EngineCore<'p> {
    pub prog: &'p Program,
    pub cfg: &'p ExecConfig,
    pub metas: Vec<ArrayMeta>,
    pub handles: Vec<ArrayHandle>,
    pub dsm: Dsm,
    pub env: Env,
    pub scalars: BTreeMap<&'static str, f64>,
    /// Words per cache block.
    pub wpb: usize,
    /// The run's worker pool, used by the compute phase only:
    /// `cfg.parallel` workers capped by `nprocs` (a shard runs on exactly
    /// one worker), and `None` — nothing spawned — when that is 1.
    pool: Option<WorkerPool>,
    /// Supersteps executed so far; salts the `shuffle_resolve`
    /// perturbation so each loop instance gets a distinct node order.
    pub supersteps: u64,
    /// The per-loop table, indexed by profiler loop id (program order):
    /// the plan of every static loop, built at its first instance — what
    /// such a loop's sections lower to cannot change, so the table is
    /// bounded by the number of loops, never by supersteps. A symbolic
    /// loop's slot stays empty: its plan is rebuilt every instance.
    plans: Vec<Option<Rc<LoopPlan>>>,
    /// Superstep index of the in-flight superstep ([`NO_STEP`] between
    /// loops); stamps [`PlannedXfer`](super::PlannedXfer) records.
    pub cur_step: u32,
    /// Loop id of the in-flight superstep ([`NO_LOOP`] between loops).
    pub cur_loop: u32,
    /// Contract-planned transfer volumes, recorded by the backends via
    /// [`EngineCore::note_planned`] — the "predicted" side of the
    /// profiler's predicted-vs-observed comparison.
    pub planned: Vec<super::PlannedXfer>,
    /// Recycled compute-phase reduction slots, one padded cache line per
    /// node so concurrent workers' stores never share a line.
    partials_scratch: Vec<CacheAligned<f64>>,
    /// Per-loop inspector bookkeeping, indexed by profiler loop id.
    inspector: Vec<InspectorRow>,
    /// The always-on host phase clock (see [`HostPhases`]). A backend
    /// books its schedule build as `inspect_ns`, so that what `exec_par`
    /// books as its communication is the executing alone.
    pub(super) phases: HostPhases,
}

/// Allocate every program array into a fresh page-aligned segment layout.
/// Shared by the engine and the sequential reference interpreter so both
/// agree on absolute word addresses (and therefore on `ArrayMeta` bases).
pub(crate) fn layout_arrays(
    prog: &Program,
    words_per_page: usize,
) -> (SegmentLayout, Vec<ArrayMeta>, Vec<ArrayHandle>) {
    let mut layout = SegmentLayout::new(words_per_page);
    let mut metas = Vec::with_capacity(prog.arrays.len());
    let mut handles = Vec::with_capacity(prog.arrays.len());
    for (i, a) in prog.arrays.iter().enumerate() {
        let base = layout.alloc(a.len());
        metas.push(ArrayMeta {
            id: crate::dist::ArrayId(i),
            base,
            layout: a.layout(),
        });
        handles.push(ArrayHandle::new(base, &a.extents));
    }
    (layout, metas, handles)
}

/// The carrier for strict wire mode, `None` for the zero-copy fast path:
/// the `chan` backend always routes envelopes through per-node worker
/// threads and the `tcp` backend through spawned node processes — the
/// same node runtime built from the same values, its mirrors sized to
/// the segment `cluster`'s shards really have; the other backends get an
/// in-process loopback — same encode/decode round-trip, no workers —
/// when `WireMode` asks.
fn make_transport(cfg: &ExecConfig, cluster: &Cluster) -> Option<Box<dyn WireTransport>> {
    let geom = Geometry::of(cluster);
    let (timeout, metrics) = (cfg.recv_timeout, cfg.metrics.enabled());
    let node_fault = cfg.inject.node_fault;
    match cfg.backend {
        Backend::Chan => Some(Box::new(ChanTransport::spawn(
            geom, timeout, metrics, node_fault,
        ))),
        Backend::Tcp => {
            let opts = fgdsm_net::SocketOpts {
                kind: None,
                timeout,
                corrupt_frame_len: cfg.inject.corrupt_frame_len,
                node_fault,
                metrics,
            };
            match fgdsm_net::SocketTransport::spawn(geom, opts) {
                Ok(t) => Some(Box::new(t)),
                Err(e) => panic!(
                    "tcp backend: cannot start node processes: {e} \
                     (check fgdsm_hpf::exec::tcp_available() before \
                     selecting Backend::Tcp)"
                ),
            }
        }
        _ if cfg.wire.is_strict() => Some(Box::new(Loopback)),
        _ => None,
    }
}

impl<'p> EngineCore<'p> {
    pub fn new(prog: &'p Program, cfg: &'p ExecConfig) -> Self {
        let (layout, metas, handles) = layout_arrays(prog, cfg.cost.words_per_page());
        let policy = match cfg.home {
            HomeAssign::RoundRobin => HomePolicy::RoundRobin,
            HomeAssign::Blocked => HomePolicy::Blocked,
            HomeAssign::DataAligned => {
                let wpp = cfg.cost.words_per_page();
                let n_pages = layout.total_words().max(wpp).div_ceil(wpp);
                let mut homes: Vec<usize> = (0..n_pages).map(|p| p % cfg.nprocs).collect(); // padding pages interleave
                for (i, a) in prog.arrays.iter().enumerate() {
                    let meta = &metas[i];
                    let last_stride = meta.layout.stride(a.extents.len() - 1);
                    let first_page = meta.base / wpp;
                    let end_page = (meta.base + a.len()).div_ceil(wpp);
                    #[allow(clippy::needless_range_loop)]
                    for page in first_page..end_page {
                        let off = (page * wpp).saturating_sub(meta.base);
                        let j = ((off / last_stride) as i64).min(a.dist_extent() as i64 - 1);
                        homes[page] = a.owner_of(j, cfg.nprocs);
                    }
                }
                HomePolicy::Explicit(homes)
            }
        };
        let mut cluster = Cluster::new(cfg.nprocs, cfg.cost, &layout, policy);
        if let Some(cap) = cfg.trace_cap {
            cluster.set_ring_capacity(cap);
        }
        let mut dsm = Dsm::with_protocol(cluster, cfg.protocol);
        dsm.set_injection(fgdsm_protocol::Injection {
            skew_send_range: cfg.inject.skew_send_range,
            skip_flush_range: cfg.inject.skip_flush_range,
            stale_owner_push: cfg.inject.stale_owner_push,
            corrupt_envelope: cfg.inject.corrupt_envelope,
            undercount_metrics: cfg.inject.undercount_metrics,
        });
        if let Some(transport) = make_transport(cfg, &dsm.cluster) {
            dsm.set_wire(transport);
        }
        // Wall-clock telemetry: a side channel over the wire seam only —
        // virtual-time state never sees it, so canonical artifacts stay
        // byte-identical with it on or off.
        if cfg.metrics.enabled() {
            dsm.enable_wire_metrics();
        }
        let workers = cfg.parallel.workers().min(cfg.nprocs);
        let n_loops = prog.par_loops().len();
        EngineCore {
            prog,
            cfg,
            metas,
            handles,
            dsm,
            env: cfg.base_env.clone(),
            scalars: prog.scalars.iter().copied().collect(),
            wpb: cfg.cost.words_per_block(),
            pool: (workers > 1).then(|| WorkerPool::new(workers)),
            supersteps: 0,
            plans: vec![None; n_loops],
            cur_step: NO_STEP,
            cur_loop: NO_LOOP,
            planned: Vec::new(),
            partials_scratch: Vec::new(),
            inspector: vec![InspectorRow::default(); n_loops],
            phases: HostPhases::default(),
        }
    }

    /// Record a contract-planned transfer of `blocks` whole cache blocks
    /// of `array`, attributed to the in-flight superstep.
    pub fn note_planned(&mut self, array: usize, blocks: u64) {
        self.planned.push(super::PlannedXfer {
            step: self.cur_step,
            loop_id: self.cur_loop,
            array: array as u32,
            blocks,
            bytes: blocks * self.cfg.cost.block_bytes as u64,
        });
    }

    /// The plan of this instance of loop `id`, with the compile-time /
    /// run-time split of §4.1: a loop with a fixed access structure is
    /// analyzed and lowered once, at its first instance; a symbolic loop
    /// re-evaluates its descriptors under the current environment.
    fn plan(&mut self, l: &ParLoop, id: usize) -> Rc<LoopPlan> {
        if let Some(hit) = self.plans[id].as_ref().filter(|_| l.is_static()).cloned() {
            self.inspector[id].hits += 1;
            return hit;
        }
        self.inspector[id].inspections += 1;
        let acc = analysis::analyze(self.prog, l, &self.env, self.cfg.nprocs);
        let t_lower = Instant::now();
        let mut fresh = plan::lower(l, acc, &self.metas, self.wpb);
        self.phases.inspect_ns += t_lower.elapsed().as_nanos() as u64;
        // Must-catch `stale_resolve_schedule`: keep a symbolic loop's
        // first plan too, and let every later instance walk its covers
        // (nothing else of it is reused).
        let stale = self.cfg.inject.stale_resolve_schedule;
        if let (true, Some(first)) = (stale, &self.plans[id]) {
            fresh.sched = first.sched.clone();
        }
        let fresh = Rc::new(fresh);
        if self.plans[id].is_none() && (l.is_static() || stale) {
            self.plans[id] = Some(fresh.clone());
        }
        fresh
    }

    /// The schedule [`EngineCore::resolve_default`] walks for this
    /// instance: the plan's (built at its first walk), unless the loop
    /// has an indirect reference — then the blocks its index arrays name
    /// right now join the read covers (and the false-sharing test), so it
    /// is rebuilt from the plan's runs every instance.
    pub fn schedule<'a>(&self, l: &ParLoop, plan: &'a LoopPlan) -> Cow<'a, ResolveSchedule> {
        if !l.refs.iter().any(ARef::is_indirect) {
            let direct = || plan::schedule(l, &plan.runs, &[], self.wpb);
            return Cow::Borrowed(plan.sched.get_or_init(direct));
        }
        let gathered = |p: usize| {
            let refs = l.refs.iter().zip(&plan.acc.sections[p]);
            refs.filter(|(r, sec)| r.is_indirect() && !sec.is_empty())
                .flat_map(|(r, _)| self.inspect_indirect(p, r, &plan.acc.iters[p]))
                .collect()
        };
        let indirect: Vec<Vec<usize>> = (0..self.cfg.nprocs).map(gathered).collect();
        Cow::Owned(plan::schedule(l, &plan.runs, &indirect, self.wpb))
    }

    /// Default-protocol access resolution: make every declared section
    /// accessible before kernels run, counting faults, by walking the
    /// plan's schedule.
    pub fn resolve_default(&mut self, l: &ParLoop, plan: &LoopPlan) {
        let t0 = Instant::now();
        let sched = self.schedule(l, plan);
        let t1 = Instant::now();
        self.walk(&sched);
        self.phases.inspect_ns += (t1 - t0).as_nanos() as u64;
        self.phases.walk_ns += t1.elapsed().as_nanos() as u64;
    }

    /// Node visiting order of the walk's sub-phases. Under the tolerated
    /// `shuffle_resolve` perturbation it is randomized per superstep — on
    /// a cached plan like on a fresh one: the protocol contract must be
    /// insensitive to which node faults first.
    pub fn resolve_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cfg.nprocs).collect();
        if let Some(seed) = self.cfg.inject.shuffle_resolve {
            fgdsm_testkit::Rng::new(seed ^ self.supersteps).shuffle(&mut order);
        }
        order
    }

    /// The walk: all nodes' writes — false-shared blocks through the
    /// multiple-writer path, the stretches between them a range at a time
    /// — then all nodes' reads.
    fn walk(&mut self, sched: &ResolveSchedule) {
        let order = self.resolve_order();
        for &p in &order {
            for &(f, e) in &sched.wcover[p] {
                let mut from = f;
                let first_multi = sched.multi.partition_point(|&m| m < f);
                for &m in sched.multi[first_multi..].iter().take_while(|&&m| m < e) {
                    if from < m {
                        self.dsm.write_access_range(p, from, m);
                    }
                    self.dsm.write_access_multi(p, m);
                    from = m + 1;
                }
                if from < e {
                    self.dsm.write_access_range(p, from, e);
                }
            }
        }
        for &p in &order {
            for &(f, e) in &sched.rcover[p] {
                self.dsm.read_access_range(p, f, e);
            }
        }
    }

    /// Inspector for indirect references (`x(idx(i))`): enumerate the
    /// element offsets node `p` will gather, by reading its (owned,
    /// current) copy of the index array. Supports the common 1-D gather.
    pub fn inspect_indirect(&self, p: usize, r: &crate::ir::ARef, iter: &[Range]) -> Vec<usize> {
        use crate::ir::Subscript;
        let [Subscript::Indirect(idx_aid, c)] = r.subs.as_slice() else {
            panic!("indirect references must be 1-D gathers x(idx(i))");
        };
        let idx_meta = &self.metas[idx_aid.0];
        let target = &self.metas[r.array.0];
        let extent = self.prog.array(r.array).len() as i64;
        let mem = self.dsm.cluster.node_mem(p);
        let mut out = Vec::with_capacity(iter[0].count() as usize);
        for i in iter[0].iter() {
            let v = mem[idx_meta.base + (i + c) as usize];
            let j = v as i64;
            assert!(
                (0..extent).contains(&j),
                "indirect index {j} out of bounds (extent {extent})"
            );
            out.push(target.base + j as usize);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Gather the canonical segment contents by directory state: copy
    /// from the node the directory records as holding current data (the
    /// gather the shared-memory backends use). Bulk-copies each page from
    /// its home — the canonical source for every `Shared`/`Multi` block
    /// and for every block traffic never moved — then patches the blocks
    /// the directory records as exclusively owned away from home, so the
    /// per-block work scales with traffic instead of segment size.
    pub fn gather_by_directory(&self) -> Vec<f64> {
        let cl = &self.dsm.cluster;
        let words = cl.seg_words();
        let wpp = cl.words_per_page();
        let mut out = vec![0.0f64; words];
        for page_start in (0..words).step_by(wpp) {
            let end = (page_start + wpp).min(words);
            let h = cl.home_of_word(page_start);
            out[page_start..end].copy_from_slice(&cl.node_mem(h)[page_start..end]);
        }
        for b in self.dsm.dirty_dir_blocks() {
            if let fgdsm_protocol::DirState::Excl { owner } = self.dsm.dir_state(b) {
                let (s, e) = cl.block_words(b);
                out[s..e].copy_from_slice(&cl.node_mem(owner)[s..e]);
            }
        }
        out
    }
}

/// Run `prog` under `cfg` with the given communication backend. When
/// `want_trace` / `want_chrome` are set, the structured event-trace JSON
/// and the Chrome timeline are also rendered and returned.
pub(super) fn run(
    prog: &Program,
    cfg: &ExecConfig,
    mut backend: Box<dyn CommBackend>,
    want_trace: bool,
    want_chrome: bool,
) -> (RunResult, Option<String>, Option<String>) {
    let wall_start = std::time::Instant::now();
    let mut core = EngineCore::new(prog, cfg);
    backend.validate(&core);
    core.phases.setup_ns = wall_start.elapsed().as_nanos() as u64;
    exec_stmts(&mut core, backend.as_mut(), &prog.body, 0);
    let t_finish = Instant::now();
    // Final synchronization so the report reflects a completed program.
    backend.finish(&mut core);
    let data = backend.gather(&mut core);
    let (pre_skipped, pre_performed) = backend.pre_stats();
    let trace = want_trace.then(|| core.dsm.cluster.trace_json());
    let chrome = want_chrome.then(|| core.dsm.cluster.trace_chrome());
    let mut report = core.dsm.cluster.report();
    let t_verify = Instant::now();
    core.phases.finish_ns = (t_verify - t_finish).as_nanos() as u64;
    verify_post_run(&core.dsm, &report);
    core.phases.post_run_ns = t_verify.elapsed().as_nanos() as u64;
    // Host time, stamped outside the deterministic virtual-time state
    // (excluded from the canonical report encoding). The post-run checks
    // are part of what an `execute` costs, so they are inside it.
    report.host = core.phases;
    report.wall_ns = wall_start.elapsed().as_nanos() as u64;
    let (wire_frames, wire_payload_bytes) = core.dsm.wire_stats();
    // Orderly wire teardown: settle the last frames in flight (their
    // wait is part of the route time read right after), collect the
    // peers' `ByeStats`, reconcile their double-entry books against ours
    // (divergence is a loud, typed panic), and merge every process's
    // metric registry under node-tagged keys. Runs with metrics on or
    // off — reconciliation is free and should always happen on an
    // orderly shutdown.
    let (metrics, wire_spans) = core.dsm.wire_finish();
    report.wire_route_ns = core.dsm.wire_route_ns();
    let (wire_batches, wire_syncs) = core.dsm.wire_batches();
    let result = RunResult {
        report,
        scalars: core.scalars,
        data,
        metas: core.metas,
        ctl: core.dsm.ctl_stats(),
        pre_skipped,
        pre_performed,
        planned: core.planned,
        inspector: core.inspector,
        plans_cached: core.plans.iter().flatten().count(),
        wire_frames,
        wire_payload_bytes,
        wire_batches,
        wire_syncs,
        metrics,
        wire_spans,
    };
    (result, trace, chrome)
}

/// Post-run invariants: the protocol left a consistent directory and the
/// trace is sane. These hold for every backend on every program; the fuzz
/// oracle (and every test) gets them for free. One function, never
/// inlined: what they cost is part of every timed `execute`
/// ([`HostPhases::post_run_ns`]), and a seam codegen cannot dissolve keeps
/// that cost from moving when unrelated code does.
#[inline(never)]
fn verify_post_run(dsm: &Dsm, report: &ClusterReport) {
    if let Err(e) = dsm.check_consistency() {
        panic!("post-run protocol consistency check failed: {e}");
    }
    assert!(
        report.traffic_balanced(),
        "post-run trace invariant violated: sent {} msgs / {} bytes but received {} msgs / {} bytes",
        report.total_msgs(),
        report.total_bytes(),
        report.total_msgs_recv(),
        report.total_bytes_recv()
    );
    assert!(
        dsm.cluster.clocks_monotone(),
        "post-run trace invariant violated: a node clock moved backwards"
    );
    // Profiler invariants: per-superstep interval deltas sum exactly to
    // the whole-run per-node stats, and the block heatmaps account for
    // every miss and byte. Pure functions of virtual-time state, so they
    // hold on every backend / scheduling combination.
    if let Err(e) = report.check_profile_invariants() {
        panic!("post-run profile invariant violated: {e}");
    }
}

/// Execute `stmts`, whose first parallel loop has profiler id `id`: ids
/// count loops in program order (the order `Program::par_loops` yields,
/// so report consumers can map them back to names), and a loop inside a
/// `Stmt::Time` keeps its id on every iteration.
fn exec_stmts(core: &mut EngineCore, backend: &mut dyn CommBackend, stmts: &[Stmt], mut id: u32) {
    for s in stmts {
        match s {
            Stmt::Par(l) => {
                exec_par(core, backend, l, id);
                id += 1;
            }
            Stmt::Time { var, count, body } => {
                let saved = core.env.get(*var);
                for t in 0..*count {
                    core.env.set(*var, t);
                    exec_stmts(core, backend, body, id);
                }
                if let Some(v) = saved {
                    core.env.set(*var, v);
                }
                id += par_loops_of(body).len() as u32;
            }
            Stmt::Scalar { name, f } => {
                let v = f(&core.scalars);
                core.scalars.insert(name, v);
                for n in 0..core.cfg.nprocs {
                    core.dsm.cluster.charge(n, 100, ChargeKind::Compute);
                }
            }
        }
    }
}

/// One superstep, in two explicit phases: the **resolve phase** (backend
/// communication against the previous superstep's state, on the driver
/// thread), then the **compute phase** (kernels on their own shards,
/// possibly threaded), then write observation, reduction, backend
/// cleanup and the superstep boundary.
fn exec_par(core: &mut EngineCore, backend: &mut dyn CommBackend, l: &ParLoop, loop_id: u32) {
    let nprocs = core.cfg.nprocs;
    let t_start = Instant::now();
    let lower_before = core.phases.inspect_ns;
    let plan_rc = core.plan(l, loop_id as usize);
    let plan = &*plan_rc;
    core.supersteps += 1;

    // Open the profiler interval: every event from here to the closing
    // `end_superstep` is stamped with (superstep index, loop id).
    let step = (core.supersteps - 1) as u32;
    core.cur_step = step;
    core.cur_loop = loop_id;
    core.dsm.cluster.begin_superstep(step, loop_id);

    // --- Resolve phase: all cross-node traffic, deterministic order. ---
    if core.cfg.inject.clear_iw_memo {
        // Tolerated perturbation: forget every first-time memoization
        // before the loop resolves, as if each loop instance were the
        // first. `clear_iw_memo` also invalidates the covered tags so the
        // RTOE excuse is not needed for copies that no longer exist.
        core.dsm.clear_iw_memo();
    }
    // Phase clock: `plan` booked the lowering and `resolve_default` books
    // its own inspect and walk time; whatever else the backend's resolve
    // takes is its own communication.
    let t_resolve = Instant::now();
    let lower_ns = core.phases.inspect_ns - lower_before;
    core.phases.analyze_ns += ((t_resolve - t_start).as_nanos() as u64).saturating_sub(lower_ns);
    let default_before = core.phases.inspect_ns + core.phases.walk_ns;
    backend.resolve(core, l, plan);
    let t_compute = Instant::now();
    let default_ns = core.phases.inspect_ns + core.phases.walk_ns - default_before;
    core.phases.ctl_ns += ((t_compute - t_resolve).as_nanos() as u64).saturating_sub(default_ns);

    // --- Compute phase: zero cross-node access from here to the join. --
    // One padded cache line per node (recycled across supersteps):
    // adjacent nodes' reduction slots never false-share even when a
    // chunk boundary puts them on different workers.
    let mut partials = std::mem::take(&mut core.partials_scratch);
    partials.clear();
    partials.resize(nprocs, CacheAligned(0.0));
    let points = compute_phase(core, l, &plan.acc, &mut partials);
    let t_post = Instant::now();
    let compute_ns = (t_post - t_compute).as_nanos() as u64;
    core.phases.compute_ns += compute_ns;
    let row = &mut core.inspector[loop_id as usize];
    row.compute_ns += compute_ns;
    row.points += points;

    backend.note_kernel_writes(core, l, plan);

    // Reduction.
    if let Some(rs) = l.reduction {
        let plain: Vec<f64> = partials.iter().map(|c| c.0).collect();
        let v = backend.reduce(core, &plain, rs.op);
        core.scalars.insert(rs.target, v);
    }
    core.partials_scratch = partials;

    // End of loop: backend cleanup + synchronization, then close the
    // profiler interval (stamps the superstep boundary into the event
    // trace, snapshots per-node stats, and runs the false-sharing scan).
    backend.post_loop(core, l, plan);
    core.dsm.cluster.end_superstep(step, loop_id);
    core.cur_step = NO_STEP;
    core.cur_loop = NO_LOOP;
    drop(plan_rc); // a symbolic loop's plan dies here, inside the clock
    core.phases.post_loop_ns += t_post.elapsed().as_nanos() as u64;
}

/// The compute phase of one superstep: run each node's kernel against
/// that node's shard, charging the (analysis-determined) compute cost to
/// the shard's clock. Per-node work touches only `&mut NodeShard` plus
/// shared immutable state, so the shards can be split across the run's
/// [`WorkerPool`]. Contiguous chunking keeps each shard on exactly one
/// worker and per-shard state makes the outcome independent of the
/// schedule — the serial path below produces byte-identical traces.
/// Loops below [`PAR_COMPUTE_MIN_POINTS`] total iterations run serially
/// regardless: waking workers would cost more than the kernels. Returns
/// that total.
fn compute_phase(
    core: &mut EngineCore,
    l: &ParLoop,
    acc: &LoopAccess,
    partials: &mut [CacheAligned<f64>],
) -> u64 {
    let EngineCore {
        cfg,
        handles,
        dsm,
        env,
        scalars,
        pool,
        ..
    } = core;
    let nprocs = cfg.nprocs;
    let (env, scalars, handles) = (&*env, &*scalars, &handles[..]);
    let cache = &cfg.cache;

    let run_node = |sh: &mut NodeShard, partial: &mut CacheAligned<f64>| {
        let p = sh.id();
        let iter = &acc.iters[p];
        if iter.iter().any(Range::is_empty) {
            return;
        }
        let points: u64 = iter.iter().map(Range::count).product();
        let ws_bytes: u64 = acc.sections[p].iter().map(|s| s.count() * 8).sum();
        let factor = cache.factor(ws_bytes);
        let cost = (points as f64 * l.cost_per_iter_ns as f64 * factor) as u64;
        sh.charge(cost, ChargeKind::Compute);
        let mut ctx = KernelCtx {
            mem: sh.mem_mut(),
            iter,
            env,
            scalars,
            partial: 0.0,
            node: p,
            nprocs,
            handles,
        };
        l.kernel.call(&mut ctx);
        partial.0 = ctx.partial;
    };

    // Volume gate: total kernel iterations this superstep, summed over
    // nodes. Tiny steps (grav's moment loops, scalar-ish updates) run
    // serially even when the config asks for workers.
    let total_points: u64 = (0..nprocs)
        .map(|p| {
            let iter = &acc.iters[p];
            if iter.iter().any(Range::is_empty) {
                0
            } else {
                iter.iter().map(Range::count).product()
            }
        })
        .sum();
    let shards = dsm.cluster.shards_mut();
    match pool {
        Some(pool) if total_points >= PAR_COMPUTE_MIN_POINTS => {
            let chunk = nprocs.div_ceil(pool.workers());
            let run_node = &run_node;
            let jobs: Vec<Job> = shards
                .chunks_mut(chunk)
                .zip(partials.chunks_mut(chunk))
                .map(|(shard_chunk, partial_chunk)| {
                    Box::new(move || {
                        for (sh, partial) in shard_chunk.iter_mut().zip(partial_chunk.iter_mut()) {
                            run_node(sh, partial);
                        }
                    }) as Job
                })
                .collect();
            pool.run(jobs);
        }
        _ => {
            for (sh, partial) in shards.iter_mut().zip(partials.iter_mut()) {
                run_node(sh, partial);
            }
        }
    }
    total_points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;

    /// The pool serves the compute phase, which puts a shard on exactly
    /// one worker: it never holds more threads than there are nodes, and
    /// a run that cannot use two spawns none.
    #[test]
    fn pool_is_sized_by_workers_and_nodes() {
        let mut b = Program::builder();
        b.array("a", &[8, 8], Dist::Block);
        let prog = b.build();
        let pool_of = |cfg: ExecConfig| {
            let core = EngineCore::new(&prog, &cfg);
            core.pool.as_ref().map(WorkerPool::workers)
        };
        assert_eq!(pool_of(ExecConfig::sm_opt(1).threads(2)), None);
        assert_eq!(pool_of(ExecConfig::sm_opt(2).threads(8)), Some(2));
        assert_eq!(pool_of(ExecConfig::sm_opt(8).threads(2)), Some(2));
        assert_eq!(pool_of(ExecConfig::sm_opt(8).serial()), None);
    }
}
