//! The backend-agnostic BSP superstep driver and the shared execution
//! state ([`EngineCore`]) every backend works against.
//!
//! The driver walks the program statement list; for each parallel loop it
//! takes the loop's [`LoopPlan`] — analysis and lowering, kept in a table
//! indexed by loop id and, like each schedule in it, rebuilt in place
//! exactly when the key of its inputs moves ([`EngineCore::plan`],
//! [`plan::ScheduleSlot`]) — and runs one superstep in two explicit phases:
//!
//! * **Resolve phase**: the backend's [`CommBackend::resolve`] services
//!   every cross-node fault / ctl transfer / message the loop needs,
//!   against the state the previous superstep left behind. Everything in
//!   it runs on the driver thread in the order of a schedule the plan
//!   holds ([`crate::plan`]): default-protocol faults and the ctl tag
//!   transitions in node order, the bulk data movement one
//!   [`fgdsm_protocol::TransferPlan`] per (source, destination) pair.
//! * **Compute phase** (`compute_phase`): each node's kernel runs
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
//! The default-protocol part of a resolve (`EngineCore::resolve_default`)
//! walks the plan's [`ResolveSchedule`] range by range through
//! [`Dsm::write_access_range`] / [`Dsm::read_access_range`]: per node,
//! its kept ranges merged with the blocks homed at it that it has lost
//! ([`Dsm::lost_homed`]), clipped to its runs.

use super::backend::CommBackend;
use super::{Backend, ExecConfig, InspectorRow, RunResult};
use crate::analysis::{self, LoopAccess};
use crate::dist::Dist;
use crate::ir::{
    par_loops_of, ARef, ArrayHandle, KernelCtx, ParLoop, Program, RefMode, Stmt, Subscript,
};
use crate::plan::{self, ArrayMeta, LoopPlan, Reach, ResolveSchedule};
use fgdsm_protocol::{ChanTransport, Dsm, Fault, Geometry, Loopback, WireError, WireTransport};
use fgdsm_section::{Env, Range};
use fgdsm_tempest::{
    CacheAligned, CacheModel, ChargeKind, Cluster, ClusterReport, HomePolicy, HostPhases, Job,
    NodeShard, SegmentLayout, WorkerPool, NO_LOOP, NO_STEP,
};
use std::cell::Ref;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Minimum total kernel iteration count (summed over nodes) before the
/// compute phase dispatches onto worker threads: below this, even parked
/// pool workers cost more to wake than the kernels cost to run, and a
/// serial compute is faster. Determinism is unaffected either way.
pub(crate) const PAR_COMPUTE_MIN_POINTS: u64 = 2048;

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
    /// one plan per loop, built at its first instance and kept for the
    /// run, re-evaluated in place when its key moves
    /// ([`EngineCore::plan`]) — so the table is bounded by the number of
    /// loops, never by supersteps.
    plans: Vec<Option<Rc<LoopPlan>>>,
    /// Per array, how many loop instances named it in a write reference:
    /// the input version of an indirect loop's default schedule.
    writes: Vec<u64>,
    /// Per node, the block ranges of the pages it owns words of but is
    /// not home to, ascending (fixed by the home map): with its
    /// transfers and gathers, where its cover leaves its own pages.
    foreign: Vec<Vec<(usize, usize)>>,
    /// The walk's node order, refilled per superstep
    /// ([`EngineCore::resolve_order`]); the ranges of one node's walk in
    /// one mode, and the lost runs of one of its hulls, refilled per node
    /// and mode ([`EngineCore::reach_into`]).
    order: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    lost: Vec<(usize, usize)>,
    /// Superstep index of the in-flight superstep ([`NO_STEP`] between
    /// loops); stamps [`PlannedXfer`](super::PlannedXfer) records.
    pub cur_step: u32,
    /// Loop id of the in-flight superstep ([`NO_LOOP`] between loops).
    pub cur_loop: u32,
    /// Contract-planned transfer volumes, recorded by the backends via
    /// `EngineCore::note_planned` — the "predicted" side of the
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
            dist: a.dist,
        });
        handles.push(ArrayHandle::new(base, &a.extents));
    }
    (layout, metas, handles)
}

/// Per node, the block ranges of the pages it owns words of but is not
/// home to under `homes` (per page), ascending and coalesced: pages of a
/// CYCLIC array that interleave owners, the edge pages of a BLOCK
/// array's chunks, and every page of a replicated array not homed at the
/// node.
fn foreign_pages(
    prog: &Program,
    metas: &[ArrayMeta],
    homes: &[usize],
    cfg: &ExecConfig,
) -> Vec<Vec<(usize, usize)>> {
    let (nprocs, wpp) = (cfg.nprocs, cfg.cost.words_per_page());
    let bpp = wpp / cfg.cost.words_per_block();
    let mut foreign = vec![Vec::new(); nprocs];
    for (a, meta) in prog.arrays.iter().zip(metas) {
        let col = meta.layout.stride(a.extents.len() - 1);
        let end = meta.base + a.len();
        let pages = homes.iter().enumerate().take(end.div_ceil(wpp));
        for (page, &home) in pages.skip(meta.base / wpp) {
            let (lo, hi) = ((page * wpp).max(meta.base), ((page + 1) * wpp).min(end));
            let (j0, j1) = ((lo - meta.base) / col, (hi - 1 - meta.base) / col);
            let owner = |j: usize| a.owner_of(j as i64, nprocs);
            let owners: u64 = match a.dist {
                Dist::Replicated => u64::MAX,
                Dist::Cyclic if j1 - j0 + 1 >= nprocs => u64::MAX,
                Dist::Cyclic => (j0..=j1).fold(0, |m, j| m | 1 << owner(j)),
                Dist::Block => (owner(j0)..=owner(j1)).fold(0, |m, q| m | 1 << q),
            };
            for (q, pages) in foreign.iter_mut().enumerate() {
                if owners >> q & 1 == 0 || home == q {
                    continue;
                }
                match pages.last_mut() {
                    Some((_, e)) if *e == page * bpp => *e += bpp,
                    _ => pages.push((page * bpp, (page + 1) * bpp)),
                }
            }
        }
    }
    foreign
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
    let (node_fault, faults) = (cfg.inject.node_fault, cfg.inject.faults);
    match cfg.backend {
        Backend::Chan => Some(Box::new(ChanTransport::spawn(
            geom, timeout, metrics, node_fault, faults,
        ))),
        Backend::Tcp => {
            let opts = fgdsm_net::SocketOpts {
                kind: None,
                timeout,
                faults,
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
        // The HPF runtime places pages to match each array's
        // distribution, so owners of BLOCK-distributed data are home to
        // their own pages (CYCLIC arrays still interleave owners within a
        // page). This is how the paper's system behaves: first writes by
        // owners do not fault; `lu` pays page *mapping* cost, not
        // ownership misses.
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
        let foreign = foreign_pages(prog, &metas, &homes, cfg);
        let policy = HomePolicy::Explicit(homes);
        let mut cluster = Cluster::new(cfg.nprocs, cfg.cost, &layout, policy);
        if let Some(cap) = cfg.trace_cap {
            cluster.set_ring_capacity(cap);
        }
        let mut dsm = Dsm::with_protocol(cluster, cfg.protocol);
        dsm.faults = cfg.inject.faults;
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
            writes: vec![0; prog.arrays.len()],
            foreign,
            order: Vec::new(),
            ranges: Vec::new(),
            lost: Vec::new(),
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
    pub(crate) fn note_planned(&mut self, array: usize, blocks: u64) {
        self.planned.push(super::PlannedXfer {
            step: self.cur_step,
            loop_id: self.cur_loop,
            array: array as u32,
            blocks,
            bytes: blocks * self.cfg.cost.block_bytes as u64,
        });
    }

    /// The plan of this instance of loop `id`, with the compile-time /
    /// run-time split of §4.1. Every loop has one plan for the whole run,
    /// built at its first instance and keyed by the variables its
    /// analysis reads (none for a static loop). An instance under the
    /// values of its last evaluation reuses it as it is; any other
    /// re-evaluates it in place — analysis and lowering — and bumps its
    /// version, so each schedule in it is refilled at its next use. An
    /// instance allocates nothing once the plan is warm.
    ///
    /// # Panics
    ///
    /// If the plan is still shared when an instance re-evaluates it: some
    /// schedule outlived its instance.
    pub fn plan(&mut self, l: &ParLoop, id: usize) -> Rc<LoopPlan> {
        let row = &mut self.inspector[id];
        let env = &self.env;
        let kept = self.plans[id].get_or_insert_with(Rc::default);
        if kept.version > 0 && kept.inputs.iter().all(|&(v, x)| env.get(v) == x) {
            row.hits += 1;
            return Rc::clone(kept);
        }
        row.inspections += 1;
        let plan = Rc::get_mut(kept).unwrap_or_else(|| {
            panic!(
                "loop `{}`: its plan is re-evaluated in place, but a schedule of \
                 the previous instance still holds it",
                l.name
            )
        });
        if plan.version == 0 {
            plan.inputs = l.analysis_vars().into_iter().map(|v| (v, None)).collect();
        }
        plan.inputs.iter_mut().for_each(|(v, x)| *x = env.get(*v));
        plan.version += 1;
        analysis::analyze_into(self.prog, l, env, self.cfg.nprocs, &mut plan.acc);
        let t_lower = Instant::now();
        plan::lower_into(l, plan, &self.metas, self.wpb);
        self.phases.inspect_ns += t_lower.elapsed().as_nanos() as u64;
        Rc::clone(kept)
    }

    /// The schedule `EngineCore::resolve_default` walks for this
    /// instance, from the plan's slot. The blocks an indirect reference
    /// gathers join the kept read ranges (and the false-sharing test) as
    /// the index arrays name them at the build, so the slot's input
    /// version is the write count of the loop's index arrays.
    pub fn schedule<'a>(&self, l: &ParLoop, plan: &'a LoopPlan) -> Ref<'a, ResolveSchedule> {
        let index_writes = l.refs.iter().flat_map(|r| &r.subs).map(|s| match s {
            Subscript::Indirect(idx, _) => self.writes[idx.0],
            _ => 0,
        });
        // One key for the whole run: the slot keeps its first build.
        let key = match self.cfg.inject.faults.has(Fault::StaleResolveSchedule) {
            true => (0, 0),
            false => (plan.version, index_writes.sum()),
        };
        plan.sched.get_or_fill(key, |sched| {
            let gathered = |p: usize| {
                let refs = l.refs.iter().zip(&plan.acc.sections[p]);
                refs.filter(|(r, sec)| r.is_indirect() && !sec.is_empty())
                    .flat_map(|(r, _)| self.inspect_indirect(p, r, &plan.acc.iters[p]))
                    .collect()
            };
            let indirect: Vec<Vec<usize>> = match l.refs.iter().any(ARef::is_indirect) {
                true => (0..self.cfg.nprocs).map(gathered).collect(),
                false => Vec::new(),
            };
            let (foreign, metas) = (&self.foreign, &self.metas);
            plan::schedule_into(l, plan, &indirect, foreign, metas, self.wpb, sched)
        })
    }

    /// Default-protocol access resolution: make every declared section
    /// accessible before kernels run, counting faults, by walking the
    /// plan's schedule.
    pub(crate) fn resolve_default(&mut self, l: &ParLoop, plan: &LoopPlan) {
        let t0 = Instant::now();
        let sched = self.schedule(l, plan);
        let t1 = Instant::now();
        self.walk(l, plan, &sched);
        self.phases.inspect_ns += (t1 - t0).as_nanos() as u64;
        self.phases.walk_ns += t1.elapsed().as_nanos() as u64;
    }

    /// Node visiting order of the walk's sub-phases, refilled in place.
    /// Under the tolerated `shuffle_resolve` perturbation it is
    /// randomized per superstep — on a cached plan like on a fresh one:
    /// the protocol contract must be insensitive to which node faults
    /// first.
    pub fn resolve_order(&mut self) -> &[usize] {
        self.order.clear();
        self.order.extend(0..self.cfg.nprocs);
        if let Some(seed) = self.cfg.inject.shuffle_resolve {
            fgdsm_testkit::Rng::new(seed ^ self.supersteps).shuffle(&mut self.order);
        }
        &self.order
    }

    /// The walk: all nodes' writes — false-shared blocks through the
    /// multiple-writer path, the stretches between them a range at a
    /// time — then all nodes' reads, each node's ranges from
    /// [`EngineCore::reach_into`].
    fn walk(&mut self, l: &ParLoop, plan: &LoopPlan, sched: &ResolveSchedule) {
        self.resolve_order();
        let (order, mut ranges) = (
            std::mem::take(&mut self.order),
            std::mem::take(&mut self.ranges),
        );
        for &p in &order {
            self.reach_into(l, plan, p, RefMode::Write, &sched.writes[p], &mut ranges);
            for &(f, e) in &ranges {
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
            self.reach_into(l, plan, p, RefMode::Read, &sched.reads[p], &mut ranges);
            for &(f, e) in &ranges {
                self.dsm.read_access_range(p, f, e);
            }
        }
        (self.order, self.ranges) = (order, ranges);
    }

    /// Refill `ranges` with the blocks node `p`'s walk in `mode` visits,
    /// ascending and merged: `reach`'s kept ranges, and inside its hulls
    /// the blocks its runs touch that are homed at it but lost
    /// ([`Dsm::lost_homed`]) — the only blocks of its own pages an access
    /// can fault on. So it visits, in the same order, every block its
    /// cover's walk would fault on. A write visits the whole of each hull
    /// instead, clipped the same way, when the protocol acts on blocks a
    /// writer holds ([`Dsm::skips_held`]): then the walk is the cover.
    /// Servicing one block changes no other block's state at `p`, so the
    /// scan at the start of `p`'s turn is exact.
    fn reach_into(
        &mut self,
        l: &ParLoop,
        plan: &LoopPlan,
        p: usize,
        mode: RefMode,
        reach: &Reach,
        ranges: &mut Vec<(usize, usize)>,
    ) {
        let write = mode == RefMode::Write;
        let whole = write && !self.dsm.skips_held();
        ranges.clear();
        ranges.extend_from_slice(&reach.kept);
        let lost = &mut self.lost;
        for &(array, first, end) in &reach.hulls {
            lost.clear();
            match whole {
                true => lost.push((first, end)),
                // Homes never win back what they lost.
                false if self.cfg.inject.faults.has(Fault::LostHomeSkipped) => {}
                false => self
                    .dsm
                    .lost_homed(p, first, end, write, |s, t| lost.push((s, t))),
            }
            if lost.is_empty() {
                continue;
            }
            // Clipped to its runs of `array` in `mode`: each group to the
            // lost runs it reaches into, its runs there in closed form.
            let refs = l.refs.iter().zip(&plan.runs[p]);
            for (_, lr) in refs.filter(|(r, _)| r.mode == mode && r.array.0 == array) {
                lr.runs
                    .iter()
                    .for_each(|g| g.blocks_within(lost, self.wpb, ranges));
            }
        }
        plan::merge_block_ranges(ranges);
    }

    /// Inspector for indirect references (`x(idx(i))`): enumerate the
    /// element offsets node `p` will gather, by reading its (owned,
    /// current) copy of the index array. Supports the common 1-D gather.
    ///
    /// Precondition of the default schedule's key: the elements read are
    /// ones node `p` owns and writes itself (the loop is distributed like
    /// the index array, as every gather of the suite and of the fuzz
    /// corpus is), so its copy changes only when some loop instance
    /// writes the array — which bumps the array's write count.
    pub fn inspect_indirect(&self, p: usize, r: &ARef, iter: &[Range]) -> Vec<usize> {
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
    ///
    /// The output comes from the segment arena
    /// ([`fgdsm_tempest::arena::output`]) with whatever an earlier gather
    /// left in it: the page copies overwrite every word.
    pub(crate) fn gather_by_directory(&self) -> Vec<f64> {
        let cl = &self.dsm.cluster;
        let words = cl.seg_words();
        let wpp = cl.words_per_page();
        let mut out = fgdsm_tempest::arena::output(words);
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
/// and the Chrome timeline are also rendered and returned. The run's
/// first wire failure is returned instead, read at each phase boundary
/// ([`Dsm::wire_ok`]), with no partial artifact; a panic is a bug.
pub(super) fn run(
    prog: &Program,
    cfg: &ExecConfig,
    mut backend: Box<dyn CommBackend>,
    want_trace: bool,
    want_chrome: bool,
) -> Result<(RunResult, Option<String>, Option<String>), WireError> {
    let wall_start = std::time::Instant::now();
    let mut core = EngineCore::new(prog, cfg);
    // Only the trace documents read the ring; the report reads the folds.
    if !(want_trace || want_chrome) {
        core.dsm.cluster.set_ring_capacity(0);
    }
    backend.validate(&core);
    core.phases.setup_ns = wall_start.elapsed().as_nanos() as u64;
    exec_stmts(&mut core, backend.as_mut(), &prog.body, 0)?;
    let t_finish = Instant::now();
    // Final synchronization so the report reflects a completed program.
    backend.finish(&mut core);
    core.dsm.wire_ok()?;
    let data = backend.gather(&mut core);
    let (pre_skipped, pre_performed) = backend.pre_stats();
    let trace = want_trace.then(|| core.dsm.cluster.trace_json());
    let chrome = want_chrome.then(|| core.dsm.cluster.trace_chrome());
    let mut report = core.dsm.cluster.report();
    let t_verify = Instant::now();
    core.phases.finish_ns = (t_verify - t_finish).as_nanos() as u64;
    verify_post_run(&core.dsm, &report);
    let t_recycle = Instant::now();
    core.phases.post_run_ns = (t_recycle - t_verify).as_nanos() as u64;
    // A run that got this far hands its segments to the arena for the
    // next execute of its shape; one that failed before drops them.
    core.dsm.cluster.recycle();
    core.phases.finish_ns += t_recycle.elapsed().as_nanos() as u64;
    // Host time, stamped outside the deterministic virtual-time state
    // (excluded from the canonical report encoding). The post-run checks
    // are part of what an `execute` costs, so they are inside it.
    report.host = core.phases;
    report.wall_ns = wall_start.elapsed().as_nanos() as u64;
    let (wire_frames, wire_payload_bytes) = core.dsm.wire_stats();
    // Orderly wire teardown: settle the last frames in flight (their
    // wait is part of the route time read right after), collect the
    // peers' `ByeStats`, reconcile their double-entry books against ours
    // (divergence fails the run with a typed `StatsMismatch`), and bring
    // every worker's telemetry table home beside ours. Runs with metrics
    // on or off — reconciliation is free and should always happen on an
    // orderly shutdown.
    let (metrics, wire_spans) = core.dsm.wire_finish()?;
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
    Ok((result, trace, chrome))
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
fn exec_stmts(
    core: &mut EngineCore,
    backend: &mut dyn CommBackend,
    stmts: &[Stmt],
    mut id: u32,
) -> Result<(), WireError> {
    for s in stmts {
        match s {
            Stmt::Par(l) => {
                exec_par(core, backend, l, id)?;
                id += 1;
            }
            Stmt::Time { var, count, body } => {
                let saved = core.env.get(*var);
                for t in 0..*count {
                    core.env.set(*var, t);
                    exec_stmts(core, backend, body, id)?;
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
    Ok(())
}

/// One superstep, in two explicit phases: the **resolve phase** (backend
/// communication against the previous superstep's state, on the driver
/// thread), then the **compute phase** (kernels on their own shards,
/// possibly threaded), then write observation, reduction, backend
/// cleanup and the superstep boundary. A wire failure kept in either
/// communication phase ends the superstep there.
fn exec_par(
    core: &mut EngineCore,
    backend: &mut dyn CommBackend,
    l: &ParLoop,
    loop_id: u32,
) -> Result<(), WireError> {
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
    // No kernel runs on a half-resolved superstep.
    core.dsm.wire_ok()?;
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
    for r in l.refs.iter().filter(|r| r.mode == RefMode::Write) {
        core.writes[r.array.0] += 1;
    }

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
    core.dsm.wire_ok()?;
    core.dsm.cluster.end_superstep(step, loop_id);
    core.cur_step = NO_STEP;
    core.cur_loop = NO_LOOP;
    // The instance lets go of its plan: the next one may re-evaluate it.
    drop(plan_rc);
    core.phases.post_loop_ns += t_post.elapsed().as_nanos() as u64;
    Ok(())
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
    let cache = CacheModel::paper();

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

    /// A frame the decoder refuses is the run's first error, which the
    /// driver returns as a value: no unwind to catch, no kernel run on
    /// the superstep it broke.
    #[test]
    fn a_refused_frame_is_returned_not_unwound() {
        use crate::ir::{CompDist, Kernel};
        use fgdsm_section::SymRange;
        let mut b = Program::builder();
        let a = b.array("a", &[8, 64], Dist::Block);
        let c = b.array("c", &[8, 64], Dist::Block);
        b.stmt(Stmt::Par(ParLoop {
            name: "shift",
            iter: vec![SymRange::new(0, 7), SymRange::new(1, 63)],
            dist: CompDist::Owner(c),
            refs: vec![
                ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, -1)]),
                ARef::write(c, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
            ],
            kernel: Kernel::new(|_| panic!("a kernel ran after a refused frame")),
            cost_per_iter_ns: 10,
            reduction: None,
        }));
        let prog = b.build();
        let inject = super::super::InjectConfig {
            faults: fgdsm_protocol::Faults::default().with(Fault::CorruptEnvelope),
            ..Default::default()
        };
        let cfg = ExecConfig::sm_unopt(2).strict().with_inject(inject);
        match run(&prog, &cfg, super::super::make_backend(&cfg), false, false).err() {
            Some(WireError::BadVersion(_)) => {}
            other => panic!("want the decoder's BadVersion, got {other:?}"),
        }
    }
}
