//! The backend-agnostic BSP superstep driver and the shared execution
//! state ([`EngineCore`]) every backend works against.
//!
//! The driver walks the program statement list; for each parallel loop it
//! analyzes accesses (with a compile-time cache for static loops) and
//! runs one superstep in two explicit phases:
//!
//! * **Resolve phase**: the backend's [`CommBackend::resolve`] discovers
//!   and services every cross-node fault / ctl transfer / message the
//!   loop needs, against the state the previous superstep left behind.
//!   Everything in it runs on the driver thread in a fixed order:
//!   default-protocol faults and the ctl tag transitions in node order,
//!   the bulk data movement as one plan per (source, destination) pair
//!   applied in plan order (see [`fgdsm_protocol::TransferPlan`]).
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
//! is an inspector/executor pair: [`EngineCore::inspect`] turns the loop's
//! sections into a [`ResolveSchedule`] — memoized for loops whose access
//! structure cannot change — and the executor walks it range by range
//! through [`Dsm::write_access_range`] / [`Dsm::read_access_range`].

use super::backend::CommBackend;
use super::{Backend, ExecConfig, HomeAssign, InspectorRow, RunResult};
use crate::analysis::{self, LoopAccess};
use crate::ir::{ARef, ArrayHandle, KernelCtx, ParLoop, Program, RefMode, Stmt};
use crate::plan::{covering_range, merge_block_ranges, ArrayMeta};
use fgdsm_protocol::{ChanTransport, Dsm, Geometry, Loopback, WireTransport};
use fgdsm_section::{Env, Range, Section};
use fgdsm_tempest::{
    CacheAligned, ChargeKind, Cluster, ClusterReport, HomePolicy, HostPhases, Job, NodeShard,
    SegmentLayout, WorkerPool, NO_LOOP, NO_STEP,
};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Minimum total kernel iteration count (summed over nodes) before the
/// compute phase dispatches onto worker threads: below this, even parked
/// pool workers cost more to wake than the kernels cost to run, and a
/// serial compute is faster. Determinism is unaffected either way.
pub const PAR_COMPUTE_MIN_POINTS: u64 = 2048;

/// Shared execution state: the program binding, the DSM, and the helpers
/// every backend composes (section linearization, default-protocol
/// resolution, the indirect-access inspector, directory-based gather).
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
    /// Compile-time analysis cache: loops whose access structure mentions
    /// no symbolic variables are analyzed once (keyed by loop address,
    /// stable for the duration of a run).
    analysis_cache: BTreeMap<usize, Rc<LoopAccess>>,
    /// Profiler loop ids in program order, keyed by loop address like
    /// `analysis_cache` (assigned by `run` over the body it executes).
    loop_ids: BTreeMap<usize, u32>,
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
    /// Inspector memo, keyed by loop address like `analysis_cache` and
    /// filled under the same condition (a static loop) when no reference
    /// is indirect: what such a loop's sections lower to cannot change,
    /// so it is bounded by the number of loops, never by supersteps.
    schedule_cache: BTreeMap<usize, Rc<ResolveSchedule>>,
    /// The inspector's recycled buffers, for the loops it re-inspects
    /// every superstep.
    inspect_scratch: InspectScratch,
    /// Per-loop inspector bookkeeping, indexed by profiler loop id.
    inspector: Vec<InspectorRow>,
    /// The always-on host phase clock (see [`HostPhases`]).
    phases: HostPhases,
}

/// What the default-protocol inspector derives from one loop instance:
/// which blocks each node must be able to write and to read before its
/// kernel runs, and which of them two nodes need at once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolveSchedule {
    /// Per node: the merged block ranges `[first, end)` covering its
    /// written sections, ascending.
    pub wcover: Vec<Vec<(usize, usize)>>,
    /// Per node: the same for its read sections (indirect references
    /// contribute the blocks the index array names right now).
    pub rcover: Vec<Vec<(usize, usize)>>,
    /// False-shared blocks, ascending: written by two nodes, or written
    /// by one and read by another, in this loop instance. They take the
    /// multiple-writer (twin/diff) path.
    pub multi: Vec<usize>,
}

/// Buffers the inspector reuses from one superstep to the next.
#[derive(Default)]
struct InspectScratch {
    sched: ResolveSchedule,
    /// One node's raw (unmerged) covering ranges, writes and reads.
    wraw: Vec<(usize, usize)>,
    rraw: Vec<(usize, usize)>,
    /// Boundary candidates, and per candidate the bitmask of nodes whose
    /// write / read cover contains it.
    candidates: Vec<usize>,
    wmask: Vec<u64>,
    rmask: Vec<u64>,
}

/// OR `bit` into `mask[i]` for every candidate `i` inside one of the
/// `cover` ranges (both ascending).
fn mark_covered(candidates: &[usize], cover: &[(usize, usize)], mask: &mut [u64], bit: u64) {
    let mut ci = 0;
    for &(f, e) in cover {
        ci += candidates[ci..].partition_point(|&c| c < f);
        while ci < candidates.len() && candidates[ci] < e {
            mask[ci] |= bit;
            ci += 1;
        }
    }
}

/// What the per-loop caches are keyed by: the loop's address, stable for
/// the duration of a run (the driver executes one clone of the body).
fn loop_key(l: &ParLoop) -> usize {
    l as *const ParLoop as usize
}

/// Allocate every program array into a fresh page-aligned segment layout.
/// Shared by the engine and the sequential reference interpreter so both
/// agree on absolute word addresses (and therefore on `ArrayMeta` bases).
pub(crate) fn layout_arrays(
    prog: &Program,
    cfg: &ExecConfig,
) -> (SegmentLayout, Vec<ArrayMeta>, Vec<ArrayHandle>) {
    let mut layout = SegmentLayout::new(cfg.cost.words_per_page());
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
        let (layout, metas, handles) = layout_arrays(prog, cfg);
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
            analysis_cache: BTreeMap::new(),
            loop_ids: BTreeMap::new(),
            cur_step: NO_STEP,
            cur_loop: NO_LOOP,
            planned: Vec::new(),
            partials_scratch: Vec::new(),
            schedule_cache: BTreeMap::new(),
            inspect_scratch: InspectScratch::default(),
            inspector: Vec::new(),
            phases: HostPhases::default(),
        }
    }

    /// Profiler id of a loop: its position in program order, assigned by
    /// `run` before execution starts ([`NO_LOOP`] if unregistered).
    pub fn loop_id(&self, l: &ParLoop) -> u32 {
        self.loop_ids.get(&loop_key(l)).copied().unwrap_or(NO_LOOP)
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

    /// Per-loop access analysis with the compile-time/run-time split of
    /// §4.1: loops with a fixed access structure are analyzed once;
    /// symbolic loops re-evaluate their descriptors under the current
    /// environment.
    fn analyze(&mut self, l: &ParLoop) -> Rc<LoopAccess> {
        let key = loop_key(l);
        if let Some(hit) = self.analysis_cache.get(&key) {
            return hit.clone();
        }
        let fresh = Rc::new(analysis::analyze(self.prog, l, &self.env, self.cfg.nprocs));
        if l.is_static() {
            self.analysis_cache.insert(key, fresh.clone());
        }
        fresh
    }

    /// Visit the word runs `(start, len)` (absolute) of a section, with a
    /// fallback for shapes the linearizer declines (enumerate points;
    /// only small sections occur).
    fn for_each_run(&self, array: usize, sec: &Section, mut f: impl FnMut(usize, usize)) {
        let meta = &self.metas[array];
        if let Some(lr) = meta.runs(sec) {
            return lr.iter_runs().for_each(|(s, len)| f(s, len));
        }
        assert!(
            sec.count() <= 1 << 20,
            "unoptimizable section too large to enumerate"
        );
        sec.points().iter().for_each(|pt| f(meta.offset(pt), 1));
    }

    /// The word runs of a section ([`EngineCore::for_each_run`]), collected.
    pub fn section_runs(&self, array: usize, sec: &Section) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        self.for_each_run(array, sec, |s, len| runs.push((s, len)));
        runs
    }

    /// Default-protocol access resolution: make every declared section
    /// accessible before kernels run, counting faults. The inspector's
    /// schedule comes from the memo when the loop's access structure is
    /// fixed (a static loop, no indirect reference) and is rebuilt
    /// otherwise; the executor then walks it.
    pub fn resolve_default(&mut self, l: &ParLoop, acc: &LoopAccess) {
        let t0 = Instant::now();
        let key = loop_key(l);
        let mut memo = self.schedule_cache.get(&key).cloned();
        if let Some(row) = self.inspector.get_mut(self.cur_loop as usize) {
            row.hits += u64::from(memo.is_some());
            row.inspections += u64::from(memo.is_none());
        }
        if memo.is_none() {
            let mut scratch = std::mem::take(&mut self.inspect_scratch);
            self.inspect_into(l, acc, &mut scratch);
            // `analyze` memoizes exactly the static loops. The must-catch
            // `stale_resolve_schedule` injection drops that condition, so
            // a symbolic loop's next instance walks this one's covers.
            let fixed =
                self.analysis_cache.contains_key(&key) || self.cfg.inject.stale_resolve_schedule;
            if fixed && !l.refs.iter().any(ARef::is_indirect) {
                let sched = Rc::new(std::mem::take(&mut scratch.sched));
                self.schedule_cache.insert(key, sched.clone());
                memo = Some(sched);
            }
            self.inspect_scratch = scratch;
        }
        let t1 = Instant::now();
        match memo {
            Some(sched) => self.walk(&sched),
            None => {
                let sched = std::mem::take(&mut self.inspect_scratch.sched);
                self.walk(&sched);
                self.inspect_scratch.sched = sched;
            }
        }
        self.phases.inspect_ns += (t1 - t0).as_nanos() as u64;
        self.phases.walk_ns += t1.elapsed().as_nanos() as u64;
    }

    /// Does the memo hold a schedule for `l`?
    pub fn schedule_memoized(&self, l: &ParLoop) -> bool {
        self.schedule_cache.contains_key(&loop_key(l))
    }

    /// The inspector: lower one loop instance's sections to a
    /// [`ResolveSchedule`] (a fresh one; [`EngineCore::resolve_default`]
    /// is what consults the memo).
    pub fn inspect(&mut self, l: &ParLoop, acc: &LoopAccess) -> ResolveSchedule {
        let mut scratch = std::mem::take(&mut self.inspect_scratch);
        self.inspect_into(l, acc, &mut scratch);
        let sched = scratch.sched.clone();
        self.inspect_scratch = scratch;
        sched
    }

    /// Fill `scratch.sched` for one loop instance. Per node, every
    /// reference's strided runs become raw covering block ranges (merged
    /// into the node's covers) and every raw *write* run contributes its
    /// first and last block as boundary candidates: a block written by
    /// two nodes necessarily contains a section boundary of each, so it is
    /// an extremal block of at least one raw run of every writer.
    fn inspect_into(&self, l: &ParLoop, acc: &LoopAccess, scratch: &mut InspectScratch) {
        let nprocs = self.cfg.nprocs;
        let wpb = self.wpb;
        let InspectScratch {
            sched,
            wraw,
            rraw,
            candidates,
            wmask,
            rmask,
        } = scratch;
        sched.wcover.resize_with(nprocs, Vec::new);
        sched.rcover.resize_with(nprocs, Vec::new);
        candidates.clear();
        for p in 0..nprocs {
            wraw.clear();
            rraw.clear();
            for (ri, r) in l.refs.iter().enumerate() {
                let sec = &acc.sections[p][ri];
                if sec.is_empty() {
                    continue;
                }
                if r.is_indirect() {
                    // Resolve the blocks this node actually touches by
                    // reading the index array (a real DSM faults on
                    // demand; the conservative section would grossly
                    // over-fault).
                    let offs = self.inspect_indirect(p, r, &acc.iters[p]);
                    rraw.extend(offs.into_iter().map(|off| covering_range(off, 1, wpb)));
                    continue;
                }
                let is_write = r.mode == RefMode::Write;
                let raw = if is_write { &mut *wraw } else { &mut *rraw };
                self.for_each_run(r.array.0, sec, |start, len| {
                    if len == 0 {
                        return;
                    }
                    let (f, e) = covering_range(start, len, wpb);
                    raw.push((f, e));
                    if is_write {
                        candidates.push(f);
                        candidates.push(e - 1);
                    }
                });
            }
            merge_block_ranges(wraw, &mut sched.wcover[p]);
            merge_block_ranges(rraw, &mut sched.rcover[p]);
        }
        // A candidate block needs the multiple-writer (twin/diff) path if
        // two or more nodes write it, or if one node writes it while
        // another reads it in the same interval — in the real system the
        // writer would simply re-fault after the reader's downgrade; in
        // the BSP engine the writer must keep its writable copy through
        // the read sub-phase. One pass of the sorted candidates against
        // each node's sorted covers collects who writes and who reads
        // each.
        candidates.sort_unstable();
        candidates.dedup();
        wmask.clear();
        wmask.resize(candidates.len(), 0);
        rmask.clear();
        rmask.resize(candidates.len(), 0);
        for p in 0..nprocs {
            mark_covered(candidates, &sched.wcover[p], wmask, 1 << p);
            mark_covered(candidates, &sched.rcover[p], rmask, 1 << p);
        }
        sched.multi.clear();
        sched.multi.extend(
            candidates
                .iter()
                .zip(wmask.iter().zip(rmask.iter()))
                .filter(|&(_, (&w, &r))| w.count_ones() >= 2 || (w != 0 && r & !w != 0))
                .map(|(&b, _)| b),
        );
    }

    /// Node visiting order of the executor's sub-phases. Under the
    /// tolerated `shuffle_resolve` perturbation it is randomized per
    /// superstep — on a memo hit like on a miss: the protocol contract
    /// must be insensitive to which node faults first.
    pub fn resolve_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cfg.nprocs).collect();
        if let Some(seed) = self.cfg.inject.shuffle_resolve {
            fgdsm_testkit::Rng::new(seed ^ self.supersteps).shuffle(&mut order);
        }
        order
    }

    /// The executor: all nodes' writes — false-shared blocks through the
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
    let body = prog.body.clone();
    // Register profiler loop ids over the body actually executed (the
    // clone), in program order — the same order `Program::par_loops`
    // yields, so report consumers can map ids back to loop names.
    for (i, l) in crate::ir::par_loops_of(&body).into_iter().enumerate() {
        core.loop_ids.insert(loop_key(l), i as u32);
    }
    core.inspector = vec![InspectorRow::default(); core.loop_ids.len()];
    core.phases.setup_ns = wall_start.elapsed().as_nanos() as u64;
    exec_stmts(&mut core, backend.as_mut(), &body);
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
        schedules_cached: core.schedule_cache.len(),
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

fn exec_stmts(core: &mut EngineCore, backend: &mut dyn CommBackend, stmts: &[Stmt]) {
    for s in stmts {
        match s {
            Stmt::Par(l) => exec_par(core, backend, l),
            Stmt::Time { var, count, body } => {
                let saved = core.env.get(*var);
                for t in 0..*count {
                    core.env.set(*var, t);
                    exec_stmts(core, backend, body);
                }
                if let Some(v) = saved {
                    core.env.set(*var, v);
                }
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
fn exec_par(core: &mut EngineCore, backend: &mut dyn CommBackend, l: &ParLoop) {
    let nprocs = core.cfg.nprocs;
    let t_start = Instant::now();
    let acc = core.analyze(l);
    let acc = &*acc;
    core.supersteps += 1;

    // Open the profiler interval: every event from here to the closing
    // `end_superstep` is stamped with (superstep index, loop id).
    let step = (core.supersteps - 1) as u32;
    let loop_id = core.loop_id(l);
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
    // Phase clock: `resolve_default` books its own inspect and walk time;
    // whatever else the backend's resolve took is its own communication.
    let t_resolve = Instant::now();
    core.phases.analyze_ns += (t_resolve - t_start).as_nanos() as u64;
    let default_before = core.phases.inspect_ns + core.phases.walk_ns;
    backend.resolve(core, l, acc);
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
    compute_phase(core, l, acc, &mut partials);
    let t_post = Instant::now();
    core.phases.compute_ns += (t_post - t_compute).as_nanos() as u64;

    backend.note_kernel_writes(core, l, acc);

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
    backend.post_loop(core, l, acc);
    core.dsm.cluster.end_superstep(step, loop_id);
    core.cur_step = NO_STEP;
    core.cur_loop = NO_LOOP;
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
/// regardless: waking workers would cost more than the kernels.
fn compute_phase(
    core: &mut EngineCore,
    l: &ParLoop,
    acc: &LoopAccess,
    partials: &mut [CacheAligned<f64>],
) {
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
