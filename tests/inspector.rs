//! Resolve as lower → schedule → execute: the default protocol's
//! schedule against the per-block inspector's covers it replaced, every
//! re-evaluated plan and every kept or refilled schedule against a fresh
//! build, the per-loop table's discipline, the tolerated perturbations on
//! a cached plan, and the host phase clock.
//!
//! The old inspector survives here only — as the oracle of
//! [`the_schedule_keeps_what_the_old_covers_leave_off_home`], written
//! against the engine's public helpers. (It cannot be a `#[cfg(test)]`
//! item of `fgdsm-hpf`: that crate's unit tests cannot see the suite's or
//! the fuzzer's programs.)

use fgdsm::apps::{extended_suite, jacobi, suite, Scale};
use fgdsm::hpf::exec::backend::CommBackend;
use fgdsm::hpf::exec::engine::EngineCore;
use fgdsm::hpf::exec::mp::Mp;
use fgdsm::hpf::exec::sm_opt::SmOpt;
use fgdsm::hpf::plan::{
    ctl_schedule_into, lower, mp_schedule_into, CtlSchedule, LoopPlan, MpSchedule, Reach,
};
use fgdsm::hpf::{
    analyze, covering_blocks, execute, execute_reference, execute_with, ARef, Backend, CompDist,
    Dist, ExecConfig, InjectConfig, Kernel, KernelCtx, LoopAccess, OptLevel, ParLoop, Program,
    RefMode, RunResult, Stmt, Subscript, Transfer,
};
use fgdsm::section::{Affine, LinearRanges, StridedRange, SymRange, Var};
use fgdsm::tempest::ReduceOp;
use fgdsm_fuzz::{
    case_seed, gen_spec, ArraySpec, FStmt, Fault, Faults, FuzzSpec, LoopSpec, ReadSpec,
};
use fgdsm_testkit::{Rng, BASE_SEED};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

const NP: usize = 8;

/// What the old inspector made of a loop instance: per node the merged
/// block ranges covering its written sections, the same for its read
/// sections and gathers, and the false-shared blocks.
#[derive(Default)]
struct Covers {
    wcover: Vec<Vec<(usize, usize)>>,
    rcover: Vec<Vec<(usize, usize)>>,
    multi: Vec<usize>,
}

/// The inspector as it was before it was split from the executor: one
/// `Vec` of runs per reference re-wrapped as single-run `StridedRange`s,
/// a `BTreeSet` of boundary candidates, and per candidate a binary search
/// of every node's covers.
fn old_inspector(core: &EngineCore, l: &ParLoop, acc: &LoopAccess) -> Covers {
    let nprocs = core.cfg.nprocs;
    let wpb = core.wpb;
    let single = |base, run_len| StridedRange {
        base,
        run_len,
        stride: 0,
        count: 1,
    };
    let mut sched = Covers::default();
    let mut candidates: BTreeSet<usize> = BTreeSet::new();
    for p in 0..nprocs {
        let mut wruns = LinearRanges::empty();
        let mut rruns = LinearRanges::empty();
        for (ri, r) in l.refs.iter().enumerate() {
            let sec = &acc.sections[p][ri];
            if sec.is_empty() {
                continue;
            }
            if r.is_indirect() {
                for off in core.inspect_indirect(p, r, &acc.iters[p]) {
                    rruns.runs.push(single(off, 1));
                }
                continue;
            }
            let runs: Vec<_> = core.metas[r.array.0].runs(sec).iter_runs().collect();
            if r.mode == RefMode::Write {
                for &(s, len) in &runs {
                    if len > 0 {
                        candidates.insert(s / wpb);
                        candidates.insert((s + len - 1) / wpb);
                    }
                }
            }
            let target = match r.mode {
                RefMode::Write => &mut wruns,
                RefMode::Read => &mut rruns,
            };
            target
                .runs
                .extend(runs.into_iter().map(|(s, len)| single(s, len)));
        }
        sched.wcover.push(covering_blocks(&wruns, wpb));
        sched.rcover.push(covering_blocks(&rruns, wpb));
    }
    sched.multi = candidates
        .into_iter()
        .filter(|&b| {
            let writers: Vec<usize> = (0..nprocs)
                .filter(|&p| contains(&sched.wcover[p], b))
                .collect();
            writers.len() >= 2
                || (writers.len() == 1
                    && (0..nprocs).any(|p| p != writers[0] && contains(&sched.rcover[p], b)))
        })
        .collect();
    sched
}

/// Does the ascending, merged `ranges` hold block `b`?
fn contains(ranges: &[(usize, usize)], b: usize) -> bool {
    let idx = ranges.partition_point(|&(_, e)| e <= b);
    idx < ranges.len() && ranges[idx].0 <= b
}

/// The default schedule's invariant against the old covers, per node and
/// mode: its kept ranges lie in the node's cover, and every block of the
/// cover outside them is homed at the node and inside one of its hulls
/// (so the walk's scan of lost homed blocks sees it). Returns how many
/// blocks the walk leaves to that scan.
fn check_reach(
    core: &EngineCore,
    p: usize,
    reach: &Reach,
    cover: &[(usize, usize)],
    at: &str,
) -> usize {
    let blocks =
        |ranges: &[(usize, usize)]| ranges.iter().flat_map(|&(f, e)| f..e).collect::<Vec<_>>();
    for b in blocks(&reach.kept) {
        assert!(
            contains(cover, b),
            "{at}: node {p} keeps block {b} outside its cover"
        );
    }
    let left: Vec<usize> = blocks(cover)
        .into_iter()
        .filter(|&b| !contains(&reach.kept, b))
        .collect();
    for &b in &left {
        let home = core.dsm.cluster.home_of_block(b);
        assert_eq!(
            home, p,
            "{at}: node {p} leaves block {b} of node {home}'s to the lost scan"
        );
        let in_hull = reach.hulls.iter().any(|&(_, f, e)| (f..e).contains(&b));
        assert!(in_hull, "{at}: node {p}'s block {b} is in no hull");
    }
    left.len()
}

/// What a [`Probe`] saw at one superstep's resolve.
struct Seen {
    loop_id: u32,
    /// Did the instance build or refill the default protocol's schedule,
    /// and its backend's (the contract's, or message passing's)? (At
    /// most once each: the probe asks under the keys the backend does.)
    built: (bool, bool),
    order: Vec<usize>,
    multi_blocks: usize,
    /// Cover blocks the default schedule left to the lost scan, and kept
    /// ranges it listed.
    homed_blocks: usize,
    kept: usize,
    /// Did a section stride dim 0 (the shape `linearize` used to decline,
    /// now a group of single-element runs)?
    unit_runs: bool,
    /// Which plan the instance ran on (its address: a loop's plan is one
    /// `Rc` for the whole run).
    plan: usize,
    /// The contract's call sites (pushes and flushes) this instance.
    ctl_sites: usize,
    /// Which terms of the schedule's candidate filter its false-shared
    /// blocks exercise.
    terms: Terms,
    /// Transfers of the instance's access analysis, and how many of them
    /// equal an earlier one.
    transfers: usize,
    duplicates: usize,
    /// Did the analysis's transfers equal [`algebra_transfers`]'?
    algebraic: bool,
}

/// The non-owner transfers of `acc` by the general section algebra —
/// `section − owned(p)` split by `∩ owned(q)`, all dimensions — with each
/// user's duplicates dropped, first occurrence kept: reads, then writes.
/// `analyze` acts on the distributed dimension alone, which the owner
/// sections' shape makes equal.
fn algebra_transfers(prog: &Program, l: &ParLoop, acc: &LoopAccess) -> [Vec<Transfer>; 2] {
    let nprocs = acc.sections.len();
    let mut out = [vec![], vec![]];
    for (p, secs) in acc.sections.iter().enumerate() {
        for (r, sec) in l.refs.iter().zip(secs) {
            let decl = prog.array(r.array);
            if decl.dist == Dist::Replicated || sec.is_empty() {
                continue;
            }
            let list = &mut out[usize::from(r.mode == RefMode::Write)];
            for piece in sec.subtract(&decl.owner_section(p, nprocs)) {
                for q in (0..nprocs).filter(|&q| q != p) {
                    let Some(section) = piece.intersect(&decl.owner_section(q, nprocs)) else {
                        continue;
                    };
                    let t = Transfer {
                        array: r.array.0,
                        owner: q,
                        user: p,
                        section,
                        indirect: r.is_indirect(),
                    };
                    if !list.contains(&t) {
                        list.push(t);
                    }
                }
            }
        }
    }
    out
}

/// False-shared blocks of one superstep, by the term of the candidate
/// filter (DESIGN §5c) that lets them through: the block straddles an
/// ownership boundary of a BLOCK or of a CYCLIC array, or belongs to a
/// replicated one; or a non-owner-write transfer covers it; or one node
/// gathers it through an index array while another writes it.
#[derive(Clone, Copy, Debug, Default)]
struct Terms {
    block_edge: usize,
    cyclic_edge: usize,
    replicated: usize,
    nonowner_write: usize,
    gathered: usize,
}

impl Terms {
    fn add(&mut self, o: Terms) {
        self.block_edge += o.block_edge;
        self.cyclic_edge += o.cyclic_edge;
        self.replicated += o.replicated;
        self.nonowner_write += o.nonowner_write;
        self.gathered += o.gathered;
    }

    fn of(core: &EngineCore, l: &ParLoop, plan: &LoopPlan, sched: &Covers) -> Terms {
        let (wpb, nprocs) = (core.wpb, core.cfg.nprocs);
        let holds =
            |cover: &[(usize, usize)], b: usize| cover.iter().any(|&(f, e)| (f..e).contains(&b));
        let gathers = |p: usize, b: usize| {
            let refs = l.refs.iter().zip(&plan.acc.sections[p]);
            let mut indirect = refs.filter(|(r, sec)| r.is_indirect() && !sec.is_empty());
            indirect.any(|(r, _)| {
                let offsets = core.inspect_indirect(p, r, &plan.acc.iters[p]);
                offsets.iter().any(|&off| off / wpb == b)
            })
        };
        let mut t = Terms::default();
        for &b in &sched.multi {
            let words = b * wpb..(b + 1) * wpb;
            let within = |m: &&fgdsm::hpf::ArrayMeta| {
                (m.base..m.base + m.layout.len()).contains(&words.start)
            };
            let meta = core
                .metas
                .iter()
                .find(within)
                .expect("a block of some array");
            if meta.owners_meet(words.start, words.end, nprocs) {
                match meta.dist {
                    Dist::Block => t.block_edge += 1,
                    Dist::Cyclic => t.cyclic_edge += 1,
                    Dist::Replicated => t.replicated += 1,
                }
            }
            let mut writes = plan
                .transfers()
                .zip(&plan.xfer_runs)
                .filter(|((_, w), _)| *w);
            t.nonowner_write +=
                usize::from(writes.any(|(_, lr)| holds(&covering_blocks(lr, wpb), b)));
            let writer_else = |p: usize| (0..nprocs).any(|q| q != p && holds(&sched.wcover[q], b));
            t.gathered += usize::from((0..nprocs).any(|p| gathers(p, b) && writer_else(p)));
        }
        t
    }
}

/// The backend behind a [`Probe`].
enum Inner {
    Sm(Box<SmOpt>, OptLevel),
    Mp(Mp),
}

/// A built-in backend with a window on the engine: at every resolve it
/// compares the schedules about to be executed — the default protocol's
/// with the old inspector's on the same state, the contract's and
/// message passing's with a fresh build from the plan's lowering — and
/// notes the walk's visiting order and where the schedule came from.
struct Probe {
    inner: Inner,
    seen: Rc<RefCell<Vec<Seen>>>,
}

impl Probe {
    fn backend(&mut self) -> &mut dyn CommBackend {
        match &mut self.inner {
            Inner::Sm(sm, _) => sm.as_mut(),
            Inner::Mp(mp) => mp,
        }
    }

    /// How often the plan's default schedule and its backend's were built.
    fn builds(&self, plan: &LoopPlan) -> (u64, u64) {
        let backend = match self.inner {
            Inner::Sm(..) => plan.ctl.builds(),
            Inner::Mp(_) => plan.mp.builds(),
        };
        (plan.sched.builds(), backend)
    }
}

impl CommBackend for Probe {
    fn validate(&self, core: &EngineCore) {
        if let Inner::Sm(sm, _) = &self.inner {
            sm.validate(core);
        }
    }
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        let at = format!("loop `{}` at superstep {}", l.name, core.supersteps);
        // Built at this instance or re-evaluated in place, the plan holds
        // what a fresh analysis and lowering make of it.
        let acc = analyze(core.prog, l, &core.env, core.cfg.nprocs);
        let fresh = lower(l, acc, &core.metas, core.wpb);
        assert_eq!(plan.acc, fresh.acc, "{at}: stale access analysis");
        assert_eq!(plan.runs, fresh.runs, "{at}: stale runs");
        assert_eq!(plan.xfer_runs, fresh.xfer_runs, "{at}: stale transfer runs");
        assert_eq!(plan.xfer_ctl, fresh.xfer_ctl, "{at}: stale ctl ranges");
        let d0s = plan.acc.sections.iter().flatten().map(|sec| sec.dims()[0]);
        let before = self.builds(plan);
        let mut seen = Seen {
            loop_id: core.cur_loop,
            built: (false, false),
            order: core.resolve_order().to_vec(),
            multi_blocks: 0,
            homed_blocks: 0,
            kept: 0,
            unit_runs: { d0s }.any(|d0| d0.stride > 1 && d0.count() > 1),
            plan: plan as *const LoopPlan as usize,
            ctl_sites: 0,
            terms: Terms::default(),
            transfers: plan.transfers().count(),
            duplicates: [&plan.acc.read_transfers, &plan.acc.write_transfers]
                .iter()
                .map(|ts| (1..ts.len()).filter(|&i| ts[..i].contains(&ts[i])).count())
                .sum(),
            algebraic: algebra_transfers(core.prog, l, &plan.acc)
                == [&plan.acc.read_transfers, &plan.acc.write_transfers].map(Vec::clone),
        };
        if let Inner::Sm(sm, opt) = &self.inner {
            let new = core.schedule(l, plan);
            let old = old_inspector(core, l, &plan.acc);
            assert_eq!(new.multi, old.multi, "{at}: false-shared blocks disagree");
            for p in 0..core.cfg.nprocs {
                let modes = [
                    (&new.writes[p], &old.wcover[p]),
                    (&new.reads[p], &old.rcover[p]),
                ];
                for (reach, cover) in modes {
                    seen.homed_blocks += check_reach(core, p, reach, cover, &at);
                    seen.kept += reach.kept.len();
                }
            }
            seen.multi_blocks = new.multi.len();
            seen.terms = Terms::of(core, l, plan, &old);
            // (A `pre` level's schedule is built at the resolve, under a
            // filter only the backend knows.)
            if opt.ctl && !opt.pre {
                let about = sm.schedule(core, plan);
                let (cluster, armed) = (&core.dsm.cluster, core.dsm.faults);
                let edge = core.cfg.inject.force_boundary;
                let never = |_, _, _, _| false;
                let mut built = CtlSchedule::default();
                ctl_schedule_into(&fresh, cluster, armed, opt.bulk, edge, never, &mut built);
                assert_eq!(*about, built, "{at}: stale contract schedule");
            }
        }
        self.backend().resolve(core, l, plan);
        let after = self.builds(plan);
        assert!(after.0 - before.0 <= 1 && after.1 - before.1 <= 1, "{at}");
        seen.built = (after.0 > before.0, after.1 > before.1);
        match self.inner {
            Inner::Sm(_, opt) if opt.ctl => {
                let ran = plan.ctl.get().expect("the contract's resolve schedules");
                seen.ctl_sites = ran.sends.len() + ran.flushes.len();
            }
            Inner::Sm(..) => {}
            Inner::Mp(_) => {
                let ran = plan.mp.get().expect("mp's resolve schedules");
                let mut built = MpSchedule::default();
                mp_schedule_into(l, &fresh, &mut built);
                assert_eq!(*ran, built, "{at}: stale mp schedule");
                assert_eq!(after.0, 0, "{at}: mp built default-protocol covers");
            }
        }
        self.seen.borrow_mut().push(seen);
    }
    fn note_kernel_writes(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        self.backend().note_kernel_writes(core, l, plan);
    }
    fn reduce(&mut self, core: &mut EngineCore, partials: &[f64], op: ReduceOp) -> f64 {
        self.backend().reduce(core, partials, op)
    }
    fn post_loop(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        self.backend().post_loop(core, l, plan);
    }
    fn finish(&mut self, core: &mut EngineCore) {
        self.backend().finish(core);
    }
    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        self.backend().gather(core)
    }
    fn pre_stats(&self) -> (u64, u64) {
        match &self.inner {
            Inner::Sm(sm, _) => sm.pre_stats(),
            Inner::Mp(mp) => mp.pre_stats(),
        }
    }
}

/// Run `prog` under `cfg` (an `sm_unopt`, `sm_opt` or `mp`
/// configuration) behind a [`Probe`].
fn probed(prog: &Program, cfg: &ExecConfig) -> (RunResult, Vec<Seen>) {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let inner = match cfg.backend {
        Backend::SmUnopt => Inner::Sm(Box::new(SmOpt::new(OptLevel::unopt())), OptLevel::unopt()),
        Backend::SmOpt(opt) => Inner::Sm(Box::new(SmOpt::new(opt)), opt),
        Backend::Mp => Inner::Mp(Mp::new(cfg.nprocs)),
        other => panic!("probe: {other:?} is a carrier, not a backend"),
    };
    let backend = Box::new(Probe {
        inner,
        seen: seen.clone(),
    });
    let run = execute_with(prog, cfg, backend);
    let seen = seen.take();
    (run, seen)
}

/// A loop that gathers, through an index array, from the array it
/// writes: node `p` reads `x(idx(i)) = x(i + 3)` across its block edge
/// while the next node writes those elements. (The corpus's gathers read
/// arrays their loop does not write, and so does `irreg`.)
fn gather_of_written() -> Program {
    let n = 64;
    let mut b = Program::builder();
    let x = b.array("x", &[n], Dist::Block);
    let idx = b.array("idx", &[n], Dist::Block);
    let all = || vec![SymRange::new(0, n as i64 - 1)];
    b.stmt(Stmt::Par(ParLoop {
        name: "index",
        iter: all(),
        dist: CompDist::Owner(idx),
        refs: vec![ARef::write(idx, vec![Subscript::loop_var(0)])],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let h = ctx.h(idx);
            for i in ctx.iter[0].iter() {
                ctx.mem[h.at1(i)] = ((i + 3) % n as i64) as f64;
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    }));
    b.stmt(Stmt::Par(ParLoop {
        name: "gather",
        iter: all(),
        dist: CompDist::Owner(x),
        refs: vec![
            ARef::read(idx, vec![Subscript::loop_var(0)]),
            ARef::read(x, vec![Subscript::Indirect(idx, 0)]),
            ARef::write(x, vec![Subscript::loop_var(0)]),
        ],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let (hx, hi) = (ctx.h(x), ctx.h(idx));
            for i in ctx.iter[0].iter() {
                let j = ctx.mem[hi.at1(i)] as i64;
                ctx.mem[hx.at1(i)] = ctx.mem[hx.at1(j)] + 1.0;
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    }));
    b.build()
}

/// A loop that writes a replicated array, each node its own share of
/// it: nothing in the suite or the corpus declares one.
fn written_replicated() -> Program {
    let n = 60;
    let mut b = Program::builder();
    let a = b.array("a", &[n], Dist::Block);
    let r = b.array("r", &[n], Dist::Replicated);
    b.stmt(Stmt::Par(ParLoop {
        name: "spread",
        iter: vec![SymRange::new(0, n as i64 - 1)],
        dist: CompDist::Owner(a),
        refs: vec![
            ARef::write(a, vec![Subscript::loop_var(0)]),
            ARef::write(r, vec![Subscript::loop_var(0)]),
        ],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let (ha, hr) = (ctx.h(a), ctx.h(r));
            for i in ctx.iter[0].iter() {
                ctx.mem[ha.at1(i)] = i as f64;
                ctx.mem[hr.at1(i)] = 2.0 * i as f64;
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    }));
    b.build()
}

/// Time steps of [`rewritten_index`].
const REWRITES: i64 = 8;

/// A time loop whose first loop rewrites an index array every step,
/// `idx(i) = (i + 3 + t) mod n`, and whose second gathers `y(i) =
/// x(idx(i))` from an `x` written once before it. Over four nodes (16
/// words to a block), node 0 gathers from `x`'s first block, and from
/// step 6 on also from its second, which nodes 2 and 3 wrote and a
/// schedule built at step 0 never fetches: the victim of
/// `stale_resolve_schedule` on an indirect loop.
fn rewritten_index() -> Program {
    let (n, t) = (32, Var("t"));
    let mut b = Program::builder();
    let x = b.array("x", &[n], Dist::Block);
    let y = b.array("y", &[n], Dist::Block);
    let idx = b.array("idx", &[n], Dist::Block);
    let all = || vec![SymRange::new(0, n as i64 - 1)];
    let at_i = || vec![Subscript::loop_var(0)];
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: all(),
        dist: CompDist::Owner(x),
        refs: vec![ARef::write(x, at_i())],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let h = ctx.h(x);
            for i in ctx.iter[0].iter() {
                ctx.mem[h.at1(i)] = (i + 1) as f64;
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    }));
    let index = ParLoop {
        name: "index",
        iter: all(),
        dist: CompDist::Owner(idx),
        refs: vec![ARef::write(idx, at_i())],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let (h, step) = (ctx.h(idx), ctx.sym(t));
            for i in ctx.iter[0].iter() {
                ctx.mem[h.at1(i)] = ((i + 3 + step) % n as i64) as f64;
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    };
    let gather = ParLoop {
        name: "gather",
        iter: all(),
        dist: CompDist::Owner(y),
        refs: vec![
            ARef::read(idx, at_i()),
            ARef::read(x, vec![Subscript::Indirect(idx, 0)]),
            ARef::write(y, at_i()),
        ],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let (hx, hy, hi) = (ctx.h(x), ctx.h(y), ctx.h(idx));
            for i in ctx.iter[0].iter() {
                let j = ctx.mem[hi.at1(i)] as i64;
                ctx.mem[hy.at1(i)] = ctx.mem[hx.at1(j)];
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    };
    b.stmt(Stmt::Time {
        var: t,
        count: REWRITES,
        body: vec![Stmt::Par(index), Stmt::Par(gather)],
    });
    b.build()
}

/// Differential: on every superstep of the six suite apps (plus `irreg`)
/// at 1, 2, 3 and 8 nodes and at 64-, 128- and 256-byte blocks, of the
/// first 200 corpus specs — dim-0-strided sections, which `linearize`
/// used to decline, included — and of the three hand-built shapes above,
/// under the default protocol alone and after the full contract, the
/// schedule the engine walks — kept or refilled — has the false-shared
/// blocks the old inspector finds in the memory of the moment, and per
/// node and mode kept ranges inside the old cover that leave off only
/// blocks homed at the node ([`check_reach`]); and the probe changes
/// nothing. Every term of the schedule's candidate filter lets through
/// at least one false-shared block, and the lost scan is left blocks.
#[test]
fn the_schedule_keeps_what_the_old_covers_leave_off_home() {
    let mut supersteps = 0;
    let mut multi_blocks = 0;
    let mut homed_blocks = 0;
    let mut terms = Terms::default();
    // Returns how many supersteps lowered a dim-0-strided section.
    let mut check = |name: &str, prog: &Program, nprocs: usize, block_bytes: usize| -> usize {
        let mut unit_runs = 0;
        for cfg in [ExecConfig::sm_unopt(nprocs), ExecConfig::sm_opt(nprocs)] {
            let mut cfg = cfg.serial();
            cfg.cost.block_bytes = block_bytes;
            let (run, seen) = probed(prog, &cfg);
            supersteps += seen.len();
            multi_blocks += seen.iter().map(|s| s.multi_blocks).sum::<usize>();
            homed_blocks += seen.iter().map(|s| s.homed_blocks).sum::<usize>();
            seen.iter().for_each(|s| terms.add(s.terms));
            unit_runs += seen.iter().filter(|s| s.unit_runs).count();
            let plain = execute(prog, &cfg);
            let at = format!("{name} on {nprocs} nodes, {block_bytes}-byte blocks");
            assert_eq!(run.report.to_json(), plain.report.to_json(), "{at}");
            assert_eq!(run.data, plain.data, "{at}");
        }
        unit_runs
    };
    let shapes = [(1, 128), (2, 128), (3, 128), (NP, 64), (NP, 128), (NP, 256)];
    for (nprocs, block_bytes) in shapes {
        for spec in extended_suite(Scale::Test) {
            let unit_runs = check(spec.name, &spec.program, nprocs, block_bytes);
            assert_eq!(unit_runs, 0, "{}: the suite never strides dim 0", spec.name);
        }
    }
    let mut unit_runs = 0;
    let mut nonowner_specs = 0;
    for case in 0..200 {
        let seed = case_seed(BASE_SEED, case);
        let spec = gen_spec(&mut Rng::new(seed), seed);
        nonowner_specs += usize::from(spec.has_nonowner_writes());
        unit_runs += check(
            &format!("fuzz seed {seed:#x}"),
            &spec.build(),
            spec.nprocs,
            128,
        );
    }
    check("gather_of_written", &gather_of_written(), 4, 128);
    check("written_replicated", &written_replicated(), 4, 128);
    check("rewritten_index", &rewritten_index(), 4, 128);
    assert!(supersteps > 3000, "only {supersteps} supersteps compared");
    assert!(multi_blocks > 0, "no false-shared block was ever compared");
    assert!(
        homed_blocks > 0,
        "no cover block was ever left to the lost scan"
    );
    assert!(unit_runs > 0, "no dim-0-strided section was ever compared");
    assert!(
        nonowner_specs > 0,
        "no corpus spec writes a non-owned element"
    );
    let Terms {
        block_edge,
        cyclic_edge,
        replicated,
        nonowner_write,
        gathered,
    } = terms;
    assert!(
        [
            block_edge,
            cyclic_edge,
            replicated,
            nonowner_write,
            gathered
        ]
        .iter()
        .all(|&n| n > 0),
        "a term of the candidate filter was never exercised: {terms:?}"
    );
}

/// `sm_opt` counting the kept ranges of every default schedule it walks.
struct KeptCount(SmOpt, Rc<Cell<usize>>);

impl CommBackend for KeptCount {
    fn validate(&self, core: &EngineCore) {
        self.0.validate(core);
    }
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        self.0.resolve(core, l, plan);
        let sched = plan.sched.get().expect("sm_opt walks");
        let reaches = sched.writes.iter().chain(&sched.reads);
        self.1
            .set(self.1.get() + reaches.map(|r| r.kept.len()).sum::<usize>());
    }
    fn note_kernel_writes(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        self.0.note_kernel_writes(core, l, plan);
    }
    fn reduce(&mut self, core: &mut EngineCore, partials: &[f64], op: ReduceOp) -> f64 {
        self.0.reduce(core, partials, op)
    }
    fn post_loop(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        self.0.post_loop(core, l, plan);
    }
    fn finish(&mut self, core: &mut EngineCore) {
        self.0.finish(core);
    }
    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        self.0.gather(core)
    }
    fn pre_stats(&self) -> (u64, u64) {
        self.0.pre_stats()
    }
}

/// The walk visits what a node lacks: on `lu` at bench scale, where the
/// old covers were 267 210 ranges an execute (one per CYCLIC column per
/// instance, nearly all of them homed at their walker), the default
/// schedules keep at most 4 000 ranges, and the run is the plain one.
#[test]
fn lu_at_bench_scale_keeps_few_ranges() {
    let spec = suite(Scale::Bench).into_iter().find(|s| s.name == "lu");
    let prog = spec.expect("lu is in the suite").program;
    let cfg = ExecConfig::sm_opt(NP).serial();
    let kept = Rc::new(Cell::new(0));
    let backend = KeptCount(SmOpt::new(OptLevel::full()), kept.clone());
    let run = execute_with(&prog, &cfg, Box::new(backend));
    assert_eq!(run.data, execute(&prog, &cfg).data);
    assert!(
        (1..=4000).contains(&kept.get()),
        "{} kept ranges",
        kept.get()
    );
}

/// Two references to one ghost section need one transfer: over every
/// superstep of the extended suite and of the first 200 corpus specs, no
/// loop instance's access analysis holds two equal transfers (the corpus
/// used to hold 1 197 duplicate reads among its first 5 353, which `mp`
/// shipped twice).
#[test]
fn no_loop_access_holds_two_equal_transfers() {
    let (mut transfers, mut duplicates) = (0, 0);
    let mut count = |prog: &Program, nprocs: usize| {
        let (_, seen) = probed(prog, &ExecConfig::sm_opt(nprocs).serial());
        transfers += seen.iter().map(|s| s.transfers).sum::<usize>();
        duplicates += seen.iter().map(|s| s.duplicates).sum::<usize>();
    };
    for spec in extended_suite(Scale::Test) {
        count(&spec.program, NP);
    }
    for case in 0..200 {
        let seed = case_seed(BASE_SEED, case);
        let spec = gen_spec(&mut Rng::new(seed), seed);
        count(&spec.build(), spec.nprocs);
    }
    assert!(transfers > 5000, "only {transfers} transfers compared");
    assert_eq!(duplicates, 0, "of {transfers} transfers");
}

/// `analyze` subtracts and splits on the distributed dimension alone;
/// over every superstep of the extended suite (at 1, 3 and 8 nodes) and
/// of the first 200 corpus specs, its transfers equal the general
/// section algebra's ([`algebra_transfers`]), in order.
#[test]
fn analysis_matches_the_section_algebra() {
    let (mut instances, mut off) = (0, Vec::new());
    let mut check = |name: &str, prog: &Program, nprocs: usize| {
        let (_, seen) = probed(prog, &ExecConfig::sm_opt(nprocs).serial());
        instances += seen.len();
        if let Some(s) = seen.iter().find(|s| !s.algebraic) {
            off.push(format!("{name} at {nprocs} nodes, loop {}", s.loop_id));
        }
    };
    for nprocs in [1, 3, NP] {
        for spec in extended_suite(Scale::Test) {
            check(spec.name, &spec.program, nprocs);
        }
    }
    for case in 0..200 {
        let seed = case_seed(BASE_SEED, case);
        let spec = gen_spec(&mut Rng::new(seed), seed);
        check(&format!("corpus case {case}"), &spec.build(), spec.nprocs);
    }
    assert!(instances > 2_000, "only {instances} instances compared");
    assert!(off.is_empty(), "analysis ≠ section algebra: {off:?}");
}

/// Schedule once, plan once. On every superstep of the extended suite
/// and of the first 200 corpus specs, at four contract levels and on
/// `mp`, the plan — re-evaluated in place for a symbolic loop — equals a
/// fresh analysis and lowering, and the schedule the backend is about to
/// execute equals one built on the spot from it (the probe asserts both).
/// Each is built where the rule says — at the first instance, then
/// exactly when its key moves: every loop runs on one plan for the whole
/// run; a static loop's schedules are kept by every later instance; a
/// symbolic loop's (`lu`'s loops in `k`, the corpus's `sweep_t`) are
/// refilled in place by every later one, the default walk's included;
/// at a `pre` level — its filter is the run's state — every instance
/// refills the plan's contract slot. The probe changes nothing.
#[test]
fn backend_schedules_are_kept_or_rebuilt_by_the_plans_rule() {
    let levels = [
        OptLevel::base(),
        OptLevel::base_bulk(),
        OptLevel::full(),
        OptLevel::full_pre(),
    ];
    let (mut kept, mut symbolic, mut pre_builds, mut ctl_sites) = (0, 0, 0, 0);
    let mut refilled = 0;
    let mut check = |name: &str, prog: &Program, nprocs: usize| {
        let loops = prog.par_loops();
        let sm = levels.map(|opt| ExecConfig::sm_opt(nprocs).with_opt(opt));
        for cfg in sm.into_iter().chain([ExecConfig::mp(nprocs)]) {
            let cfg = cfg.serial();
            let (run, seen) = probed(prog, &cfg);
            let plain = execute(prog, &cfg);
            let at = format!("{name} on {:?}", cfg.backend);
            assert_eq!(run.report.to_json(), plain.report.to_json(), "{at}");
            assert_eq!(run.planned, plain.planned, "{at}");
            assert_eq!(run.data, plain.data, "{at}");
            assert_eq!(
                (run.pre_skipped, run.pre_performed),
                (plain.pre_skipped, plain.pre_performed),
                "{at}"
            );
            let pre = matches!(cfg.backend, Backend::SmOpt(opt) if opt.pre);
            let walks = !matches!(cfg.backend, Backend::Mp);
            ctl_sites += seen.iter().map(|s| s.ctl_sites).sum::<usize>();
            for (id, l) in loops.iter().enumerate() {
                let of_loop = seen.iter().filter(|s| s.loop_id == id as u32);
                let instances: Vec<&Seen> = of_loop.collect();
                let at = format!("{at}, loop `{}`", l.name);
                for (i, s) in instances.iter().enumerate() {
                    assert_eq!(s.plan, instances[0].plan, "{at}: one plan per run");
                    // No index array is written after its init loop.
                    let moved = i == 0 || !l.is_static();
                    assert_eq!(
                        s.built,
                        (walks && moved, moved || pre),
                        "{at}, instance {i}"
                    );
                }
                let builds = instances.iter().filter(|s| s.built.1).count();
                match pre {
                    true => pre_builds += builds,
                    false => refilled += builds.saturating_sub(1),
                }
                kept += instances.iter().filter(|s| !s.built.1).count();
                symbolic += usize::from(!l.is_static()) * instances.len();
            }
        }
        loops.iter().filter(|l| !l.is_static()).count()
    };
    for spec in extended_suite(Scale::Test) {
        let symbolic_loops = check(spec.name, &spec.program, NP);
        assert_eq!(
            symbolic_loops,
            2 * usize::from(spec.name == "lu"),
            "{}",
            spec.name
        );
    }
    for case in 0..200 {
        let seed = case_seed(BASE_SEED, case);
        let spec = gen_spec(&mut Rng::new(seed), seed);
        let symbolic_loops = check(&format!("fuzz seed {seed:#x}"), &spec.build(), spec.nprocs);
        assert_eq!(symbolic_loops, 0, "`gen_spec` draws static loops only");
    }
    // The corpus's one symbolic shape is hand-built, like the must-catch
    // victim of `stale_resolve_schedule`: step `t` writes column `2 + t`
    // of `a0` from column `3 + t` of `a1`, which at `t = 1` is node 1's.
    let a2 = ArraySpec {
        rank2: true,
        cyclic: false,
        index_for: None,
    };
    let sweep = FuzzSpec {
        seed: 0,
        nprocs: 2,
        n1: 96,
        n2: [40, 8],
        arrays: vec![a2.clone(), a2],
        body: vec![FStmt::Loop(LoopSpec {
            write: 0,
            dist_by: None,
            self_read: false,
            reads: vec![ReadSpec {
                array: 1,
                off: [0, 1],
                via: None,
            }],
            reduce: None,
            use_t: false,
            use_acc: false,
            sweep_t: true,
        })],
        time: Some((0, 1, 3)),
        inject: InjectConfig::default(),
    };
    assert_eq!(check("sweep_t", &sweep.build(), sweep.nprocs), 1);
    assert!(kept > 1000, "only {kept} instances ran a kept schedule");
    assert!(symbolic > 300, "only {symbolic} symbolic instances");
    assert!(
        refilled > 200,
        "only {refilled} schedules refilled in place"
    );
    assert!(pre_builds > 1000, "only {pre_builds} pre instances");
    assert!(
        ctl_sites > 3000,
        "only {ctl_sites} contract call sites compared"
    );
}

/// Tolerated, on a kept schedule: `shuffle_resolve` and `clear_iw_memo`
/// act on the executor's side of the split — the schedule a static loop
/// keeps is the unperturbed run's (as many call sites every instance,
/// `RunResult::planned` record for record) — and `force_boundary`, a
/// constant of the run, is part of the schedule built once; under each,
/// gathered data stays where the unperturbed run (and the fuzz harness's
/// tolerated-perturbation test) pins it.
#[test]
fn tolerated_perturbations_on_a_kept_schedule() {
    let spec = &suite(Scale::Test)[5];
    assert_eq!(spec.name, "jacobi");
    let cfg = ExecConfig::sm_opt(NP).serial();
    let (plain, unperturbed) = probed(&spec.program, &cfg);
    assert!(unperturbed.iter().any(|s| !s.built.1 && s.ctl_sites > 0));
    let perturbations = [
        InjectConfig {
            shuffle_resolve: Some(0x5EED),
            ..InjectConfig::default()
        },
        InjectConfig {
            clear_iw_memo: true,
            ..InjectConfig::default()
        },
        InjectConfig {
            force_boundary: true,
            ..InjectConfig::default()
        },
    ];
    for inject in perturbations {
        let (run, seen) = probed(&spec.program, &cfg.clone().with_inject(inject));
        assert_eq!(run.data, plain.data, "{inject:?} must stay invisible");
        assert_eq!(seen.len(), unperturbed.len());
        for (s, u) in seen.iter().zip(&unperturbed) {
            assert_eq!(s.built, u.built, "{inject:?}");
            if !inject.force_boundary {
                assert_eq!(s.ctl_sites, u.ctl_sites, "{inject:?}");
            }
        }
        if !inject.force_boundary {
            assert_eq!(run.planned, plain.planned, "{inject:?}");
        }
    }
}

/// Table discipline, on every backend. Every loop that runs keeps one
/// plan for the run, and the table never outgrows the program's loop
/// count. A loop's instances inspect exactly when something the plan
/// depends on can change: `jacobi` (all static) inspects once per loop
/// per run; `lu`'s loops in `k` re-evaluate their plan every instance.
/// A loop with an indirect reference keeps its default schedule until a
/// loop writes its index array: `irreg` writes `idx` once, before its
/// time loop, so its gather builds one for the run, while
/// [`rewritten_index`]'s gather rebuilds it every step.
#[test]
fn inspector_memo_discipline() {
    // Default-schedule builds per loop id over a run.
    let builds = |seen: &[Seen], id: usize| {
        let of_loop = seen.iter().filter(|s| s.loop_id == id as u32);
        (
            of_loop.clone().count(),
            of_loop.filter(|s| s.built.0).count(),
        )
    };
    for spec in extended_suite(Scale::Test) {
        let loops = spec.program.par_loops();
        for cfg in [
            ExecConfig::sm_unopt(NP),
            ExecConfig::sm_opt(NP),
            ExecConfig::mp(NP),
        ] {
            let run = execute(&spec.program, &cfg);
            assert_eq!(run.inspector.len(), loops.len());
            let mut ran = 0;
            for (l, row) in loops.iter().zip(&run.inspector) {
                let instances = row.inspections + row.hits;
                ran += usize::from(instances > 0);
                let want = if l.is_static() {
                    instances.min(1)
                } else {
                    instances
                };
                assert_eq!(
                    row.inspections,
                    want,
                    "{}/{}: {instances} instances, static {}",
                    spec.name,
                    l.name,
                    l.is_static()
                );
            }
            assert_eq!(run.plans_cached, ran, "{}", spec.name);
            match spec.name {
                "jacobi" => assert_eq!(run.plans_cached, loops.len()),
                "lu" => {
                    let k_loops = loops.iter().filter(|l| !l.is_static()).count();
                    assert_eq!(k_loops, 2, "scale and update");
                    assert_eq!(run.plans_cached, loops.len(), "init and the loops in k");
                }
                _ => {}
            }
        }
        let (_, seen) = probed(&spec.program, &ExecConfig::sm_opt(NP));
        for (id, l) in loops.iter().enumerate() {
            let (instances, built) = builds(&seen, id);
            let want = if l.is_static() {
                instances.min(1)
            } else {
                instances
            };
            assert_eq!(built, want, "{}/{}", spec.name, l.name);
            let indirect = l.refs.iter().any(ARef::is_indirect);
            assert_eq!(indirect, spec.name == "irreg" && l.name == "gather");
            assert!(!indirect || instances > 1, "{}", spec.name);
        }
    }
    let (_, seen) = probed(&rewritten_index(), &ExecConfig::sm_unopt(4));
    assert_eq!(builds(&seen, 2), (REWRITES as usize, REWRITES as usize));
}

/// Must-catch `stale_resolve_schedule` on an indirect loop: a default
/// schedule kept past a write of its index array gathers blocks the walk
/// never fetched, and the data leaves the reference's. Unarmed, the same
/// program matches it: the divergence is the injection's.
#[test]
fn must_catch_a_stale_indirect_schedule() {
    let prog = rewritten_index();
    let cfg = ExecConfig::sm_unopt(4).serial();
    let want = execute_reference(&prog, &cfg).data;
    assert_eq!(execute(&prog, &cfg).data, want, "the victim itself");
    let armed = cfg.with_inject(InjectConfig {
        faults: Faults::default().with(Fault::StaleResolveSchedule),
        ..InjectConfig::default()
    });
    assert_ne!(execute(&prog, &armed).data, want, "a stale gather schedule");
}

/// A plan's key is the variables its analysis reads, nothing else: a loop
/// whose bounds read the outer of two time variables is evaluated once
/// per outer step and reused by the inner steps, on every backend, and
/// computes what the reference does.
#[test]
fn a_plan_moves_only_with_the_variables_it_reads() {
    let (n, outer, inner) = (32, 3, 4);
    let (t, s) = (Var("t"), Var("s"));
    let mut b = Program::builder();
    let a = b.array("a", &[n], Dist::Block);
    let c = b.array("c", &[n], Dist::Block);
    let at = |d| vec![Subscript::Loop(0, d)];
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![SymRange::new(0, n as i64 - 1)],
        dist: CompDist::Owner(c),
        refs: vec![ARef::write(c, at(0))],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let h = ctx.h(c);
            for i in ctx.iter[0].iter() {
                ctx.mem[h.at1(i)] = i as f64;
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    }));
    // Step `t` reaches `c(9 + 8t)`: one node further each outer step.
    let grow = ParLoop {
        name: "grow",
        iter: vec![SymRange::new(0, Affine::var(t).scale(8).plus_const(8))],
        dist: CompDist::Owner(a),
        refs: vec![ARef::read(c, at(1)), ARef::write(a, at(0))],
        kernel: Kernel::new(move |ctx: &mut KernelCtx| {
            let (ha, hc) = (ctx.h(a), ctx.h(c));
            for i in ctx.iter[0].iter() {
                ctx.mem[ha.at1(i)] += ctx.mem[hc.at1(i + 1)] + 1.0;
            }
        }),
        cost_per_iter_ns: 10,
        reduction: None,
    };
    let body = vec![Stmt::Par(grow)];
    let body = vec![Stmt::Time {
        var: s,
        count: inner,
        body,
    }];
    b.stmt(Stmt::Time {
        var: t,
        count: outer,
        body,
    });
    let prog = b.build();
    for cfg in [
        ExecConfig::sm_unopt(4),
        ExecConfig::sm_opt(4),
        ExecConfig::mp(4),
    ] {
        let run = execute(&prog, &cfg);
        let row = run.inspector[1];
        let at = format!("{:?}", cfg.backend);
        assert_eq!(row.inspections, outer as u64, "{at}");
        assert_eq!(row.hits, (outer * (inner - 1)) as u64, "{at}");
        assert_eq!(run.data, execute_reference(&prog, &cfg).data, "{at}");
    }
}

/// A loop's plan is one `Rc` the next instance re-evaluates in place:
/// an instance that let go of it finds the same plan again, and one that
/// holds it across the next instance — a schedule outliving its instance
/// — trips the re-evaluation instead of racing it.
#[test]
#[should_panic(expected = "a schedule of the previous instance still holds it")]
fn a_plan_held_across_instances_trips_its_reevaluation() {
    fn time_vars(stmts: &[Stmt], out: &mut Vec<Var>) {
        for s in stmts {
            if let Stmt::Time { var, body, .. } = s {
                out.push(*var);
                time_vars(body, out);
            }
        }
    }
    let spec = suite(Scale::Test).into_iter().find(|s| s.name == "lu");
    let prog = spec.expect("lu is in the suite").program;
    let mut vars = Vec::new();
    time_vars(&prog.body, &mut vars);
    let loops = prog.par_loops();
    let id = loops
        .iter()
        .position(|l| !l.is_static())
        .expect("a loop in k");
    let cfg = ExecConfig::sm_opt(NP).serial();
    let mut core = EngineCore::new(&prog, &cfg);
    let instance = |core: &mut EngineCore, step: i64| {
        vars.iter().for_each(|&v| core.env.set(v, step));
        core.plan(loops[id], id)
    };
    let first = Rc::as_ptr(&instance(&mut core, 0));
    let held = instance(&mut core, 1);
    assert_eq!(Rc::as_ptr(&held), first, "one plan, re-evaluated in place");
    instance(&mut core, 2);
}

/// Tolerated: `shuffle_resolve` permutes the walk's visiting order per
/// superstep on a cached plan exactly as on a fresh one — the plan holds
/// covers, never an order — and results do not move.
#[test]
fn shuffle_resolve_still_permutes_on_a_memo_hit() {
    let spec = &suite(Scale::Test)[5];
    assert_eq!(spec.name, "jacobi");
    let plain = execute(&spec.program, &ExecConfig::sm_opt(NP));
    let shuffled = ExecConfig::sm_opt(NP).with_inject(InjectConfig {
        shuffle_resolve: Some(0x5EED),
        ..InjectConfig::default()
    });
    let (run, seen) = probed(&spec.program, &shuffled);
    assert_eq!(run.data, plain.data, "the shuffle must stay invisible");
    let identity: Vec<usize> = (0..NP).collect();
    let loops = spec.program.par_loops();
    let sweep = loops.iter().position(|l| l.name == "sweep").unwrap();
    // Every instance of `sweep` but the first walks the cached plan.
    let instances: Vec<&Seen> = seen.iter().filter(|s| s.loop_id == sweep as u32).collect();
    let row = run.inspector[sweep];
    assert_eq!((row.inspections, row.hits), (1, instances.len() as u64 - 1));
    let on_hits: BTreeSet<&Vec<usize>> = instances[1..].iter().map(|s| &s.order).collect();
    assert!(
        on_hits.len() >= 3 && !on_hits.contains(&identity),
        "instances on one cached plan must each get their own order: {on_hits:?}"
    );
    let (_, unshuffled) = probed(&spec.program, &ExecConfig::sm_opt(NP));
    assert!(unshuffled.iter().all(|s| s.order == identity));
}

/// The host phase clock accounts for the run: on every suite app and
/// backend its nine phases sum to within 10 % of `wall_ns` (and never
/// above it), with the phases that cannot be empty non-empty.
#[test]
fn host_phases_sum_to_the_wall_clock() {
    for spec in suite(Scale::Test) {
        for cfg in [
            ExecConfig::sm_unopt(NP),
            ExecConfig::sm_opt(NP).with_opt(OptLevel::full()),
            ExecConfig::mp(NP),
        ] {
            let cfg = cfg.serial();
            let run = execute(&spec.program, &cfg);
            let (host, wall) = (run.report.host, run.report.wall_ns);
            let sum = host.total_ns();
            assert!(
                sum <= wall,
                "{}: phases {sum} ns > wall {wall} ns",
                spec.name
            );
            assert!(
                sum * 10 >= wall * 9,
                "{}: phases {sum} ns cover under 90 % of wall {wall} ns: {host:?}",
                spec.name
            );
            assert!(host.setup_ns > 0 && host.compute_ns > 0 && host.post_run_ns > 0);
            let default_protocol = !matches!(cfg.backend, fgdsm::hpf::Backend::Mp);
            assert_eq!(host.walk_ns > 0, default_protocol, "{}", spec.name);
            assert!(host.inspect_ns > 0, "{}: every backend lowers", spec.name);
            // The per-loop kernel rows are the compute phase split by
            // loop id — the same clock reads, so they sum exactly — and
            // count every iteration point of every instance.
            let by_loop: u64 = run.inspector.iter().map(|r| r.compute_ns).sum();
            assert_eq!(by_loop, host.compute_ns, "{}", spec.name);
            assert!(run
                .inspector
                .iter()
                .all(|r| r.points > 0 && r.compute_ns > 0));
            if spec.name == "jacobi" {
                let p = jacobi::Params::at(Scale::Test);
                let interior = ((p.n - 2) * (p.m - 2)) as u64;
                let loops = spec.program.par_loops();
                let sweep = loops.iter().position(|l| l.name == "sweep").unwrap();
                assert_eq!(run.inspector[sweep].points, p.iters as u64 * interior);
            }
        }
    }
}
