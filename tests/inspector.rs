//! Resolve as lower → schedule → execute: the default protocol's
//! schedule against the per-block inspector it replaced, the contract's
//! and message passing's kept schedules against a fresh build, the
//! per-loop table's discipline, the tolerated perturbations on a cached
//! plan, and the host phase clock.
//!
//! The old inspector survives here only — as the oracle of
//! [`new_inspector_equals_the_old_one`], written against the engine's
//! public helpers. (It cannot be a `#[cfg(test)]` item of `fgdsm-hpf`:
//! that crate's unit tests cannot see the suite's or the fuzzer's
//! programs.)

use fgdsm::apps::{extended_suite, jacobi, suite, Scale};
use fgdsm::hpf::exec::backend::CommBackend;
use fgdsm::hpf::exec::engine::EngineCore;
use fgdsm::hpf::exec::mp::Mp;
use fgdsm::hpf::exec::sm_opt::SmOpt;
use fgdsm::hpf::plan::{ctl_schedule, mp_schedule, LoopPlan, ResolveSchedule};
use fgdsm::hpf::{
    covering_blocks, execute, execute_with, ARef, Backend, ExecConfig, InjectConfig, LoopAccess,
    OptLevel, ParLoop, Program, RefMode, RunResult,
};
use fgdsm::section::{LinearRanges, StridedRange};
use fgdsm::tempest::ReduceOp;
use fgdsm_fuzz::{case_seed, gen_spec, ArraySpec, FStmt, FuzzSpec, LoopSpec, ReadSpec};
use fgdsm_testkit::{Rng, BASE_SEED};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

const NP: usize = 8;

/// The inspector as it was before it was split from the executor: one
/// `Vec` of runs per reference re-wrapped as single-run `StridedRange`s,
/// a `BTreeSet` of boundary candidates, and per candidate a binary search
/// of every node's covers.
fn old_inspector(core: &EngineCore, l: &ParLoop, acc: &LoopAccess) -> ResolveSchedule {
    let nprocs = core.cfg.nprocs;
    let wpb = core.wpb;
    let single = |base, run_len| StridedRange {
        base,
        run_len,
        stride: 0,
        count: 1,
    };
    let mut sched = ResolveSchedule::default();
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
    let contains = |ranges: &[(usize, usize)], b: usize| -> bool {
        let idx = ranges.partition_point(|&(_, e)| e <= b);
        idx < ranges.len() && ranges[idx].0 <= b
    };
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

/// What a [`Probe`] saw at one superstep's resolve.
struct Seen {
    loop_id: u32,
    /// Was the walked schedule rebuilt for this instance (not the plan's)?
    rebuilt: bool,
    order: Vec<usize>,
    multi_blocks: usize,
    /// Did a section stride dim 0 (the shape `linearize` used to decline,
    /// now a group of single-element runs)?
    unit_runs: bool,
    /// Which plan the instance ran on (its address: a kept plan is one
    /// `Rc` for the whole run).
    plan: usize,
    /// Did the instance find its backend's schedule (the contract's, or
    /// message passing's) already in the plan?
    kept: bool,
    /// Did the backend build a schedule of this instance's own instead?
    own: bool,
    /// The contract's call sites (pushes and flushes) this instance.
    ctl_sites: usize,
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
}

impl CommBackend for Probe {
    fn validate(&self, core: &EngineCore) {
        if let Inner::Sm(sm, _) = &self.inner {
            sm.validate(core);
        }
    }
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        let at = format!("loop `{}` at superstep {}", l.name, core.supersteps);
        let d0s = plan.acc.sections.iter().flatten().map(|sec| sec.dims[0]);
        let mut seen = Seen {
            loop_id: core.cur_loop,
            rebuilt: false,
            order: core.resolve_order(),
            multi_blocks: 0,
            unit_runs: { d0s }.any(|d0| d0.stride > 1 && d0.count() > 1),
            plan: plan as *const LoopPlan as usize,
            kept: false,
            own: false,
            ctl_sites: 0,
        };
        match &self.inner {
            Inner::Sm(sm, opt) => {
                let new = core.schedule(l, plan);
                let old = old_inspector(core, l, &plan.acc);
                assert_eq!(*new, old, "{at}: inspectors disagree");
                seen.rebuilt = matches!(new, Cow::Owned(_));
                seen.multi_blocks = new.multi.len();
                if opt.ctl {
                    seen.kept = plan.ctl.get().is_some();
                    let about = sm.schedule(core, plan);
                    seen.own = matches!(about, Cow::Owned(_));
                    // (An instance's own schedule is a fresh build, under
                    // a filter only the backend knows.)
                    if !seen.own {
                        let (cluster, inject) = (&core.dsm.cluster, &core.cfg.inject);
                        let armed = core.dsm.injection();
                        let edge = inject.force_boundary;
                        let fresh =
                            ctl_schedule(plan, cluster, armed, opt.bulk, edge, |_, _, _, _| false);
                        assert_eq!(*about, fresh, "{at}: stale contract schedule");
                    }
                    seen.ctl_sites = about.sends.len() + about.flushes.len();
                }
            }
            Inner::Mp(_) => seen.kept = plan.mp.get().is_some(),
        }
        self.seen.borrow_mut().push(seen);
        self.backend().resolve(core, l, plan);
        if let Inner::Mp(_) = self.inner {
            let ran = plan.mp.get().expect("mp's resolve schedules");
            assert_eq!(*ran, mp_schedule(l, plan), "{at}: stale mp schedule");
        }
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

/// Differential: on every superstep of the six suite apps (plus `irreg`)
/// and of the first 200 corpus specs — dim-0-strided sections, which
/// `linearize` used to decline, included — under the default protocol
/// alone and after the full contract, the schedule the engine walks has
/// the old inspector's covers and false-shared blocks — and the probe
/// changes nothing.
#[test]
fn new_inspector_equals_the_old_one() {
    let mut supersteps = 0;
    let mut multi_blocks = 0;
    // Returns how many supersteps lowered a dim-0-strided section.
    let mut check = |name: &str, prog: &Program, nprocs: usize| -> usize {
        let mut unit_runs = 0;
        for cfg in [ExecConfig::sm_unopt(nprocs), ExecConfig::sm_opt(nprocs)] {
            let cfg = cfg.serial();
            let (run, seen) = probed(prog, &cfg);
            supersteps += seen.len();
            multi_blocks += seen.iter().map(|s| s.multi_blocks).sum::<usize>();
            unit_runs += seen.iter().filter(|s| s.unit_runs).count();
            let plain = execute(prog, &cfg);
            assert_eq!(run.report.to_json(), plain.report.to_json(), "{name}");
            assert_eq!(run.data, plain.data, "{name}");
        }
        unit_runs
    };
    for spec in extended_suite(Scale::Test) {
        let unit_runs = check(spec.name, &spec.program, NP);
        assert_eq!(unit_runs, 0, "{}: the suite never strides dim 0", spec.name);
    }
    let mut unit_runs = 0;
    for case in 0..200 {
        let seed = case_seed(BASE_SEED, case);
        let spec = gen_spec(&mut Rng::new(seed), seed);
        unit_runs += check(&format!("fuzz seed {seed:#x}"), &spec.build(), spec.nprocs);
    }
    assert!(supersteps > 3000, "only {supersteps} supersteps compared");
    assert!(multi_blocks > 0, "no false-shared block was ever compared");
    assert!(unit_runs > 0, "no dim-0-strided section was ever compared");
}

/// Schedule once. On every superstep of the extended suite and of the
/// first 200 corpus specs, at four contract levels and on `mp`, the
/// schedule the backend is about to execute equals one built on the spot
/// from the plan's lowering (the probe asserts it), and it comes from
/// where the plan's lifetime rule says: a static loop's is built at its
/// first instance and found in the same plan by every later one; a
/// symbolic loop's (`lu`'s loops in `k`, the corpus's `sweep_t`) dies
/// with its instance's plan; a `pre` level — its filter is the run's
/// state — builds one per instance and leaves the plan's cell empty. The
/// probe changes nothing.
#[test]
fn backend_schedules_are_kept_or_rebuilt_by_the_plans_rule() {
    let levels = [
        OptLevel::base(),
        OptLevel::base_bulk(),
        OptLevel::full(),
        OptLevel::full_pre(),
    ];
    let (mut kept, mut symbolic, mut own, mut ctl_sites) = (0, 0, 0, 0);
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
            ctl_sites += seen.iter().map(|s| s.ctl_sites).sum::<usize>();
            for (id, l) in loops.iter().enumerate() {
                let of_loop = seen.iter().filter(|s| s.loop_id == id as u32);
                let instances: Vec<&Seen> = of_loop.collect();
                let at = format!("{at}, loop `{}`", l.name);
                for (i, s) in instances.iter().enumerate() {
                    assert_eq!(s.own, pre, "{at}");
                    // Filled exactly once: by the first instance.
                    let want = l.is_static() && !pre && i > 0;
                    assert_eq!(s.kept, want, "{at}, instance {i}");
                    if l.is_static() {
                        assert_eq!(s.plan, instances[0].plan, "{at}: one plan per run");
                    }
                }
                kept += instances.iter().filter(|s| s.kept).count();
                own += instances.iter().filter(|s| s.own).count();
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
    assert!(own > 1000, "only {own} pre instances");
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
    assert!(unperturbed.iter().any(|s| s.kept && s.ctl_sites > 0));
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
            assert_eq!((s.kept, s.own), (u.kept, u.own), "{inject:?}");
            if !inject.force_boundary {
                assert_eq!(s.ctl_sites, u.ctl_sites, "{inject:?}");
            }
        }
        if !inject.force_boundary {
            assert_eq!(run.planned, plain.planned, "{inject:?}");
        }
    }
}

/// Table discipline, on every backend. A loop's plan is kept exactly
/// when nothing it depends on can change: `jacobi` (all static) builds
/// one plan per loop per run; `lu`'s loops in `k` build one per instance
/// and cache nothing; the table never outgrows the program's loop count.
/// A loop with an indirect reference (`irreg`'s gather — the suite's
/// only one) keeps its plan but never a schedule: every instance walks
/// one rebuilt from what the index array names right now.
#[test]
fn inspector_memo_discipline() {
    for spec in extended_suite(Scale::Test) {
        let loops = spec.program.par_loops();
        for cfg in [
            ExecConfig::sm_unopt(NP),
            ExecConfig::sm_opt(NP),
            ExecConfig::mp(NP),
        ] {
            let run = execute(&spec.program, &cfg);
            assert_eq!(run.inspector.len(), loops.len());
            let mut cacheable = 0;
            for (l, row) in loops.iter().zip(&run.inspector) {
                let instances = row.inspections + row.hits;
                cacheable += usize::from(l.is_static() && instances > 0);
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
            assert_eq!(run.plans_cached, cacheable, "{}", spec.name);
            match spec.name {
                "jacobi" => assert_eq!(run.plans_cached, loops.len()),
                "lu" => {
                    let k_loops = loops.iter().filter(|l| !l.is_static()).count();
                    assert_eq!(k_loops, 2, "scale and update");
                    assert_eq!(run.plans_cached, loops.len() - 2, "only init");
                }
                _ => {}
            }
        }
        let (_, seen) = probed(&spec.program, &ExecConfig::sm_opt(NP));
        for s in &seen {
            let l = loops[s.loop_id as usize];
            let indirect = l.refs.iter().any(ARef::is_indirect);
            assert_eq!(s.rebuilt, indirect, "{}/{}", spec.name, l.name);
        }
        let rebuilt = seen.iter().filter(|s| s.rebuilt).count();
        assert_eq!(rebuilt > 1, spec.name == "irreg", "{}", spec.name);
    }
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
