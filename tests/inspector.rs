//! The default-protocol resolve as an inspector/executor pair: the new
//! inspector against the one it replaced, the memo's discipline, the
//! `shuffle_resolve` perturbation on a memo hit, and the host phase clock.
//!
//! The old inspector survives here only — as the oracle of
//! [`new_inspector_equals_the_old_one`], written against the engine's
//! public helpers. (It cannot be a `#[cfg(test)]` item of `fgdsm-hpf`:
//! that crate's unit tests cannot see the suite's or the fuzzer's
//! programs.)

use fgdsm::apps::{extended_suite, suite, Scale};
use fgdsm::hpf::exec::backend::CommBackend;
use fgdsm::hpf::exec::engine::{EngineCore, ResolveSchedule};
use fgdsm::hpf::exec::{sm_opt::SmOpt, sm_unopt::SmUnopt};
use fgdsm::hpf::{
    covering_blocks, execute, execute_with, ARef, ExecConfig, InjectConfig, LoopAccess, OptLevel,
    ParLoop, Program, RefMode, RunResult,
};
use fgdsm::section::{LinearRanges, StridedRange};
use fgdsm::tempest::ReduceOp;
use fgdsm_fuzz::{case_seed, gen_spec};
use fgdsm_testkit::{Rng, BASE_SEED};
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
            let runs = core.section_runs(r.array.0, sec);
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
    /// Was the loop's schedule already memoized?
    hit: bool,
    order: Vec<usize>,
    multi_blocks: usize,
}

/// A built-in backend with a window on the engine: before every resolve
/// it runs both inspectors on the state the resolve is about to see and
/// notes the executor's visiting order.
struct Probe<B> {
    inner: B,
    seen: Rc<RefCell<Vec<Seen>>>,
}

impl<B: CommBackend> CommBackend for Probe<B> {
    fn validate(&self, core: &EngineCore) {
        self.inner.validate(core);
    }
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, acc: &LoopAccess) {
        let new = core.inspect(l, acc);
        assert_eq!(
            new,
            old_inspector(core, l, acc),
            "loop `{}` at superstep {}: inspectors disagree",
            l.name,
            core.supersteps
        );
        self.seen.borrow_mut().push(Seen {
            loop_id: core.cur_loop,
            hit: core.schedule_memoized(l),
            order: core.resolve_order(),
            multi_blocks: new.multi.len(),
        });
        self.inner.resolve(core, l, acc);
    }
    fn note_kernel_writes(&mut self, core: &mut EngineCore, l: &ParLoop, acc: &LoopAccess) {
        self.inner.note_kernel_writes(core, l, acc);
    }
    fn reduce(&mut self, core: &mut EngineCore, partials: &[f64], op: ReduceOp) -> f64 {
        self.inner.reduce(core, partials, op)
    }
    fn post_loop(&mut self, core: &mut EngineCore, l: &ParLoop, acc: &LoopAccess) {
        self.inner.post_loop(core, l, acc);
    }
    fn finish(&mut self, core: &mut EngineCore) {
        self.inner.finish(core);
    }
    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        self.inner.gather(core)
    }
    fn pre_stats(&self) -> (u64, u64) {
        self.inner.pre_stats()
    }
}

/// Run `prog` under `cfg` (an `sm_unopt` or `sm_opt` configuration)
/// behind a [`Probe`].
fn probed(prog: &Program, cfg: &ExecConfig) -> (RunResult, Vec<Seen>) {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let backend: Box<dyn CommBackend> = match cfg.backend {
        fgdsm::hpf::Backend::SmUnopt => Box::new(Probe {
            inner: SmUnopt,
            seen: seen.clone(),
        }),
        fgdsm::hpf::Backend::SmOpt(opt) => Box::new(Probe {
            inner: SmOpt::new(opt),
            seen: seen.clone(),
        }),
        other => panic!("probe: {other:?} never runs the default protocol"),
    };
    let run = execute_with(prog, cfg, backend);
    let seen = seen.take();
    (run, seen)
}

/// Differential: on every superstep of the six suite apps (plus `irreg`)
/// and of the first 200 corpus specs, under the default protocol alone
/// and after the full contract, both inspectors return the same covers
/// and the same false-shared blocks — and the probe changes nothing.
#[test]
fn new_inspector_equals_the_old_one() {
    let mut supersteps = 0;
    let mut multi_blocks = 0;
    let mut check = |name: &str, prog: &Program, nprocs: usize| {
        for cfg in [ExecConfig::sm_unopt(nprocs), ExecConfig::sm_opt(nprocs)] {
            let cfg = cfg.serial();
            let (run, seen) = probed(prog, &cfg);
            supersteps += seen.len();
            multi_blocks += seen.iter().map(|s| s.multi_blocks).sum::<usize>();
            let plain = execute(prog, &cfg);
            assert_eq!(run.report.to_json(), plain.report.to_json(), "{name}");
            assert_eq!(run.data, plain.data, "{name}");
        }
    };
    for spec in extended_suite(Scale::Test) {
        check(spec.name, &spec.program, NP);
    }
    for case in 0..200 {
        let seed = case_seed(BASE_SEED, case);
        let spec = gen_spec(&mut Rng::new(seed), seed);
        check(&format!("fuzz seed {seed:#x}"), &spec.build(), spec.nprocs);
    }
    assert!(supersteps > 3000, "only {supersteps} supersteps compared");
    assert!(multi_blocks > 0, "no false-shared block was ever compared");
}

/// Cache discipline. A loop's schedule is memoized exactly when nothing
/// it depends on can change: `jacobi` (all static) inspects each loop
/// once per run; `lu`'s loops in `k` inspect every superstep and memoize
/// nothing; a loop with an indirect reference (`irreg`'s gather — the
/// suite's only one) never memoizes; and the memo never outgrows the
/// program's loop count.
#[test]
fn inspector_memo_discipline() {
    for spec in extended_suite(Scale::Test) {
        let loops = spec.program.par_loops();
        for cfg in [ExecConfig::sm_unopt(NP), ExecConfig::sm_opt(NP)] {
            let run = execute(&spec.program, &cfg);
            assert_eq!(run.inspector.len(), loops.len());
            assert!(run.schedules_cached <= loops.len(), "{}", spec.name);
            let mut memoizable = 0;
            for (l, row) in loops.iter().zip(&run.inspector) {
                let instances = row.inspections + row.hits;
                let fixed = l.is_static() && !l.refs.iter().any(ARef::is_indirect);
                memoizable += usize::from(fixed && instances > 0);
                let want = if fixed { instances.min(1) } else { instances };
                assert_eq!(
                    row.inspections, want,
                    "{}/{}: {instances} instances, static {}",
                    spec.name, l.name, fixed
                );
            }
            assert_eq!(run.schedules_cached, memoizable, "{}", spec.name);
            match spec.name {
                "jacobi" => assert_eq!(run.schedules_cached, loops.len()),
                "lu" => {
                    let k_loops: Vec<_> = loops.iter().filter(|l| !l.is_static()).collect();
                    assert_eq!(k_loops.len(), 2, "scale and update");
                    assert_eq!(run.schedules_cached, loops.len() - 2, "only init");
                }
                "irreg" => {
                    let indirect = loops
                        .iter()
                        .zip(&run.inspector)
                        .filter(|(l, _)| l.refs.iter().any(ARef::is_indirect));
                    let mut n = 0;
                    for (l, row) in indirect {
                        assert_eq!(row.hits, 0, "{}/{}", spec.name, l.name);
                        assert!(row.inspections > 1, "{}/{}", spec.name, l.name);
                        n += 1;
                    }
                    assert!(n > 0, "{} has an indirect loop", spec.name);
                }
                _ => {}
            }
        }
        // `mp` never runs the default protocol: nothing to inspect.
        let run = execute(&spec.program, &ExecConfig::mp(NP));
        assert!(run.inspector.iter().all(|r| r.inspections + r.hits == 0));
        assert_eq!(run.schedules_cached, 0);
    }
}

/// Tolerated: `shuffle_resolve` permutes the executor's visiting order
/// per superstep on a memo hit exactly as on a miss — the memoized
/// schedule holds covers, never an order — and results do not move.
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
    let sweep = loops.iter().position(|l| l.name == "sweep").unwrap() as u32;
    let on_hits: BTreeSet<&Vec<usize>> = seen
        .iter()
        .filter(|s| s.loop_id == sweep && s.hit)
        .map(|s| &s.order)
        .collect();
    assert!(
        on_hits.len() >= 3 && !on_hits.contains(&identity),
        "memo hits of one loop must each get their own order: {on_hits:?}"
    );
    let (_, unshuffled) = probed(&spec.program, &ExecConfig::sm_opt(NP));
    assert!(unshuffled.iter().all(|s| s.order == identity));
    assert!(unshuffled.iter().any(|s| s.hit));
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
            assert_eq!(host.inspect_ns > 0, default_protocol, "{}", spec.name);
        }
    }
}
