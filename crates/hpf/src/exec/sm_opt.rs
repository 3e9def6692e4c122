//! The shared-memory backend: the default protocol, plus — from
//! [`OptLevel::ctl`] up — compiler-orchestrated incoherence (§4.2) with
//! optional bulk transfer, run-time overhead elimination (§4.3) and
//! partial-redundancy elimination of transfers.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::ir::{ParLoop, RefMode};
use crate::plan::{self, CtlSchedule, LoopPlan, OptLevel};
use crate::redundancy::PreCache;
use fgdsm_protocol::Dsm;
use std::borrow::Cow;
use std::time::Instant;

/// Per-loop access analysis finds the producer→consumer transfers,
/// `shmem_limits` shrinks them to whole blocks, and the §4.2 call
/// contract (`mk_writable` / barrier / `implicit_writable` / barrier /
/// `send` + `ready_to_recv` / loop / `implicit_invalidate` / barrier)
/// moves the data. Boundary blocks and cold misses still take the default
/// path ([`EngineCore::resolve_default`] runs after the contract). With
/// [`OptLevel::unopt`] there is no contract and every remote access goes
/// through the default protocol — faults, invalidations, 4-hop forwards —
/// exactly what the authors' unoptimized shared-memory compiler emits.
///
/// The contract of a loop instance is the plan's [`CtlSchedule`]; this
/// only executes it.
pub struct SmOpt {
    opt: OptLevel,
    pre: PreCache,
    /// The in-flight instance's schedule at a `pre` level, which cannot
    /// live in the plan ([`SmOpt::schedule`]): kept from `resolve` for
    /// `post_loop`.
    rebuilt: Option<CtlSchedule>,
}

impl SmOpt {
    pub fn new(opt: OptLevel) -> Self {
        SmOpt {
            opt,
            pre: PreCache::new(),
            rebuilt: None,
        }
    }

    /// The contract schedule of this loop instance: the plan's, built at
    /// its first resolve and kept as long as the plan is — unless the
    /// level is `pre`, whose filter (what is still valid right now)
    /// changes with every delivery and write, so each instance builds its
    /// own.
    pub fn schedule<'a>(&self, core: &EngineCore, plan: &'a LoopPlan) -> Cow<'a, CtlSchedule> {
        let build = || {
            let (dsm, bulk, edge) = (&core.dsm, self.opt.bulk, core.cfg.inject.force_boundary);
            let still_valid = |user, array, first, end| {
                self.opt.pre && self.pre.is_valid(user, array, first, end, core.wpb)
            };
            plan::ctl_schedule(plan, &dsm.cluster, dsm.injection(), bulk, edge, still_valid)
        };
        match self.opt.pre {
            true => Cow::Owned(build()),
            false => Cow::Borrowed(plan.ctl.get_or_init(build)),
        }
    }

    /// Execute the §4.2 contract up to (and including) the data push.
    fn comm_ctl(&mut self, core: &mut EngineCore, sched: &CtlSchedule) {
        self.pre.skipped += sched.reads_skipped;
        self.pre.performed += sched.reads_performed;
        for &(array, blocks) in &sched.planned {
            core.note_planned(array, blocks);
        }
        if sched.sends.is_empty() {
            return;
        }

        // Phase A: owners acquire write ownership. RTOE elides the
        // acquire where the default protocol already left the owner
        // exclusive — but a prior loop's boundary-path non-owner writes
        // can have moved a block to another node (its dir-exclusive
        // writer), and sending without reacquiring would push the owner's
        // stale copy over current data. So under RTOE, acquire exactly
        // the blocks whose directory state contradicts the assumption;
        // in the steady state (owners exclusive) no call is issued and
        // no overhead is paid.
        let rtoe = self.opt.rtoe;
        let stale = |dsm: &Dsm, o, b| !rtoe || !dsm.dir_state(b).is_excl_by(o);
        let mut acquired = false;
        for &(o, f, e) in &sched.acquire {
            let mut b = f;
            while b < e {
                let s = b;
                while b < e && stale(&core.dsm, o, b) {
                    b += 1;
                }
                if s < b {
                    core.dsm.mk_writable(o, s, b);
                    acquired = true;
                } else {
                    b += 1;
                }
            }
        }
        if acquired {
            core.dsm.release_barrier();
        }

        // Phase B: receivers tag the landing blocks writable.
        for &(n, f, e) in &sched.landing {
            core.dsm.implicit_writable(n, f, e, self.opt.rtoe);
        }
        core.dsm.release_barrier();

        // Phase C: owners push, receivers wait on the counting semaphore.
        if self.opt.pre {
            for en in &sched.sends {
                for &r in &en.readers {
                    self.pre
                        .record_delivery(r, en.array as usize, en.first, en.end);
                }
            }
        }
        core.dsm.exec_sends(&sched.sends, &sched.send_plans);
        for &n in &sched.receivers {
            core.dsm.ready_to_recv(n);
        }
    }

    /// The post-loop half of the contract: non-owner writers flush, and
    /// readers discard compiler-controlled copies (skipped under RTOE).
    fn cleanup_ctl(&mut self, core: &mut EngineCore, sched: &CtlSchedule) {
        core.dsm.exec_flushes(&sched.flushes, &sched.flush_plans);
        if !self.opt.rtoe {
            for &(n, f, e) in &sched.invalidate {
                core.dsm.implicit_invalidate(n, f, e);
            }
            // The closing barrier of the contract doubles as the loop-end
            // barrier executed by post_loop.
        }
    }
}

impl CommBackend for SmOpt {
    fn validate(&self, core: &EngineCore) {
        assert!(
            !self.opt.ctl || core.dsm.supports_ctl(),
            "compiler-orchestrated incoherence requires the eager-invalidate protocol \
             (got {})",
            core.dsm.protocol_name()
        );
    }

    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        self.pre.tick();
        if self.opt.ctl {
            let t0 = Instant::now();
            let sched = self.schedule(core, plan);
            core.phases.inspect_ns += t0.elapsed().as_nanos() as u64;
            self.comm_ctl(core, &sched);
            if let Cow::Owned(sched) = sched {
                self.rebuilt = Some(sched);
            }
        }
        core.resolve_default(l, plan);
    }

    fn note_kernel_writes(&mut self, _core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        if !self.opt.pre {
            return;
        }
        for per_ref in &plan.runs {
            for (r, lr) in l.refs.iter().zip(per_ref) {
                if r.mode == RefMode::Write {
                    for (s, len) in lr.iter_runs() {
                        self.pre.record_write(r.array.0, s, len);
                    }
                }
            }
        }
    }

    fn post_loop(&mut self, core: &mut EngineCore, _l: &ParLoop, plan: &LoopPlan) {
        if self.opt.ctl {
            let rebuilt = self.rebuilt.take();
            let sched = rebuilt.as_ref().or(plan.ctl.get());
            self.cleanup_ctl(core, sched.expect("resolve scheduled this instance"));
        }
        core.dsm.release_barrier();
    }

    fn finish(&mut self, core: &mut EngineCore) {
        core.dsm.release_barrier();
    }

    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        core.gather_by_directory()
    }

    fn pre_stats(&self) -> (u64, u64) {
        (self.pre.skipped, self.pre.performed)
    }
}
