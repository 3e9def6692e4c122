//! The shared-memory backend: the default protocol, plus — from
//! [`OptLevel::ctl`] up — compiler-orchestrated incoherence (§4.2) with
//! optional bulk transfer, run-time overhead elimination (§4.3) and
//! partial-redundancy elimination of transfers.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::ir::{ParLoop, RefMode};
use crate::plan::{self, CtlSchedule, LoopPlan, OptLevel};
use crate::redundancy::PreCache;
use std::cell::Ref;
use std::time::Instant;

/// Per-loop access analysis finds the producer→consumer transfers,
/// `shmem_limits` shrinks them to whole blocks, and the §4.2 call
/// contract (`mk_writable` / barrier / `implicit_writable` / barrier /
/// `send` + `ready_to_recv` / loop / `implicit_invalidate` / barrier)
/// moves the data. Boundary blocks and cold misses still take the default
/// path (`EngineCore::resolve_default` runs after the contract). With
/// [`OptLevel::unopt`] there is no contract and every remote access goes
/// through the default protocol — faults, invalidations, 4-hop forwards —
/// exactly what the authors' unoptimized shared-memory compiler emits.
///
/// The contract of a loop instance is the plan's [`CtlSchedule`]; this
/// only executes it.
pub struct SmOpt {
    opt: OptLevel,
    pre: PreCache,
}

impl SmOpt {
    pub fn new(opt: OptLevel) -> Self {
        SmOpt {
            opt,
            pre: PreCache::new(),
        }
    }

    /// The contract schedule of this loop instance, from the plan's slot.
    /// At a `pre` level its filter (what is still valid right now) is the
    /// run's state, which moves with every delivery and write: the input
    /// version is then the transfer cache's tick, so every instance
    /// refills the slot.
    pub fn schedule<'a>(&self, core: &EngineCore, plan: &'a LoopPlan) -> Ref<'a, CtlSchedule> {
        let input = if self.opt.pre { self.pre.epoch() } else { 0 };
        plan.ctl.get_or_fill((plan.version, input), |sched| {
            let (dsm, bulk, edge) = (&core.dsm, self.opt.bulk, core.cfg.inject.force_boundary);
            let still_valid = |user, array, first, end| {
                self.opt.pre && self.pre.is_valid(user, array, first, end, core.wpb)
            };
            let (cluster, faults) = (&dsm.cluster, dsm.faults);
            plan::ctl_schedule_into(plan, cluster, faults, bulk, edge, still_valid, sched)
        })
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
        // no overhead is paid. The stale runs are the gaps in the owner's
        // exclusive set, found a word at a time.
        let mut acquired = false;
        for &(o, f, e) in &sched.acquire {
            if !self.opt.rtoe {
                if f < e {
                    core.dsm.mk_writable(o, f, e);
                    acquired = true;
                }
                continue;
            }
            let mut from = f;
            while let Some((s, t)) = core.dsm.excl_blocks(o).first_absent_run(from, e) {
                core.dsm.mk_writable(o, s, t);
                acquired = true;
                from = t;
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
            let sched = plan.ctl.get().expect("resolve scheduled this instance");
            self.cleanup_ctl(core, &sched);
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
