//! The shared-memory backend: the default protocol, plus — from
//! [`OptLevel::ctl`] up — compiler-orchestrated incoherence (§4.2) with
//! optional bulk transfer, run-time overhead elimination (§4.3) and
//! partial-redundancy elimination of transfers.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::ir::{ParLoop, RefMode};
use crate::plan::{merge_block_ranges, LoopPlan, OptLevel};
use crate::redundancy::PreCache;
use fgdsm_protocol::FlushEntry;
use std::collections::BTreeMap;

/// Per-loop access analysis finds the producer→consumer transfers,
/// `shmem_limits` shrinks them to whole blocks, and the §4.2 call
/// contract (`mk_writable` / barrier / `implicit_writable` / barrier /
/// `send` + `ready_to_recv` / loop / `implicit_invalidate` / barrier)
/// moves the data. Boundary blocks and cold misses still take the default
/// path ([`EngineCore::resolve_default`] runs after the contract). With
/// [`OptLevel::unopt`] there is no contract and every remote access goes
/// through the default protocol — faults, invalidations, 4-hop forwards —
/// exactly what the authors' unoptimized shared-memory compiler emits.
pub struct SmOpt {
    opt: OptLevel,
    pre: PreCache,
    /// Non-owner-write flushes pending for the current loop's cleanup.
    pending_flushes: Vec<FlushEntry>,
    /// Reader invalidations pending for the current loop's cleanup.
    pending_invalidate: Vec<(usize, usize, usize)>,
}

impl SmOpt {
    pub fn new(opt: OptLevel) -> Self {
        SmOpt {
            opt,
            pre: PreCache::new(),
            pending_flushes: Vec::new(),
            pending_invalidate: Vec::new(),
        }
    }

    /// Build the per-loop compiler-control schedule and execute the §4.2
    /// contract up to (and including) the data push.
    fn comm_ctl(&mut self, core: &mut EngineCore, plan: &LoopPlan) {
        let wpb = core.wpb;
        // Merged send entries: (owner, array, first, end) → readers.
        let mut sends: BTreeMap<(usize, usize, usize, usize), Vec<usize>> = BTreeMap::new();
        // Incoming ranges per node (for implicit_writable / invalidate).
        let mut incoming: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
        let mut flushes: Vec<FlushEntry> = Vec::new();

        let opt = self.opt;
        // Collect per (owner, array, user): the ctl ranges of every
        // transfer, then merge overlapping/adjacent ranges — two stencil
        // references to the same ghost column (e.g. `p(i,j-1)` and
        // `p(i-1,j-1)` in shallow's loop 100) produce almost-identical
        // sections that would otherwise be pushed twice.
        type UserKey = (usize, usize, usize, bool); // (owner, array, user, is_write)
        let mut per_user: BTreeMap<UserKey, Vec<(usize, usize)>> = BTreeMap::new();
        // (An indirect transfer is statically unanalyzable: its ctl ranges
        // are empty and it is left to the default protocol.)
        for ((t, is_write), cr) in plan.transfers().zip(&plan.xfer_ctl) {
            if !cr.ctl.is_empty() {
                per_user
                    .entry((t.owner, t.array, t.user, is_write))
                    .or_default()
                    .extend(cr.ctl.iter().copied());
            }
        }
        for ((owner, array, user, is_write), mut ranges) in per_user {
            for (f, e) in merge_block_ranges(&mut ranges) {
                let (f, e) = if core.cfg.inject.force_boundary {
                    // Tolerated perturbation: retreat each ctl range by one
                    // block per end, forcing the dropped boundary blocks
                    // onto the default-protocol path (resolve_default runs
                    // after the contract and covers every section).
                    (f + 1, e.saturating_sub(1))
                } else {
                    (f, e)
                };
                if f >= e {
                    continue;
                }
                if opt.pre && !is_write && self.pre.is_valid(user, array, f, e, wpb) {
                    self.pre.skipped += 1;
                    continue;
                }
                if !is_write {
                    self.pre.performed += 1;
                }
                sends.entry((owner, array, f, e)).or_default().push(user);
                incoming.entry(user).or_default().push((array, f, e));
                if is_write {
                    flushes.push(FlushEntry {
                        writer: user,
                        owner,
                        first: f,
                        end: e,
                        array: array as u32,
                    });
                    // The write-back is part of the planned section volume.
                    core.note_planned(array, (e - f) as u64);
                }
            }
        }
        self.pending_flushes = flushes;
        self.pending_invalidate = incoming
            .iter()
            .flat_map(|(&n, v)| v.iter().map(move |&(_, f, e)| (n, f, e)))
            .collect();
        if sends.is_empty() {
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
        let mut by_owner: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for &(o, _, f, e) in sends.keys() {
            by_owner.entry(o).or_default().push((f, e));
        }
        let mut acquired = false;
        for (o, mut ranges) in by_owner {
            ranges.sort_unstable();
            ranges.dedup();
            for (f, e) in ranges {
                if !self.opt.rtoe {
                    core.dsm.mk_writable(o, f, e);
                    acquired = true;
                    continue;
                }
                let mut b = f;
                while b < e {
                    if core.dsm.dir_state(b).is_excl_by(o) {
                        b += 1;
                        continue;
                    }
                    let s = b;
                    while b < e && !core.dsm.dir_state(b).is_excl_by(o) {
                        b += 1;
                    }
                    core.dsm.mk_writable(o, s, b);
                    acquired = true;
                }
            }
        }
        if acquired {
            core.dsm.release_barrier();
        }

        // Phase B: receivers tag the landing blocks writable.
        for (&n, ranges) in &incoming {
            let mut rs: Vec<(usize, usize)> = ranges.iter().map(|&(_, f, e)| (f, e)).collect();
            rs.sort_unstable();
            rs.dedup();
            for (f, e) in rs {
                core.dsm.implicit_writable(n, f, e, self.opt.rtoe);
            }
        }
        core.dsm.release_barrier();

        // Phase C: owners push, receivers wait on the counting semaphore.
        // Plan → apply: the plan pass does all call-site bookkeeping,
        // then the (owner, reader) plans apply in plan order.
        let mut entries: Vec<fgdsm_protocol::SendEntry> = Vec::with_capacity(sends.len());
        for (&(o, a, f, e), readers) in &sends {
            let mut rs = readers.clone();
            rs.sort_unstable();
            rs.dedup();
            if self.opt.pre {
                for &r in &rs {
                    self.pre.record_delivery(r, a, f, e);
                }
            }
            // One copy of the section reaches every reader.
            core.note_planned(a, ((e - f) * rs.len()) as u64);
            entries.push(fgdsm_protocol::SendEntry {
                owner: o,
                readers: rs,
                first: f,
                end: e,
                array: a as u32,
            });
        }
        let plans = core.dsm.plan_sends(&entries, self.opt.bulk);
        core.dsm.apply_plans(&plans);
        core.dsm.recycle_plans(plans);
        for &n in incoming.keys() {
            core.dsm.ready_to_recv(n);
        }
    }

    /// The post-loop half of the contract: readers discard compiler-
    /// controlled copies (skipped under RTOE), non-owner writers flush —
    /// through the same plan/apply pipeline as the pushes.
    fn cleanup_ctl(&mut self, core: &mut EngineCore) {
        let entries = std::mem::take(&mut self.pending_flushes);
        let plans = core.dsm.plan_flushes(&entries, self.opt.bulk);
        core.dsm.apply_plans(&plans);
        core.dsm.recycle_plans(plans);
        let inval = std::mem::take(&mut self.pending_invalidate);
        if !self.opt.rtoe {
            for (n, f, e) in inval {
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
            self.comm_ctl(core, plan);
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

    fn post_loop(&mut self, core: &mut EngineCore, _l: &ParLoop, _plan: &LoopPlan) {
        if self.opt.ctl {
            self.cleanup_ctl(core);
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
