//! The message-passing backend: owner-computes with direct marshalled
//! messages, no coherence machinery at all.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::ir::{ParLoop, RefMode};
use crate::plan::LoopPlan;
use fgdsm_protocol::{MpRuntime, MpSendPlan};
use fgdsm_section::{Section, StridedRange};
use fgdsm_tempest::ReduceOp;
use std::collections::{BTreeMap, BTreeSet};

/// One marshalled message per (owner → user, section) pair — except that
/// a section shipped from one owner to three or more readers (e.g. `lu`'s
/// pivot column) goes through the runtime's broadcast tree, as `pghpf`'s
/// runtime does. Pays the PGI runtime's per-message overhead.
pub struct Mp {
    mp: MpRuntime,
}

impl Mp {
    pub fn new(nprocs: usize) -> Self {
        Mp {
            mp: MpRuntime::new(nprocs),
        }
    }
}

impl CommBackend for Mp {
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan) {
        let mut users: BTreeSet<usize> = BTreeSet::new();
        // Planned strided sends, merged per (owner, user) pair.
        let mut plans: BTreeMap<(usize, usize), MpSendPlan> = BTreeMap::new();
        // The users of each distinct (owner, array, section).
        let mut groups: BTreeMap<(usize, usize, &Section), Vec<usize>> = BTreeMap::new();
        for (t, _) in plan.transfers() {
            let key = (t.owner, t.array, &t.section);
            groups.entry(key).or_default().push(t.user);
        }
        for ((t, _), runs) in plan.transfers().zip(&plan.xfer_runs) {
            // The runtime's stride of a single run is 1, not 0.
            let sections = runs.runs.iter().map(|sr| StridedRange {
                stride: sr.stride.max(1),
                ..*sr
            });
            let group = &groups[&(t.owner, t.array, &t.section)];
            if group.len() >= 3 {
                // Broadcast once, on behalf of the whole group.
                if group[0] == t.user {
                    for sr in sections {
                        self.mp.broadcast(&mut core.dsm, t.owner, group, sr);
                    }
                }
            } else {
                // Plan → apply: accumulate the strided sections per
                // (owner, user) pair; the pairs apply in plan order after
                // the broadcasts.
                plans
                    .entry((t.owner, t.user))
                    .or_insert_with(|| self.mp.take_send_plan(t.owner, t.user))
                    .sections
                    .extend(sections);
            }
            users.insert(t.user);
        }
        let mut plan_vec = self.mp.take_send_plan_vec();
        plan_vec.extend(plans.into_values());
        let plans = plan_vec;
        self.mp.apply_send_plans(&mut core.dsm, &plans);
        self.mp.recycle_send_plans(plans);
        for &u in &users {
            self.mp.recv_all(&mut core.dsm.cluster, u);
        }
        // Map each node's own written pages (first touch).
        for (p, per_ref) in plan.runs.iter().enumerate() {
            for (r, lr) in l.refs.iter().zip(per_ref) {
                if r.mode == RefMode::Write {
                    for (s, len) in lr.iter_runs() {
                        core.dsm.cluster.map_range(p, s, len);
                    }
                }
            }
        }
    }

    fn reduce(&mut self, core: &mut EngineCore, partials: &[f64], op: ReduceOp) -> f64 {
        self.mp.allreduce(&mut core.dsm.cluster, partials, op)
    }

    fn post_loop(&mut self, _core: &mut EngineCore, _l: &ParLoop, _plan: &LoopPlan) {
        // Point-to-point synchronization only: no loop-end barrier.
    }

    fn finish(&mut self, core: &mut EngineCore) {
        core.dsm.cluster.barrier();
    }

    /// Gather from the distribution owners (there is no directory).
    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        let words = core.dsm.cluster.seg_words();
        let mut out = vec![0.0f64; words];
        for (i, a) in core.prog.arrays.iter().enumerate() {
            for p in 0..core.cfg.nprocs {
                let sec = a.owner_section(p, core.cfg.nprocs);
                if sec.is_empty() {
                    continue;
                }
                for (s, len) in core.metas[i].runs(&sec).iter_runs() {
                    out[s..s + len].copy_from_slice(&core.dsm.cluster.node_mem(p)[s..s + len]);
                }
            }
        }
        out
    }
}
