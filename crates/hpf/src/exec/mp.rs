//! The message-passing backend: owner-computes with direct marshalled
//! messages, no coherence machinery at all.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::ir::ParLoop;
use crate::plan::{self, LoopPlan};
use fgdsm_protocol::MpRuntime;
use fgdsm_tempest::ReduceOp;
use std::time::Instant;

/// One marshalled message per (owner → user, section) pair — except that
/// a section shipped from one owner to three or more readers (e.g. `lu`'s
/// pivot column) goes through the runtime's broadcast tree, as `pghpf`'s
/// runtime does. Pays the PGI runtime's per-message overhead. Who sends
/// what to whom is the plan's [`plan::MpSchedule`]; this only executes it.
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
        let t0 = Instant::now();
        let sched = plan.mp.get_or_init(|| plan::mp_schedule(l, plan));
        core.phases.inspect_ns += t0.elapsed().as_nanos() as u64;
        for b in &sched.broadcasts {
            for &sr in &b.sections {
                self.mp.broadcast(&mut core.dsm, b.owner, &b.users, sr);
            }
        }
        // The pairs apply in schedule order, after the broadcasts.
        self.mp.apply_send_plans(&mut core.dsm, &sched.sends);
        for &u in &sched.receivers {
            self.mp.recv_all(&mut core.dsm.cluster, u);
        }
        // Map each node's own written pages (first touch).
        for &(p, sr) in &sched.first_touch {
            for (s, len) in sr.runs() {
                core.dsm.cluster.map_range(p, s, len);
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
