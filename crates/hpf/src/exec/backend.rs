//! The pluggable communication-backend interface.
//!
//! The BSP superstep driver ([`super::engine`]) is backend-agnostic: for
//! each parallel loop it calls the hooks below in a fixed order with the
//! loop instance's [`LoopPlan`] (analysis plus lowering — backends read
//! it, they never lower a section themselves), and a backend decides how
//! declared accesses become data movement — default protocol faults, the
//! §4.2 compiler-directed contract, or marshalled messages — by
//! executing a schedule it builds from the plan at most once and leaves
//! there. The driver never matches on [`super::Backend`].

use super::engine::EngineCore;
use crate::ir::ParLoop;
use crate::plan::LoopPlan;
use fgdsm_tempest::ReduceOp;

/// One communication strategy for the superstep driver.
///
/// Hook order per parallel loop: [`resolve`](CommBackend::resolve) →
/// compute phase (driver: kernels on their own shards, possibly on real
/// threads) → [`note_kernel_writes`](CommBackend::note_kernel_writes)
/// → [`reduce`](CommBackend::reduce) (if the loop reduces) →
/// [`post_loop`](CommBackend::post_loop). After the whole program:
/// [`finish`](CommBackend::finish) then [`gather`](CommBackend::gather).
///
/// `resolve` *is* the superstep's resolve phase: it runs on the driver
/// thread with the whole cluster in scope and must leave every access
/// the loop declares serviceable from the accessing node's own shard —
/// after it returns, the driver assumes kernels perform zero cross-node
/// access. Everything after the kernels (`note_kernel_writes`, `reduce`,
/// `post_loop`) runs on the driver thread again.
pub trait CommBackend {
    /// Check configuration invariants before the run starts (e.g. the
    /// §4.2 contract requires a protocol that supports it).
    fn validate(&self, _core: &EngineCore) {}

    /// The resolve phase: discover and service every cross-node transfer
    /// the loop needs — resolve faults, execute the ctl contract, or ship
    /// messages — against the state the previous superstep left behind.
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan);

    /// Observe the writes the kernels just performed (e.g. PRE's
    /// redundancy cache invalidation).
    fn note_kernel_writes(&mut self, _core: &mut EngineCore, _l: &ParLoop, _plan: &LoopPlan) {}

    /// Combine per-node partial reduction values into the replicated
    /// scalar result, charging the reduction's communication.
    fn reduce(&mut self, core: &mut EngineCore, partials: &[f64], op: ReduceOp) -> f64 {
        core.dsm.cluster.allreduce(partials, op)
    }

    /// End-of-loop cleanup and synchronization (release/barrier for the
    /// shared-memory backends; nothing for message passing, which
    /// synchronizes point-to-point).
    fn post_loop(&mut self, core: &mut EngineCore, l: &ParLoop, plan: &LoopPlan);

    /// Final synchronization after the whole program.
    fn finish(&mut self, core: &mut EngineCore);

    /// Gather the canonical segment contents from the node copies.
    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64>;

    /// PRE statistics `(skipped, performed)`; zero for backends without
    /// the redundancy-elimination extension.
    fn pre_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}
