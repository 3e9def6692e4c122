//! The unoptimized shared-memory backend: default protocol only.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::analysis::LoopAccess;
use crate::ir::ParLoop;

/// Every remote access goes through the default protocol: before a loop's
/// kernels run, each node's declared read/write sections are resolved
/// block-by-block (faults, invalidations, 4-hop forwards) — exactly what
/// the authors' unoptimized shared-memory compiler emits.
pub struct SmUnopt;

impl CommBackend for SmUnopt {
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, acc: &LoopAccess) {
        core.resolve_default(l, acc);
    }

    fn post_loop(&mut self, core: &mut EngineCore, _l: &ParLoop, _acc: &LoopAccess) {
        core.dsm.release_barrier();
    }

    fn finish(&mut self, core: &mut EngineCore) {
        core.dsm.release_barrier();
    }

    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        core.gather_by_directory()
    }
}
