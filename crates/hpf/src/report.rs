//! Compiler diagnostics: a human-readable report of what the analysis
//! found and what the planner decided, per parallel loop — the analogue
//! of `pghpf -Minfo` output, and the fastest way to understand why a
//! given loop did or did not get compiler-orchestrated communication.

use crate::analysis;
use crate::dist::Dist;
use crate::exec::engine::layout_arrays;
use crate::ir::{ParLoop, Program};
use crate::plan::{self, ArrayMeta};
use fgdsm_section::Env;
use fgdsm_tempest::CostModel;
use std::fmt::Write;

/// Per-loop analysis summary.
#[derive(Clone, Debug)]
pub struct LoopReport {
    pub loop_name: &'static str,
    /// (array name, owner, user, elements, ctl blocks, boundary words,
    /// indirect?) per read transfer.
    pub transfers: Vec<TransferReport>,
    /// Total elements communicated.
    pub total_elements: u64,
    /// Total blocks eligible for compiler control.
    pub ctl_blocks: usize,
    /// Total boundary words left to the default protocol.
    pub boundary_words: usize,
    /// Read transfers excluded because of indirect subscripts.
    pub indirect_transfers: usize,
}

/// One analyzed transfer.
#[derive(Clone, Debug)]
pub struct TransferReport {
    pub array: &'static str,
    pub owner: usize,
    pub user: usize,
    pub section: String,
    pub elements: u64,
    pub ctl_blocks: usize,
    pub boundary_words: usize,
    pub indirect: bool,
}

/// Analyze every parallel loop of `prog` under `env` and summarize the
/// communication the compiler would orchestrate on `nprocs` nodes with
/// `words_per_block`-word cache blocks.
pub fn analyze_program(
    prog: &Program,
    env: &Env,
    nprocs: usize,
    words_per_block: usize,
) -> Vec<LoopReport> {
    // Array placements as the executor lays them out.
    let (_, metas, _) = layout_arrays(prog, CostModel::paper_dual_cpu().words_per_page());
    prog.par_loops()
        .into_iter()
        .map(|l| analyze_loop(prog, l, env, nprocs, words_per_block, &metas))
        .collect()
}

fn analyze_loop(
    prog: &Program,
    l: &ParLoop,
    env: &Env,
    nprocs: usize,
    wpb: usize,
    metas: &[ArrayMeta],
) -> LoopReport {
    let plan = plan::lower(l, analysis::analyze(prog, l, env, nprocs), metas, wpb);
    let mut transfers = Vec::new();
    let mut total_elements = 0;
    let mut ctl_blocks = 0;
    let mut boundary_words = 0;
    let mut indirect_transfers = 0;
    for (t, cr) in plan.acc.read_transfers.iter().zip(&plan.xfer_ctl) {
        indirect_transfers += usize::from(t.indirect);
        total_elements += t.section.count();
        ctl_blocks += cr.ctl_blocks();
        boundary_words += cr.boundary_words();
        transfers.push(TransferReport {
            array: prog.arrays[t.array].name,
            owner: t.owner,
            user: t.user,
            section: format!("{}", t.section),
            elements: t.section.count(),
            ctl_blocks: cr.ctl_blocks(),
            boundary_words: cr.boundary_words(),
            indirect: t.indirect,
        });
    }
    LoopReport {
        loop_name: l.name,
        transfers,
        total_elements,
        ctl_blocks,
        boundary_words,
        indirect_transfers,
    }
}

/// Render the reports as `-Minfo`-style text.
pub fn render(prog: &Program, reports: &[LoopReport], nprocs: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "communication report, {nprocs} nodes");
    for (i, a) in prog.arrays.iter().enumerate() {
        let _ = writeln!(
            out,
            "  array {:<10} {:>10} elements, {}",
            a.name,
            a.len(),
            match a.dist {
                Dist::Block => "BLOCK distributed (last dim)",
                Dist::Cyclic => "CYCLIC distributed (last dim)",
                Dist::Replicated => "replicated",
            }
        );
        let _ = i;
    }
    for r in reports {
        let _ = writeln!(out, "loop `{}`:", r.loop_name);
        if r.transfers.is_empty() {
            let _ = writeln!(out, "  no interprocessor communication");
            continue;
        }
        for t in &r.transfers {
            if t.indirect {
                let _ = writeln!(
                    out,
                    "  {}[indirect] {} -> {}: unanalyzable, default protocol",
                    t.array, t.owner, t.user
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {}{} {} -> {}: {} elements, {} blocks under compiler control, {} boundary words",
                    t.array, t.section, t.owner, t.user, t.elements, t.ctl_blocks, t.boundary_words
                );
            }
        }
        let covered = r.ctl_blocks * 16;
        let _ = writeln!(
            out,
            "  summary: {} elements / {} blocks controlled (~{} words) / {} boundary words / {} indirect",
            r.total_elements, r.ctl_blocks, covered, r.boundary_words, r.indirect_transfers
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use crate::ir::{ARef, CompDist, Kernel, KernelCtx, ParLoop, Stmt, Subscript};
    use fgdsm_section::SymRange;

    fn nk(_: &mut KernelCtx) {}

    fn prog() -> Program {
        let mut b = Program::builder();
        let a = b.array("a", &[64, 32], Dist::Block);
        let bb = b.array("b", &[64, 32], Dist::Block);
        b.stmt(Stmt::Par(ParLoop {
            name: "sweep",
            iter: vec![SymRange::new(1, 62), SymRange::new(1, 30)],
            dist: CompDist::Owner(bb),
            refs: vec![
                ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, -1)]),
                ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, 1)]),
                ARef::write(bb, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
            ],
            kernel: Kernel::new(nk),
            cost_per_iter_ns: 100,
            reduction: None,
        }));
        b.build()
    }

    #[test]
    fn report_finds_ghost_transfers() {
        let p = prog();
        let reports = analyze_program(&p, &Env::new(), 4, 16);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.loop_name, "sweep");
        // Interior nodes exchange ghost columns with both neighbors.
        assert!(!r.transfers.is_empty());
        assert!(r.total_elements > 0);
        assert!(r.ctl_blocks > 0);
        assert!(r.boundary_words > 0); // 62-row ghosts are not block-aligned
        assert_eq!(r.indirect_transfers, 0);
    }

    #[test]
    fn render_produces_readable_text() {
        let p = prog();
        let reports = analyze_program(&p, &Env::new(), 4, 16);
        let text = render(&p, &reports, 4);
        assert!(text.contains("loop `sweep`"));
        assert!(text.contains("BLOCK distributed"));
        assert!(text.contains("blocks under compiler control"));
    }
}
