//! The sequential reference interpreter: ground truth for the
//! differential-testing oracle.
//!
//! Runs a mini-HPF program against a single flat memory with no cluster,
//! no protocol and no cost model — just the language semantics. Every
//! loop is still partitioned with the same [`crate::analysis::analyze`]
//! the backends use and each node's kernel runs over exactly its own
//! iteration points, so owner-computes semantics (including replicated
//! reduction partials from idle nodes) are preserved bit-for-bit:
//!
//! * Arrays land at the same page-aligned word addresses as in the
//!   engine (`super::engine::layout_arrays` is shared), so kernels and
//!   [`ReferenceResult::array`] use the same absolute offsets.
//! * Reductions combine the per-node partials with the identical fold
//!   `Cluster::allreduce` / `MpRuntime::allreduce` apply, so floating-
//!   point results are byte-identical, not merely close.
//!
//! Because all nodes share one memory, a loop that read array elements
//! another node writes *in the same superstep* would see post-write
//! values where a DSM node sees pre-superstep values. Such programs are
//! outside the language contract (the BSP engine gives them no defined
//! meaning either) and the fuzz generator never emits them.

use super::engine::layout_arrays;
use super::ExecConfig;
use crate::analysis;
use crate::ir::{ArrayHandle, KernelCtx, ParLoop, Program, Stmt};
use crate::plan::ArrayMeta;
use fgdsm_section::{Env, Range};
use fgdsm_tempest::ReduceOp;
use std::collections::BTreeMap;

/// What the reference interpreter produces: final memory and scalars,
/// plus the array placement needed to extract per-array contents.
#[derive(Clone, Debug)]
pub struct ReferenceResult {
    /// Final contents of the whole (page-padded) segment.
    pub data: Vec<f64>,
    /// Final replicated scalar values.
    pub scalars: BTreeMap<&'static str, f64>,
    pub metas: Vec<ArrayMeta>,
}

impl ReferenceResult {
    /// Extract the final contents of one array (same shape as
    /// [`super::RunResult::array`]).
    pub fn array(&self, prog: &Program, id: crate::dist::ArrayId) -> Vec<f64> {
        let meta = &self.metas[id.0];
        let len = prog.array(id).len();
        self.data[meta.base..meta.base + len].to_vec()
    }
}

/// Execute `prog` sequentially. Only `cfg.nprocs`, `cfg.base_env` and the
/// cost model's page size (for array placement) are read; the backend,
/// protocol, parallelism and injection knobs are ignored.
pub fn execute_reference(prog: &Program, cfg: &ExecConfig) -> ReferenceResult {
    let (layout, metas, handles) = layout_arrays(prog, cfg.cost.words_per_page());
    let mut data = vec![0.0f64; layout.total_words()];
    let mut env = cfg.base_env.clone();
    let mut scalars: BTreeMap<&'static str, f64> = prog.scalars.iter().copied().collect();
    run_stmts(
        prog,
        cfg,
        &handles,
        &mut data,
        &mut env,
        &mut scalars,
        &prog.body,
    );
    ReferenceResult {
        data,
        scalars,
        metas,
    }
}

fn run_stmts(
    prog: &Program,
    cfg: &ExecConfig,
    handles: &[ArrayHandle],
    data: &mut Vec<f64>,
    env: &mut Env,
    scalars: &mut BTreeMap<&'static str, f64>,
    stmts: &[Stmt],
) {
    for s in stmts {
        match s {
            Stmt::Par(l) => run_par(prog, cfg, handles, data, env, scalars, l),
            Stmt::Time { var, count, body } => {
                let saved = env.get(*var);
                for t in 0..*count {
                    env.set(*var, t);
                    run_stmts(prog, cfg, handles, data, env, scalars, body);
                }
                if let Some(v) = saved {
                    env.set(*var, v);
                }
            }
            Stmt::Scalar { name, f } => {
                let v = f(scalars);
                scalars.insert(name, v);
            }
        }
    }
}

fn run_par(
    prog: &Program,
    cfg: &ExecConfig,
    handles: &[ArrayHandle],
    data: &mut [f64],
    env: &Env,
    scalars: &mut BTreeMap<&'static str, f64>,
    l: &ParLoop,
) {
    let nprocs = cfg.nprocs;
    let acc = analysis::analyze(prog, l, env, nprocs);
    let mut partials = vec![0.0f64; nprocs];
    #[allow(clippy::needless_range_loop)] // p indexes acc.iters and partials alike
    for p in 0..nprocs {
        let iter = &acc.iters[p];
        if iter.iter().any(Range::is_empty) {
            continue;
        }
        let mut ctx = KernelCtx {
            mem: data,
            iter,
            env,
            scalars,
            partial: 0.0,
            node: p,
            nprocs,
            handles,
        };
        l.kernel.call(&mut ctx);
        partials[p] = ctx.partial;
    }
    if let Some(rs) = l.reduction {
        // The exact fold both cluster allreduces apply — including the
        // 0.0 partials of idle nodes — so floats match byte-for-byte.
        let v = match rs.op {
            ReduceOp::Sum => partials.iter().sum(),
            ReduceOp::Max => partials.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => partials.iter().copied().fold(f64::INFINITY, f64::min),
        };
        scalars.insert(rs.target, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use crate::exec::execute;
    use crate::ir::{ARef, Kernel, ReduceSpec, Subscript};
    use fgdsm_section::SymRange;

    const A: crate::dist::ArrayId = crate::dist::ArrayId(0);

    fn fill_and_sum() -> Program {
        let mut b = Program::builder();
        let a = b.array("a", &[32, 16], Dist::Block);
        b.scalar("total", 0.0);
        let here = vec![Subscript::loop_var(0), Subscript::loop_var(1)];
        b.stmt(Stmt::Par(ParLoop {
            name: "fill",
            iter: vec![SymRange::new(0, 31), SymRange::new(0, 15)],
            dist: crate::ir::CompDist::Owner(a),
            refs: vec![ARef::write(a, here.clone())],
            kernel: Kernel::new(move |ctx: &mut KernelCtx| {
                let h = ctx.h(A);
                for j in ctx.iter[1].iter() {
                    for i in ctx.iter[0].iter() {
                        let v = (i * 3 + j) as f64 * 0.25;
                        ctx.mem[h.at2(i, j)] = v;
                        ctx.partial += v;
                    }
                }
            }),
            cost_per_iter_ns: 10,
            reduction: Some(ReduceSpec {
                op: fgdsm_tempest::ReduceOp::Sum,
                target: "total",
            }),
        }));
        b.build()
    }

    #[test]
    fn reference_matches_backends_bit_for_bit() {
        let prog = fill_and_sum();
        let cfg = crate::exec::ExecConfig::sm_unopt(4);
        let reference = execute_reference(&prog, &cfg);
        for cfg in [
            crate::exec::ExecConfig::sm_unopt(4),
            crate::exec::ExecConfig::sm_opt(4),
            crate::exec::ExecConfig::mp(4),
        ] {
            let r = execute(&prog, &cfg);
            assert_eq!(reference.array(&prog, A), r.array(&prog, A));
            assert_eq!(
                reference.scalars["total"].to_bits(),
                r.scalars["total"].to_bits()
            );
        }
    }
}
