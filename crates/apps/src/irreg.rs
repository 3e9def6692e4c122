//! `irreg` — the paper's §7 future-work workload: "benchmarks … that show
//! a mix of simple affine array subscript and indirect array subscripts,
//! and are not amenable to purely message-passing approaches."
//!
//! A 1-D transport sweep over BLOCK-distributed vectors: per time step,
//! an affine 3-point stencil (optimizable — the compiler captures its
//! ghost transfers) followed by an indirect gather `y(i) += w·x(idx(i))`
//! whose access pattern exists only at run time. The shared-memory
//! versions handle the gather through the default protocol, faulting in
//! exactly the touched blocks; a message-passing compiler must broadcast
//! conservatively (every node receives all of `x`), which is what makes
//! such codes "far more efficient" under shared memory (§1) — the
//! property this benchmark demonstrates beyond the paper's measured
//! suite.

use crate::{AppSpec, Scale};
use fgdsm_hpf::{
    ARef, ArrayId, CompDist, Dist, Kernel, KernelCtx, ParLoop, Program, ReduceSpec, Stmt, Subscript,
};
use fgdsm_section::{SymRange, Var};
use fgdsm_tempest::ReduceOp;

/// Array ids by declaration order.
pub const X: ArrayId = ArrayId(0);
pub(crate) const Y: ArrayId = ArrayId(1);
pub(crate) const IDX: ArrayId = ArrayId(2);

/// Problem-size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub n: usize,
    pub iters: i64,
    /// Locality of the gather: indices stay within ±`span` of `i`
    /// (small span ⇒ mostly-local gathers; n ⇒ uniform scatter).
    pub span: usize,
}

impl Params {
    /// Default configuration: 64K elements, 20 steps, ±4096 locality.
    pub fn default_size() -> Self {
        Params {
            n: 65_536,
            iters: 20,
            span: 4_096,
        }
    }

    /// Parameters at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::default_size(),
            Scale::Bench => Params {
                n: 16_384,
                iters: 10,
                span: 2_048,
            },
            Scale::Test => Params {
                n: 512,
                iters: 4,
                span: 96,
            },
        }
    }

    /// Grow per-superstep work ~linearly with `factor`; the gather span
    /// stretches with `n` so the locality profile is scale-invariant.
    pub(crate) fn scaled(mut self, factor: usize) -> Self {
        let factor = factor.max(1);
        self.n *= factor;
        self.span *= factor;
        self
    }
}

/// Deterministic pseudo-random gather target for position `i`.
fn gather_target(i: usize, n: usize, span: usize) -> usize {
    let h = i
        .wrapping_mul(0x9E37_79B9)
        .rotate_left(13)
        .wrapping_mul(0x85EB_CA6B);
    let off = (h % (2 * span + 1)) as i64 - span as i64;
    ((i as i64 + off).rem_euclid(n as i64)) as usize
}

fn init_kernel(ctx: &mut KernelCtx) {
    let (i0, len) = ctx.dense(0);
    let n = ctx.scalar("n") as usize;
    let span = ctx.scalar("span") as usize;
    let [mut x, mut y, mut idx] = ctx.views([X, Y, IDX]);
    let (xs, ids) = (x.run_mut([i0], len), idx.run_mut([i0], len));
    for (k, i) in (i0..).take(len).enumerate() {
        xs[k] = ((i * 29) % 97) as f64 * 0.125;
        ids[k] = gather_target(i as usize, n, span) as f64;
    }
    y.run_mut([i0], len).fill(0.0);
}

fn stencil_kernel(ctx: &mut KernelCtx) {
    let (i0, n) = ctx.dense(0);
    let [x, mut y] = ctx.views([X, Y]);
    let (c, left, right) = (x.run([i0], n), x.run([i0 - 1], n), x.run([i0 + 1], n));
    let out = y.run_mut([i0], n);
    for k in 0..n {
        out[k] = 0.5 * c[k] + 0.25 * (left[k] + right[k]);
    }
}

/// The gather itself stays per point: `x(idx(i))` has no dense run.
fn gather_kernel(ctx: &mut KernelCtx) {
    let x = ctx.h(X);
    let y = ctx.h(Y);
    let idx = ctx.h(IDX);
    for i in ctx.iter[0].iter() {
        let j = ctx.mem[idx.at1(i)] as i64;
        ctx.mem[y.at1(i)] += 0.125 * ctx.mem[x.at1(j)];
    }
}

fn copy_kernel(ctx: &mut KernelCtx) {
    let (i0, n) = ctx.dense(0);
    let [mut x, y] = ctx.views([X, Y]);
    x.run_mut([i0], n).copy_from_slice(y.run([i0], n));
}

fn norm_kernel(ctx: &mut KernelCtx) {
    let (i0, n) = ctx.dense(0);
    let [x] = ctx.views([X]);
    let mut acc = 0.0;
    for v in x.run([i0], n) {
        acc += v;
    }
    ctx.partial = acc;
}

/// Build the irreg program.
pub fn build(p: &Params) -> Program {
    let t = Var("t");
    let n = p.n as i64;
    let mut b = Program::builder();
    let x = b.array("x", &[p.n], Dist::Block);
    let y = b.array("y", &[p.n], Dist::Block);
    let idx = b.array("idx", &[p.n], Dist::Block);
    assert_eq!((x, y, idx), (X, Y, IDX));
    b.scalar("n", p.n as f64)
        .scalar("span", p.span as f64)
        .scalar("norm", 0.0);
    let iv = Subscript::loop_var(0);
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![SymRange::new(0, n - 1)],
        dist: CompDist::Owner(x),
        refs: vec![
            ARef::write(x, vec![iv.clone()]),
            ARef::write(y, vec![iv.clone()]),
            ARef::write(idx, vec![iv.clone()]),
        ],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 120,
        reduction: None,
    }));
    b.stmt(Stmt::Time {
        var: t,
        count: p.iters,
        body: vec![
            // Affine part: captured by compiler-orchestrated transfers.
            Stmt::Par(ParLoop {
                name: "stencil",
                iter: vec![SymRange::new(1, n - 2)],
                dist: CompDist::Owner(y),
                refs: vec![
                    ARef::read(x, vec![Subscript::Loop(0, -1)]),
                    ARef::read(x, vec![iv.clone()]),
                    ARef::read(x, vec![Subscript::Loop(0, 1)]),
                    ARef::write(y, vec![iv.clone()]),
                ],
                kernel: Kernel::new(stencil_kernel),
                cost_per_iter_ns: 180,
                reduction: None,
            }),
            // Irregular part: indirect gather through the default protocol.
            Stmt::Par(ParLoop {
                name: "gather",
                iter: vec![SymRange::new(0, n - 1)],
                dist: CompDist::Owner(y),
                refs: vec![
                    ARef::read(idx, vec![iv.clone()]),
                    ARef::read(x, vec![Subscript::Indirect(idx, 0)]),
                    ARef::read(y, vec![iv.clone()]),
                    ARef::write(y, vec![iv.clone()]),
                ],
                kernel: Kernel::new(gather_kernel),
                cost_per_iter_ns: 220,
                reduction: None,
            }),
            Stmt::Par(ParLoop {
                name: "copy",
                iter: vec![SymRange::new(1, n - 2)],
                dist: CompDist::Owner(x),
                refs: vec![
                    ARef::read(y, vec![iv.clone()]),
                    ARef::write(x, vec![iv.clone()]),
                ],
                kernel: Kernel::new(copy_kernel),
                cost_per_iter_ns: 70,
                reduction: None,
            }),
        ],
    });
    b.stmt(Stmt::Par(ParLoop {
        name: "norm",
        iter: vec![SymRange::new(0, n - 1)],
        dist: CompDist::Owner(x),
        refs: vec![ARef::read(x, vec![iv])],
        kernel: Kernel::new(norm_kernel),
        cost_per_iter_ns: 40,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "norm",
        }),
    }));
    b.build()
}

/// Extension-suite metadata (not part of Table 2).
pub(crate) fn spec(p: &Params) -> AppSpec {
    AppSpec {
        name: "irreg",
        source: "extension (paper §7 future work)",
        problem: format!(
            "{} elements, {} iters, gather span ±{}",
            p.n, p.iters, p.span
        ),
        program: build(p),
        iters: p.iters,
    }
}

/// Sequential reference replicating the chunked reduction order. Returns
/// final `x` and the norm.
pub fn reference(p: &Params, nprocs: usize) -> (Vec<f64>, f64) {
    let n = p.n;
    let mut x = vec![0.0f64; n];
    let mut y = vec![0.0f64; n];
    let mut idx = vec![0usize; n];
    for i in 0..n {
        x[i] = ((i * 29) % 97) as f64 * 0.125;
        idx[i] = gather_target(i, n, p.span);
    }
    for _ in 0..p.iters {
        for i in 1..n - 1 {
            y[i] = 0.5 * x[i] + 0.25 * (x[i - 1] + x[i + 1]);
        }
        // Boundary y entries keep their previous value (not recomputed).
        for i in 0..n {
            y[i] += 0.125 * x[idx[i]];
        }
        x[1..n - 1].copy_from_slice(&y[1..n - 1]);
    }
    let chunk = n.div_ceil(nprocs);
    let mut norm = 0.0;
    for pid in 0..nprocs {
        let mut part = 0.0;
        for v in x.iter().skip(pid * chunk).take(chunk) {
            part += v;
        }
        norm += part;
    }
    (x, norm)
}
