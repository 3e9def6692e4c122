//! `lu` — right-looking LU decomposition without pivoting, 1024×1024,
//! CYCLIC column distribution, 5 runs ("Stanford. HPF by authors").
//!
//! Each step `k` the owner of column `k` scales its sub-diagonal, then the
//! column is **broadcast** to all processors for the trailing-submatrix
//! update — the triangular loop makes the broadcast shrink with `k`, so
//! "in the later columns the edge effects limit the efficacy" of the
//! block-granularity optimization (§6). The paper reports timings for 5
//! runs because the first one pays the remote page-mapping cost.

use crate::{AppSpec, Scale};
use fgdsm_hpf::{
    ARef, ArrayId, CompDist, Dist, Kernel, KernelCtx, ParLoop, Program, Stmt, Subscript,
};
use fgdsm_section::{Affine, SymRange, Var};

/// Array id by declaration order.
pub const A: ArrayId = ArrayId(0);

const K: Var = Var("k");

/// Problem-size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub n: usize,
    pub runs: i64,
}

impl Params {
    /// Table 2: 1024×1024 matrix, 5 runs.
    pub(crate) fn paper() -> Self {
        Params { n: 1024, runs: 5 }
    }

    /// Parameters at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Bench => Params { n: 512, runs: 1 },
            Scale::Test => Params { n: 40, runs: 1 },
        }
    }

    /// Grow total work ~linearly with `factor`: factorization is cubic
    /// in `n`, so the matrix edge stretches by the cube root of `factor`.
    pub fn scaled(mut self, factor: usize) -> Self {
        self.n *= crate::dim_scale(factor, 3);
        self
    }
}

/// Matrix entry: diagonally dominant so factoring without pivoting is
/// well-conditioned.
fn entry(i: i64, j: i64, n: usize) -> f64 {
    if i == j {
        n as f64
    } else {
        1.0 / ((i - j).abs() as f64 + 1.0)
    }
}

fn init_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [mut a] = ctx.views([A]);
    for j in cols.iter() {
        for (i, out) in (i0..).zip(a.run_mut([i0, j], n)) {
            *out = entry(i, j, n);
        }
    }
}

fn scale_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), k) = (ctx.dense(0), ctx.sym(K));
    let [mut a] = ctx.views([A]);
    let pivot = a.run([k, k], 1)[0];
    let inv = 1.0 / pivot;
    for v in a.run_mut([i0, k], n) {
        *v *= inv;
    }
}

fn update_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols, k) = (ctx.dense(0), ctx.iter[1], ctx.sym(K));
    let [mut a] = ctx.views([A]);
    // Column k (read) and the columns right of it (written) are disjoint
    // halves of the one array.
    let (left, mut right) = a.split_last(k + 1);
    let pivot_col = left.run([i0, k], n);
    for j in cols.iter() {
        let akj = right.run([k, j], 1)[0];
        let col = right.run_mut([i0, j], n);
        for x in 0..n {
            col[x] -= pivot_col[x] * akj;
        }
    }
}

/// Build the lu program.
pub fn build(p: &Params) -> Program {
    let r = Var("run");
    let n = p.n as i64;
    let mut b = Program::builder();
    let a = b.array("a", &[p.n, p.n], Dist::Cyclic);
    assert_eq!(a, A);
    let below_k = SymRange::new(Affine::var(K).plus_const(1), n - 1);
    let init = Stmt::Par(ParLoop {
        name: "init",
        iter: vec![SymRange::new(0, n - 1), SymRange::new(0, n - 1)],
        dist: CompDist::Owner(a),
        refs: vec![ARef::write(
            a,
            vec![Subscript::loop_var(0), Subscript::loop_var(1)],
        )],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 100,
        reduction: None,
    });
    let scale = Stmt::Par(ParLoop {
        name: "scale",
        iter: vec![below_k.clone()],
        dist: CompDist::OwnerOfIndex(a, Affine::var(K)),
        refs: vec![
            ARef::read(
                a,
                vec![Subscript::At(Affine::var(K)), Subscript::At(Affine::var(K))],
            ),
            ARef::read(
                a,
                vec![
                    Subscript::Span(below_k.clone()),
                    Subscript::At(Affine::var(K)),
                ],
            ),
            ARef::write(
                a,
                vec![
                    Subscript::Span(below_k.clone()),
                    Subscript::At(Affine::var(K)),
                ],
            ),
        ],
        kernel: Kernel::new(scale_kernel),
        cost_per_iter_ns: 180,
        reduction: None,
    });
    let update = Stmt::Par(ParLoop {
        name: "update",
        iter: vec![below_k.clone(), below_k.clone()],
        dist: CompDist::Owner(a),
        refs: vec![
            // Pivot column below the diagonal: the broadcast.
            ARef::read(
                a,
                vec![
                    Subscript::Span(below_k.clone()),
                    Subscript::At(Affine::var(K)),
                ],
            ),
            // Pivot row element a(k, j): owned with column j.
            ARef::read(
                a,
                vec![Subscript::At(Affine::var(K)), Subscript::loop_var(1)],
            ),
            ARef::read(a, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
            ARef::write(a, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
        ],
        kernel: Kernel::new(update_kernel),
        cost_per_iter_ns: 130,
        reduction: None,
    });
    b.stmt(Stmt::Time {
        var: r,
        count: p.runs,
        body: vec![
            init,
            Stmt::Time {
                var: K,
                count: n - 1,
                body: vec![scale, update],
            },
        ],
    });
    b.build()
}

/// Table 2 metadata.
pub fn spec(p: &Params) -> AppSpec {
    AppSpec {
        name: "lu",
        source: "Stanford. HPF by authors",
        problem: format!("{0}x{0} matrix ({1} runs)", p.n, p.runs),
        program: build(p),
        iters: p.runs,
    }
}

/// Sequential reference: the factored matrix (L below the unit diagonal,
/// U on and above it).
pub fn reference(p: &Params) -> Vec<f64> {
    let n = p.n;
    let at = |i: usize, j: usize| i + j * n;
    let mut a = vec![0.0f64; n * n];
    for j in 0..n {
        for i in 0..n {
            a[at(i, j)] = entry(i as i64, j as i64, n);
        }
    }
    for k in 0..n - 1 {
        let inv = 1.0 / a[at(k, k)];
        for i in k + 1..n {
            a[at(i, k)] *= inv;
        }
        for j in k + 1..n {
            let akj = a[at(k, j)];
            for i in k + 1..n {
                let aik = a[at(i, k)];
                a[at(i, j)] -= aik * akj;
            }
        }
    }
    a
}
