//! `jacobi` — 4-point Jacobi relaxation, 2048×2048, 100 iterations
//! ("HPF by authors").
//!
//! The textbook regular stencil: `b(i,j) = ¼(a(i±1,j) + a(i,j±1))`
//! followed by a copy-back, on BLOCK-distributed columns. Communication is
//! one ghost column per neighbor per sweep — the ideal case for the
//! paper's optimizations (96.7% of misses removed in Table 3).

use crate::{AppSpec, Scale};
use fgdsm_hpf::{
    ARef, ArrayId, CompDist, Dist, Kernel, KernelCtx, ParLoop, Program, ReduceSpec, Stmt, Subscript,
};
use fgdsm_section::{SymRange, Var};
use fgdsm_tempest::ReduceOp;

/// Array ids by declaration order.
pub const A: ArrayId = ArrayId(0);
pub(crate) const B: ArrayId = ArrayId(1);

/// Problem-size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub n: usize,
    pub m: usize,
    pub iters: i64,
}

impl Params {
    /// Table 2: 2048×2048, 100 iterations.
    pub(crate) fn paper() -> Self {
        Params {
            n: 2048,
            m: 2048,
            iters: 100,
        }
    }

    /// Parameters at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Bench => Params {
                n: 512,
                m: 512,
                iters: 25,
            },
            Scale::Test => Params {
                n: 96,
                m: 48,
                iters: 5,
            },
        }
    }

    /// Grow per-superstep work ~linearly with `factor` by stretching the
    /// row extent (the sweep is linear in `n`).
    pub fn scaled(mut self, factor: usize) -> Self {
        self.n *= factor.max(1);
        self
    }
}

fn init_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [mut a] = ctx.views([A]);
    for j in cols.iter() {
        for (i, out) in (i0..).zip(a.run_mut([i0, j], n)) {
            *out = ((i * 13 + j * 17) % 101) as f64 * 0.01;
        }
    }
}

fn sweep_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [a, mut b] = ctx.views([A, B]);
    for j in cols.iter() {
        let (up, down) = (a.run([i0 - 1, j], n), a.run([i0 + 1, j], n));
        let (left, right) = (a.run([i0, j - 1], n), a.run([i0, j + 1], n));
        let out = b.run_mut([i0, j], n);
        for x in 0..n {
            out[x] = 0.25 * (up[x] + down[x] + left[x] + right[x]);
        }
    }
}

fn copy_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [mut a, b] = ctx.views([A, B]);
    for j in cols.iter() {
        a.run_mut([i0, j], n).copy_from_slice(b.run([i0, j], n));
    }
}

fn checksum_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [a] = ctx.views([A]);
    let mut acc = 0.0;
    for j in cols.iter() {
        for v in a.run([i0, j], n) {
            acc += v;
        }
    }
    ctx.partial = acc;
}

/// Build the jacobi program.
pub fn build(p: &Params) -> Program {
    let t = Var("t");
    let (n, m) = (p.n as i64, p.m as i64);
    let mut b = Program::builder();
    let a = b.array("a", &[p.n, p.m], Dist::Block);
    let bb = b.array("b", &[p.n, p.m], Dist::Block);
    assert_eq!((a, bb), (A, B));
    b.scalar("checksum", 0.0);
    let all = |hi: i64| SymRange::new(0, hi - 1);
    let interior = |hi: i64| SymRange::new(1, hi - 2);
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![all(n), all(m)],
        dist: CompDist::Owner(a),
        refs: vec![ARef::write(
            a,
            vec![Subscript::loop_var(0), Subscript::loop_var(1)],
        )],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 90,
        reduction: None,
    }));
    b.stmt(Stmt::Time {
        var: t,
        count: p.iters,
        body: vec![
            Stmt::Par(ParLoop {
                name: "sweep",
                iter: vec![interior(n), interior(m)],
                dist: CompDist::Owner(bb),
                refs: vec![
                    ARef::read(a, vec![Subscript::Loop(0, -1), Subscript::loop_var(1)]),
                    ARef::read(a, vec![Subscript::Loop(0, 1), Subscript::loop_var(1)]),
                    ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, -1)]),
                    ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, 1)]),
                    ARef::write(bb, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
                ],
                kernel: Kernel::new(sweep_kernel),
                cost_per_iter_ns: 440,
                reduction: None,
            }),
            Stmt::Par(ParLoop {
                name: "copy",
                iter: vec![interior(n), interior(m)],
                dist: CompDist::Owner(a),
                refs: vec![
                    ARef::read(bb, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
                    ARef::write(a, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
                ],
                kernel: Kernel::new(copy_kernel),
                cost_per_iter_ns: 150,
                reduction: None,
            }),
        ],
    });
    b.stmt(Stmt::Par(ParLoop {
        name: "checksum",
        iter: vec![all(n), all(m)],
        dist: CompDist::Owner(a),
        refs: vec![ARef::read(
            a,
            vec![Subscript::loop_var(0), Subscript::loop_var(1)],
        )],
        kernel: Kernel::new(checksum_kernel),
        cost_per_iter_ns: 40,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "checksum",
        }),
    }));
    b.build()
}

/// Table 2 metadata.
pub fn spec(p: &Params) -> AppSpec {
    AppSpec {
        name: "jacobi",
        source: "HPF by authors",
        problem: format!("{}x{} matrix, {} iters", p.n, p.m, p.iters),
        program: build(p),
        iters: p.iters,
    }
}

/// Sequential reference: final contents of `a` and the checksum.
pub fn reference(p: &Params) -> (Vec<f64>, f64) {
    let (n, m) = (p.n, p.m);
    let at = |i: usize, j: usize| i + j * n;
    let mut a = vec![0.0f64; n * m];
    let mut b = vec![0.0f64; n * m];
    for j in 0..m {
        for i in 0..n {
            a[at(i, j)] = ((i * 13 + j * 17) % 101) as f64 * 0.01;
        }
    }
    for _ in 0..p.iters {
        for j in 1..m - 1 {
            for i in 1..n - 1 {
                b[at(i, j)] =
                    0.25 * (a[at(i - 1, j)] + a[at(i + 1, j)] + a[at(i, j - 1)] + a[at(i, j + 1)]);
            }
        }
        for j in 1..m - 1 {
            for i in 1..n - 1 {
                a[at(i, j)] = b[at(i, j)];
            }
        }
    }
    let sum = a.iter().sum();
    (a, sum)
}
