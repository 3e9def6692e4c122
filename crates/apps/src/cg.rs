//! `cg` — conjugate gradient on a 180×360 grid, 630 iterations
//! ("HPF by MIT").
//!
//! The operator is the implicit 5-point Laplacian over the grid interior.
//! Each iteration runs one ghost-column stencil mat-vec plus **two global
//! dot-product reductions** — the reductions are what make `cg` the
//! application where the paper's message-passing backend loses worst
//! ("particularly so in cg", §6), while the stencil transfers are captured
//! by the compiler (68.7% of misses removed).

use crate::{AppSpec, Scale};
use fgdsm_hpf::{
    ARef, ArrayId, CompDist, Dist, Kernel, KernelCtx, ParLoop, Program, ReduceSpec, Stmt, Subscript,
};
use fgdsm_section::{SymRange, Var};
use fgdsm_tempest::ReduceOp;

/// Array ids by declaration order.
pub const X: ArrayId = ArrayId(0);
pub const R: ArrayId = ArrayId(1);
pub const P: ArrayId = ArrayId(2);
pub const Q: ArrayId = ArrayId(3);
pub const BV: ArrayId = ArrayId(4);

/// Problem-size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub n: usize,
    pub m: usize,
    pub iters: i64,
}

impl Params {
    /// Table 2: 180×360 matrix, converges in 630 iterations.
    pub fn paper() -> Self {
        Params {
            n: 180,
            m: 360,
            iters: 630,
        }
    }

    /// Parameters at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Bench => Params {
                n: 96,
                m: 192,
                iters: 80,
            },
            Scale::Test => Params {
                n: 40,
                m: 64,
                iters: 15,
            },
        }
    }

    /// Grow per-superstep work ~linearly with `factor` by stretching the
    /// row extent (each CG step is linear in `n`).
    pub fn scaled(mut self, factor: usize) -> Self {
        self.n *= factor.max(1);
        self
    }
}

fn init_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [mut x, mut r, mut p, mut q, mut b] = ctx.views([X, R, P, Q, BV]);
    for j in cols.iter() {
        let at = [i0, j];
        let (bs, rs, ps) = (b.run_mut(at, n), r.run_mut(at, n), p.run_mut(at, n));
        for (k, i) in (i0..).take(n).enumerate() {
            let v = ((i * 7 + j * 3) % 23) as f64 * 0.04;
            bs[k] = v;
            rs[k] = v; // r = b − A·0 = b
            ps[k] = v;
        }
        x.run_mut(at, n).fill(0.0);
        q.run_mut(at, n).fill(0.0);
    }
}

fn rr_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [r] = ctx.views([R]);
    let mut acc = 0.0;
    for j in cols.iter() {
        for v in r.run([i0, j], n) {
            acc += v * v;
        }
    }
    ctx.partial = acc;
}

fn matvec_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [p, mut q] = ctx.views([P, Q]);
    for j in cols.iter() {
        let (c, up, down) = (
            p.run([i0, j], n),
            p.run([i0 - 1, j], n),
            p.run([i0 + 1, j], n),
        );
        let (left, right) = (p.run([i0, j - 1], n), p.run([i0, j + 1], n));
        let out = q.run_mut([i0, j], n);
        for k in 0..n {
            out[k] = 4.0 * c[k] - up[k] - down[k] - left[k] - right[k];
        }
    }
}

fn pq_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [p, q] = ctx.views([P, Q]);
    let mut acc = 0.0;
    for j in cols.iter() {
        for (pv, qv) in p.run([i0, j], n).iter().zip(q.run([i0, j], n)) {
            acc += pv * qv;
        }
    }
    ctx.partial = acc;
}

fn xr_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let alpha = ctx.scalar("alpha");
    let [mut x, mut r, p, q] = ctx.views([X, R, P, Q]);
    for j in cols.iter() {
        let at = [i0, j];
        let (xs, rs, ps, qs) = (
            x.run_mut(at, n),
            r.run_mut(at, n),
            p.run(at, n),
            q.run(at, n),
        );
        for k in 0..n {
            xs[k] += alpha * ps[k];
            rs[k] -= alpha * qs[k];
        }
    }
}

fn pupd_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let beta = ctx.scalar("beta");
    let [r, mut p] = ctx.views([R, P]);
    for j in cols.iter() {
        let (rs, ps) = (r.run([i0, j], n), p.run_mut([i0, j], n));
        for k in 0..n {
            ps[k] = rs[k] + beta * ps[k];
        }
    }
}

/// Build the cg program.
pub fn build(p: &Params) -> Program {
    let t = Var("t");
    let (n, m) = (p.n as i64, p.m as i64);
    let mut b = Program::builder();
    let x = b.array("x", &[p.n, p.m], Dist::Block);
    let r = b.array("r", &[p.n, p.m], Dist::Block);
    let pp = b.array("p", &[p.n, p.m], Dist::Block);
    let q = b.array("q", &[p.n, p.m], Dist::Block);
    let bv = b.array("b", &[p.n, p.m], Dist::Block);
    assert_eq!((x, r, pp, q, bv), (X, R, P, Q, BV));
    b.scalar("rho", 0.0)
        .scalar("pq", 0.0)
        .scalar("alpha", 0.0)
        .scalar("rho_new", 0.0)
        .scalar("beta", 0.0);
    let all0 = SymRange::new(0, n - 1);
    let all1 = SymRange::new(0, m - 1);
    let int0 = SymRange::new(1, n - 2);
    let int1 = SymRange::new(1, m - 2);
    let at = |d: usize, c: i64| Subscript::Loop(d, c);
    let here = vec![Subscript::loop_var(0), Subscript::loop_var(1)];

    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![int0.clone(), int1.clone()],
        dist: CompDist::Owner(bv),
        refs: vec![
            ARef::write(bv, here.clone()),
            ARef::write(x, here.clone()),
            ARef::write(r, here.clone()),
            ARef::write(pp, here.clone()),
            ARef::write(q, here.clone()),
        ],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 150,
        reduction: None,
    }));
    b.stmt(Stmt::Par(ParLoop {
        name: "rho0",
        iter: vec![int0.clone(), int1.clone()],
        dist: CompDist::Owner(r),
        refs: vec![ARef::read(r, here.clone())],
        kernel: Kernel::new(rr_kernel),
        cost_per_iter_ns: 60,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "rho",
        }),
    }));
    b.stmt(Stmt::Time {
        var: t,
        count: p.iters,
        body: vec![
            Stmt::Par(ParLoop {
                name: "matvec",
                iter: vec![int0.clone(), int1.clone()],
                dist: CompDist::Owner(q),
                refs: vec![
                    ARef::read(pp, vec![at(0, -1), at(1, 0)]),
                    ARef::read(pp, vec![at(0, 1), at(1, 0)]),
                    ARef::read(pp, vec![at(0, 0), at(1, -1)]),
                    ARef::read(pp, vec![at(0, 0), at(1, 1)]),
                    ARef::write(q, here.clone()),
                ],
                kernel: Kernel::new(matvec_kernel),
                cost_per_iter_ns: 520,
                reduction: None,
            }),
            Stmt::Par(ParLoop {
                name: "pq",
                iter: vec![int0.clone(), int1.clone()],
                dist: CompDist::Owner(q),
                refs: vec![ARef::read(pp, here.clone()), ARef::read(q, here.clone())],
                kernel: Kernel::new(pq_kernel),
                cost_per_iter_ns: 90,
                reduction: Some(ReduceSpec {
                    op: ReduceOp::Sum,
                    target: "pq",
                }),
            }),
            Stmt::Scalar {
                name: "alpha",
                f: |s| {
                    let pq = s["pq"];
                    if pq.abs() < 1e-300 {
                        0.0
                    } else {
                        s["rho"] / pq
                    }
                },
            },
            Stmt::Par(ParLoop {
                name: "xr",
                iter: vec![int0.clone(), int1.clone()],
                dist: CompDist::Owner(x),
                refs: vec![
                    ARef::read(pp, here.clone()),
                    ARef::read(q, here.clone()),
                    ARef::write(x, here.clone()),
                    ARef::write(r, here.clone()),
                ],
                kernel: Kernel::new(xr_kernel),
                cost_per_iter_ns: 180,
                reduction: None,
            }),
            Stmt::Par(ParLoop {
                name: "rr",
                iter: vec![int0.clone(), int1.clone()],
                dist: CompDist::Owner(r),
                refs: vec![ARef::read(r, here.clone())],
                kernel: Kernel::new(rr_kernel),
                cost_per_iter_ns: 60,
                reduction: Some(ReduceSpec {
                    op: ReduceOp::Sum,
                    target: "rho_new",
                }),
            }),
            Stmt::Scalar {
                name: "beta",
                f: |s| {
                    let rho = s["rho"];
                    if rho.abs() < 1e-300 {
                        0.0
                    } else {
                        s["rho_new"] / rho
                    }
                },
            },
            Stmt::Scalar {
                name: "rho",
                f: |s| s["rho_new"],
            },
            Stmt::Par(ParLoop {
                name: "pupd",
                iter: vec![int0.clone(), int1.clone()],
                dist: CompDist::Owner(pp),
                refs: vec![
                    ARef::read(r, here.clone()),
                    ARef::read(pp, here.clone()),
                    ARef::write(pp, here.clone()),
                ],
                kernel: Kernel::new(pupd_kernel),
                cost_per_iter_ns: 110,
                reduction: None,
            }),
        ],
    });
    let _ = (all0, all1);
    b.build()
}

/// Table 2 metadata.
pub fn spec(p: &Params) -> AppSpec {
    AppSpec {
        name: "cg",
        source: "HPF by MIT",
        problem: format!("{}x{} matrix, {} iters", p.n, p.m, p.iters),
        program: build(p),
        iters: p.iters,
    }
}

/// Sequential reference replicating the parallel reduction order (partial
/// sums per owner chunk combined in node order) so results match the
/// simulator bit-for-bit. Returns final `x` and the residual `rho`.
pub fn reference(p: &Params, nprocs: usize) -> (Vec<f64>, f64) {
    let (n, m) = (p.n, p.m);
    let at = |i: usize, j: usize| i + j * n;
    let chunk = m.div_ceil(nprocs);
    let owner_cols = |pid: usize| -> std::ops::Range<usize> {
        let lo = pid * chunk;
        lo.min(m)..((pid + 1) * chunk).min(m)
    };
    // Reduce over the interior, chunk by chunk in node order.
    let reduce = |f: &dyn Fn(usize, usize) -> f64| -> f64 {
        let mut total = 0.0;
        for pid in 0..nprocs {
            let mut part = 0.0;
            for j in owner_cols(pid) {
                if j == 0 || j >= m - 1 {
                    continue;
                }
                for i in 1..n - 1 {
                    part += f(i, j);
                }
            }
            total += part;
        }
        total
    };
    let mut x = vec![0.0f64; n * m];
    let mut r = vec![0.0f64; n * m];
    let mut pv = vec![0.0f64; n * m];
    let mut q = vec![0.0f64; n * m];
    for j in 1..m - 1 {
        for i in 1..n - 1 {
            let v = ((i * 7 + j * 3) % 23) as f64 * 0.04;
            r[at(i, j)] = v;
            pv[at(i, j)] = v;
        }
    }
    let mut rho = reduce(&|i, j| r[at(i, j)] * r[at(i, j)]);
    for _ in 0..p.iters {
        for j in 1..m - 1 {
            for i in 1..n - 1 {
                q[at(i, j)] = 4.0 * pv[at(i, j)]
                    - pv[at(i - 1, j)]
                    - pv[at(i + 1, j)]
                    - pv[at(i, j - 1)]
                    - pv[at(i, j + 1)];
            }
        }
        let pq = reduce(&|i, j| pv[at(i, j)] * q[at(i, j)]);
        let alpha = if pq.abs() < 1e-300 { 0.0 } else { rho / pq };
        for j in 1..m - 1 {
            for i in 1..n - 1 {
                x[at(i, j)] += alpha * pv[at(i, j)];
                r[at(i, j)] -= alpha * q[at(i, j)];
            }
        }
        let rho_new = reduce(&|i, j| r[at(i, j)] * r[at(i, j)]);
        let beta = if rho.abs() < 1e-300 {
            0.0
        } else {
            rho_new / rho
        };
        rho = rho_new;
        for j in 1..m - 1 {
            for i in 1..n - 1 {
                pv[at(i, j)] = r[at(i, j)] + beta * pv[at(i, j)];
            }
        }
    }
    (x, rho)
}
