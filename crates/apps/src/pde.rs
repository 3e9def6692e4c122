//! `pde` — the Genesis PDE benchmark's RELAX routine: 3-D Poisson
//! relaxation on a 128³ grid, 40 iterations ("Genesis. HPF by PGI").
//!
//! A 7-point stencil sweep `v = (Σ neighbors(u) − h²·f) / 6` over the
//! grid interior, then copy-back, with the last (plane) dimension BLOCK
//! distributed. Communication is one ghost *plane* (128² elements,
//! contiguous in column-major order) per neighbor per sweep — large
//! contiguous sections, which is why the paper removes 74.6% of its
//! misses and 58.6% of its communication time.

use crate::{AppSpec, Scale};
use fgdsm_hpf::{
    ARef, ArrayId, CompDist, Dist, Kernel, KernelCtx, ParLoop, Program, ReduceSpec, Stmt, Subscript,
};
use fgdsm_section::{SymRange, Var};
use fgdsm_tempest::ReduceOp;

/// Array ids by declaration order.
pub const U: ArrayId = ArrayId(0);
pub const V: ArrayId = ArrayId(1);
pub const F: ArrayId = ArrayId(2);

/// Problem-size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub g: usize,
    pub iters: i64,
}

impl Params {
    /// Table 2: grid size 128, 40 iterations (RELAX routine only).
    pub fn paper() -> Self {
        Params { g: 128, iters: 40 }
    }

    /// Parameters at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Bench => Params { g: 96, iters: 8 },
            Scale::Test => Params { g: 34, iters: 3 },
        }
    }

    /// Grow total work ~linearly with `factor`: the RELAX sweep is cubic
    /// in `g`, so the grid edge stretches by the cube root of `factor`.
    pub fn scaled(mut self, factor: usize) -> Self {
        self.g *= crate::dim_scale(factor, 3);
        self
    }
}

fn init_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), rows, planes) = (ctx.dense(0), ctx.iter[1], ctx.iter[2]);
    let [mut u, mut f] = ctx.views([U, F]);
    for k in planes.iter() {
        for j in rows.iter() {
            let (us, fs) = (u.run_mut([i0, j, k], n), f.run_mut([i0, j, k], n));
            for (x, i) in (i0..).take(n).enumerate() {
                us[x] = ((i + 2 * j + 3 * k) % 17) as f64 * 0.05;
                fs[x] = ((i * j + k) % 13) as f64 * 0.02;
            }
        }
    }
}

const H2: f64 = 0.015625; // h² for a unit cube at grid 128 (shape only)

fn relax_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), rows, planes) = (ctx.dense(0), ctx.iter[1], ctx.iter[2]);
    let [u, mut v, f] = ctx.views([U, V, F]);
    let inv6 = 1.0 / 6.0;
    for k in planes.iter() {
        for j in rows.iter() {
            let (w, e) = (u.run([i0 - 1, j, k], n), u.run([i0 + 1, j, k], n));
            let (s, nn) = (u.run([i0, j - 1, k], n), u.run([i0, j + 1, k], n));
            let (dn, up) = (u.run([i0, j, k - 1], n), u.run([i0, j, k + 1], n));
            let (fs, out) = (f.run([i0, j, k], n), v.run_mut([i0, j, k], n));
            for x in 0..n {
                let sum = w[x] + e[x] + s[x] + nn[x] + dn[x] + up[x];
                out[x] = (sum - H2 * fs[x]) * inv6;
            }
        }
    }
}

fn copy_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), rows, planes) = (ctx.dense(0), ctx.iter[1], ctx.iter[2]);
    let [mut u, v] = ctx.views([U, V]);
    for k in planes.iter() {
        for j in rows.iter() {
            u.run_mut([i0, j, k], n)
                .copy_from_slice(v.run([i0, j, k], n));
        }
    }
}

fn norm_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), rows, planes) = (ctx.dense(0), ctx.iter[1], ctx.iter[2]);
    let [u] = ctx.views([U]);
    let mut acc = 0.0;
    for k in planes.iter() {
        for j in rows.iter() {
            for x in u.run([i0, j, k], n) {
                acc += x * x;
            }
        }
    }
    ctx.partial = acc;
}

/// Build the pde program.
pub fn build(p: &Params) -> Program {
    let t = Var("t");
    let g = p.g as i64;
    let mut b = Program::builder();
    let u = b.array("u", &[p.g, p.g, p.g], Dist::Block);
    let v = b.array("v", &[p.g, p.g, p.g], Dist::Block);
    let f = b.array("f", &[p.g, p.g, p.g], Dist::Block);
    assert_eq!((u, v, f), (U, V, F));
    b.scalar("norm", 0.0);
    let all = SymRange::new(0, g - 1);
    let interior = SymRange::new(1, g - 2);
    let iv = |d: usize, c: i64| Subscript::Loop(d, c);
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![all.clone(), all.clone(), all.clone()],
        dist: CompDist::Owner(u),
        refs: vec![
            ARef::write(u, vec![iv(0, 0), iv(1, 0), iv(2, 0)]),
            ARef::write(f, vec![iv(0, 0), iv(1, 0), iv(2, 0)]),
        ],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 160,
        reduction: None,
    }));
    b.stmt(Stmt::Time {
        var: t,
        count: p.iters,
        body: vec![
            Stmt::Par(ParLoop {
                name: "relax",
                iter: vec![interior.clone(), interior.clone(), interior.clone()],
                dist: CompDist::Owner(v),
                refs: vec![
                    ARef::read(u, vec![iv(0, -1), iv(1, 0), iv(2, 0)]),
                    ARef::read(u, vec![iv(0, 1), iv(1, 0), iv(2, 0)]),
                    ARef::read(u, vec![iv(0, 0), iv(1, -1), iv(2, 0)]),
                    ARef::read(u, vec![iv(0, 0), iv(1, 1), iv(2, 0)]),
                    ARef::read(u, vec![iv(0, 0), iv(1, 0), iv(2, -1)]),
                    ARef::read(u, vec![iv(0, 0), iv(1, 0), iv(2, 1)]),
                    ARef::read(f, vec![iv(0, 0), iv(1, 0), iv(2, 0)]),
                    ARef::write(v, vec![iv(0, 0), iv(1, 0), iv(2, 0)]),
                ],
                kernel: Kernel::new(relax_kernel),
                cost_per_iter_ns: 1250,
                reduction: None,
            }),
            Stmt::Par(ParLoop {
                name: "copy",
                iter: vec![interior.clone(), interior.clone(), interior.clone()],
                dist: CompDist::Owner(u),
                refs: vec![
                    ARef::read(v, vec![iv(0, 0), iv(1, 0), iv(2, 0)]),
                    ARef::write(u, vec![iv(0, 0), iv(1, 0), iv(2, 0)]),
                ],
                kernel: Kernel::new(copy_kernel),
                cost_per_iter_ns: 340,
                reduction: None,
            }),
        ],
    });
    b.stmt(Stmt::Par(ParLoop {
        name: "norm",
        iter: vec![all.clone(), all.clone(), all],
        dist: CompDist::Owner(u),
        refs: vec![ARef::read(u, vec![iv(0, 0), iv(1, 0), iv(2, 0)])],
        kernel: Kernel::new(norm_kernel),
        cost_per_iter_ns: 60,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "norm",
        }),
    }));
    b.build()
}

/// Table 2 metadata.
pub fn spec(p: &Params) -> AppSpec {
    AppSpec {
        name: "pde",
        source: "Genesis. HPF by PGI",
        problem: format!("grid size {}, {} iters (RELAX routine only)", p.g, p.iters),
        program: build(p),
        iters: p.iters,
    }
}

/// Sequential reference: final `u` and its squared norm.
pub fn reference(p: &Params) -> (Vec<f64>, f64) {
    let g = p.g;
    let at = |i: usize, j: usize, k: usize| i + j * g + k * g * g;
    let mut u = vec![0.0f64; g * g * g];
    let mut v = vec![0.0f64; g * g * g];
    let mut f = vec![0.0f64; g * g * g];
    for k in 0..g {
        for j in 0..g {
            for i in 0..g {
                u[at(i, j, k)] = ((i + 2 * j + 3 * k) % 17) as f64 * 0.05;
                f[at(i, j, k)] = ((i * j + k) % 13) as f64 * 0.02;
            }
        }
    }
    let inv6 = 1.0 / 6.0;
    for _ in 0..p.iters {
        for k in 1..g - 1 {
            for j in 1..g - 1 {
                for i in 1..g - 1 {
                    let s = u[at(i - 1, j, k)]
                        + u[at(i + 1, j, k)]
                        + u[at(i, j - 1, k)]
                        + u[at(i, j + 1, k)]
                        + u[at(i, j, k - 1)]
                        + u[at(i, j, k + 1)];
                    v[at(i, j, k)] = (s - H2 * f[at(i, j, k)]) * inv6;
                }
            }
        }
        for k in 1..g - 1 {
            for j in 1..g - 1 {
                for i in 1..g - 1 {
                    u[at(i, j, k)] = v[at(i, j, k)];
                }
            }
        }
    }
    let norm = u.iter().map(|x| x * x).sum();
    (u, norm)
}
