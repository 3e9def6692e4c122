//! `grav` — gravitational potential code, grid 128 (129×129 and
//! 129×129×129 arrays), 5 iterations ("HPF by Syracuse").
//!
//! The paper's problem child: "the array extents in grav are rather small
//! (129×129 reals and 129×129×129 reals), and thus the edge effects are
//! pronounced at 128-bytes blocksize" — only 38% of misses are removed —
//! and it "executes a large number of SUM reductions, which … ultimately
//! limit speedups in both shared memory and message passing".
//!
//! Structure reproduced here: per outer iteration, several smoothing
//! sweeps over the small 129×129 potential grid (interior ghost columns of
//! 127 words — heavily misaligned with 128-byte blocks), each followed by
//! a SUM reduction; a batch of multipole-moment SUM reductions over the
//! potential; and a local 129³ density update followed by a global mass
//! reduction. The reductions dominate communication, which is why the
//! optimizations cut grav's communication time least (5.5% in Table 3).

use crate::{AppSpec, Scale};
use fgdsm_hpf::{
    ARef, ArrayId, CompDist, Dist, Kernel, KernelCtx, ParLoop, Program, ReduceSpec, Stmt, Subscript,
};
use fgdsm_section::{SymRange, Var};
use fgdsm_tempest::ReduceOp;

/// Array ids by declaration order.
pub const RHO: ArrayId = ArrayId(0);
pub const PHI: ArrayId = ArrayId(1);
pub const PHN: ArrayId = ArrayId(2);

/// Problem-size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Grid size parameter: arrays are (g+1)² and (g+1)³.
    pub g: usize,
    pub iters: i64,
    /// Smoothing sweeps (each with a SUM reduction) per iteration.
    pub nsmooth: i64,
    /// Plain multipole-moment reductions per iteration (owned data only).
    pub nmom: i64,
    /// Gradient-weighted moment reductions per iteration: these re-read
    /// the same ghost columns of an unchanged φ, the §4.3 redundant
    /// communication that PRE eliminates.
    pub ngrad: i64,
}

impl Params {
    /// Table 2: grid size 128 (129-extent arrays), 5 iterations.
    pub fn paper() -> Self {
        Params {
            g: 128,
            iters: 5,
            nsmooth: 8,
            nmom: 20,
            ngrad: 4,
        }
    }

    /// Parameters at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Bench => Params {
                g: 48,
                iters: 3,
                nsmooth: 8,
                nmom: 28,
                ngrad: 4,
            },
            Scale::Test => Params {
                g: 24,
                iters: 2,
                nsmooth: 3,
                nmom: 3,
                ngrad: 2,
            },
        }
    }

    /// Grow total work ~linearly with `factor`: the dominant arrays are
    /// cubic in the grid size, so the edge stretches by the cube root.
    pub fn scaled(mut self, factor: usize) -> Self {
        self.g *= crate::dim_scale(factor, 3);
        self
    }

    fn e(&self) -> usize {
        self.g + 1
    }
}

fn init_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), rows, planes) = (ctx.dense(0), ctx.iter[1], ctx.iter[2]);
    let [mut rho] = ctx.views([RHO]);
    for k in planes.iter() {
        for j in rows.iter() {
            for (i, out) in (i0..).zip(rho.run_mut([i0, j, k], n)) {
                *out = ((i + j * 2 + k * 3) % 19) as f64 * 0.03;
            }
        }
    }
}

fn init_phi_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [mut phi, mut phn] = ctx.views([PHI, PHN]);
    for j in cols.iter() {
        for (i, out) in (i0..).zip(phi.run_mut([i0, j], n)) {
            *out = ((i * 5 + j) % 11) as f64 * 0.07;
        }
        phn.run_mut([i0, j], n).fill(0.0);
    }
}

fn smooth_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [phi, mut phn] = ctx.views([PHI, PHN]);
    for j in cols.iter() {
        let (up, down) = (phi.run([i0 - 1, j], n), phi.run([i0 + 1, j], n));
        let (left, right) = (phi.run([i0, j - 1], n), phi.run([i0, j + 1], n));
        let out = phn.run_mut([i0, j], n);
        for x in 0..n {
            out[x] = 0.25 * (up[x] + down[x] + left[x] + right[x]);
        }
    }
}

fn smooth_copy_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [mut phi, phn] = ctx.views([PHI, PHN]);
    let mut err = 0.0;
    for j in cols.iter() {
        for (old, &new) in phi.run_mut([i0, j], n).iter_mut().zip(phn.run([i0, j], n)) {
            err += (new - *old).abs();
            *old = new;
        }
    }
    ctx.partial = err;
}

fn apply_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), rows, planes) = (ctx.dense(0), ctx.iter[1], ctx.iter[2]);
    let [mut rho] = ctx.views([RHO]);
    for k in planes.iter() {
        for j in rows.iter() {
            for (i, r) in (i0..).zip(rho.run_mut([i0, j, k], n)) {
                let src = ((i ^ j) + k) as f64 * 1e-4;
                *r = *r * 0.999 + 0.001 * src;
            }
        }
    }
}

/// One multipole moment of the potential grid: Σ φ(i,j)·w_m(i,j), with the
/// moment index `m` bound by the surrounding time loop. Small local
/// compute followed by a global SUM — grav's signature pattern.
fn moment_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let m = ctx.sym(fgdsm_section::Var("m"));
    let [phi] = ctx.views([PHI]);
    let mut acc = 0.0;
    for j in cols.iter() {
        for (i, v) in (i0..).zip(phi.run([i0, j], n)) {
            let w = (((i + 1) * (m + 1) + j) % 7) as f64 * 0.2;
            acc += v * w;
        }
    }
    ctx.partial = acc;
}

/// Gradient-weighted moment: every loop of the batch re-reads the same
/// ghost columns of an unchanged φ — the inter-loop redundant
/// communication that §4.3's PRE eliminates (the default protocol also
/// exploits it: the blocks simply stay cached).
fn gmoment_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let m = ctx.sym(fgdsm_section::Var("m"));
    let [phi] = ctx.views([PHI]);
    let mut acc = 0.0;
    for j in cols.iter() {
        let (c, up, down) = (
            phi.run([i0, j], n),
            phi.run([i0 - 1, j], n),
            phi.run([i0 + 1, j], n),
        );
        let (left, right) = (phi.run([i0, j - 1], n), phi.run([i0, j + 1], n));
        for (x, i) in (i0..).take(n).enumerate() {
            let w = (((i + 1) * (m + 1) + j) % 7) as f64 * 0.2;
            let gx = down[x] - up[x];
            let gy = right[x] - left[x];
            acc += (c[x] + 0.5 * (gx + gy)) * w;
        }
    }
    ctx.partial = acc;
}

fn mass_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), rows, planes) = (ctx.dense(0), ctx.iter[1], ctx.iter[2]);
    let [rho] = ctx.views([RHO]);
    let mut acc = 0.0;
    for k in planes.iter() {
        for j in rows.iter() {
            for v in rho.run([i0, j, k], n) {
                acc += v;
            }
        }
    }
    ctx.partial = acc;
}

/// Build the grav program.
pub fn build(p: &Params) -> Program {
    let t = Var("t");
    let s = Var("s");
    let e = p.e() as i64;
    let mut b = Program::builder();
    let rho = b.array("rho", &[p.e(), p.e(), p.e()], Dist::Block);
    let phi = b.array("phi", &[p.e(), p.e()], Dist::Block);
    let phn = b.array("phn", &[p.e(), p.e()], Dist::Block);
    assert_eq!((rho, phi, phn), (RHO, PHI, PHN));
    b.scalar("gerr", 0.0)
        .scalar("mass", 0.0)
        .scalar("moment", 0.0);
    let all = SymRange::new(0, e - 1);
    let int = SymRange::new(1, e - 2);
    let iv = |d: usize, c: i64| Subscript::Loop(d, c);
    let here2 = vec![iv(0, 0), iv(1, 0)];
    let here3 = vec![iv(0, 0), iv(1, 0), iv(2, 0)];

    b.stmt(Stmt::Par(ParLoop {
        name: "init_rho",
        iter: vec![all.clone(), all.clone(), all.clone()],
        dist: CompDist::Owner(rho),
        refs: vec![ARef::write(rho, here3.clone())],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 110,
        reduction: None,
    }));
    b.stmt(Stmt::Par(ParLoop {
        name: "init_phi",
        iter: vec![all.clone(), all.clone()],
        dist: CompDist::Owner(phi),
        refs: vec![
            ARef::write(phi, here2.clone()),
            ARef::write(phn, here2.clone()),
        ],
        kernel: Kernel::new(init_phi_kernel),
        cost_per_iter_ns: 110,
        reduction: None,
    }));
    let smooth = Stmt::Par(ParLoop {
        name: "smooth",
        iter: vec![int.clone(), int.clone()],
        dist: CompDist::Owner(phn),
        refs: vec![
            ARef::read(phi, vec![iv(0, -1), iv(1, 0)]),
            ARef::read(phi, vec![iv(0, 1), iv(1, 0)]),
            ARef::read(phi, vec![iv(0, 0), iv(1, -1)]),
            ARef::read(phi, vec![iv(0, 0), iv(1, 1)]),
            ARef::write(phn, here2.clone()),
        ],
        kernel: Kernel::new(smooth_kernel),
        cost_per_iter_ns: 420,
        reduction: None,
    });
    let smooth_copy = Stmt::Par(ParLoop {
        name: "smooth_copy",
        iter: vec![int.clone(), int.clone()],
        dist: CompDist::Owner(phi),
        refs: vec![
            ARef::read(phn, here2.clone()),
            ARef::read(phi, here2.clone()),
            ARef::write(phi, here2.clone()),
        ],
        kernel: Kernel::new(smooth_copy_kernel),
        cost_per_iter_ns: 220,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "gerr",
        }),
    });
    let apply = Stmt::Par(ParLoop {
        name: "apply",
        iter: vec![all.clone(), all.clone(), all.clone()],
        dist: CompDist::Owner(rho),
        refs: vec![
            ARef::read(rho, here3.clone()),
            ARef::write(rho, here3.clone()),
        ],
        kernel: Kernel::new(apply_kernel),
        cost_per_iter_ns: 140,
        reduction: None,
    });
    let mass = Stmt::Par(ParLoop {
        name: "mass",
        iter: vec![all.clone(), all.clone(), all.clone()],
        dist: CompDist::Owner(rho),
        refs: vec![ARef::read(rho, here3)],
        kernel: Kernel::new(mass_kernel),
        cost_per_iter_ns: 70,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "mass",
        }),
    });
    let moment = Stmt::Par(ParLoop {
        name: "moment",
        iter: vec![all.clone(), all.clone()],
        dist: CompDist::Owner(phi),
        refs: vec![ARef::read(phi, here2.clone())],
        kernel: Kernel::new(moment_kernel),
        cost_per_iter_ns: 90,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "moment",
        }),
    });
    let gmoment = Stmt::Par(ParLoop {
        name: "gmoment",
        iter: vec![int.clone(), int.clone()],
        dist: CompDist::Owner(phi),
        refs: vec![
            ARef::read(phi, here2.clone()),
            ARef::read(phi, vec![iv(0, -1), iv(1, 0)]),
            ARef::read(phi, vec![iv(0, 1), iv(1, 0)]),
            ARef::read(phi, vec![iv(0, 0), iv(1, -1)]),
            ARef::read(phi, vec![iv(0, 0), iv(1, 1)]),
        ],
        kernel: Kernel::new(gmoment_kernel),
        cost_per_iter_ns: 150,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "moment",
        }),
    });
    b.stmt(Stmt::Time {
        var: t,
        count: p.iters,
        body: vec![
            Stmt::Time {
                var: s,
                count: p.nsmooth,
                body: vec![smooth, smooth_copy],
            },
            Stmt::Time {
                var: Var("m"),
                count: p.nmom,
                body: vec![moment],
            },
            Stmt::Time {
                var: Var("m"),
                count: p.ngrad,
                body: vec![gmoment],
            },
            apply,
            mass,
        ],
    });
    b.build()
}

/// Table 2 metadata.
pub fn spec(p: &Params) -> AppSpec {
    AppSpec {
        name: "grav",
        source: "HPF by Syracuse",
        problem: format!("grid size {}, {} iters", p.g, p.iters),
        program: build(p),
        iters: p.iters,
    }
}

/// Sequential reference replicating the parallel reduction order (chunked
/// partials in node order). Returns final `rho` and the mass.
pub fn reference(p: &Params, nprocs: usize) -> (Vec<f64>, f64) {
    let e = p.e();
    let at2 = |i: usize, j: usize| i + j * e;
    let at3 = |i: usize, j: usize, k: usize| i + j * e + k * e * e;
    let chunk = e.div_ceil(nprocs);
    let mut rho = vec![0.0f64; e * e * e];
    let mut phi = vec![0.0f64; e * e];
    let mut phn = vec![0.0f64; e * e];
    for k in 0..e {
        for j in 0..e {
            for i in 0..e {
                rho[at3(i, j, k)] = ((i + j * 2 + k * 3) % 19) as f64 * 0.03;
            }
        }
    }
    for j in 0..e {
        for i in 0..e {
            phi[at2(i, j)] = ((i * 5 + j) % 11) as f64 * 0.07;
        }
    }
    let mut mass = 0.0;
    for _ in 0..p.iters {
        for _ in 0..p.nsmooth {
            for j in 1..e - 1 {
                for i in 1..e - 1 {
                    phn[at2(i, j)] = 0.25
                        * (phi[at2(i - 1, j)]
                            + phi[at2(i + 1, j)]
                            + phi[at2(i, j - 1)]
                            + phi[at2(i, j + 1)]);
                }
            }
            for j in 1..e - 1 {
                for i in 1..e - 1 {
                    phi[at2(i, j)] = phn[at2(i, j)];
                }
            }
        }
        for k in 0..e {
            for j in 0..e {
                for i in 0..e {
                    let src = ((i ^ j) + k) as f64 * 1e-4;
                    rho[at3(i, j, k)] = rho[at3(i, j, k)] * 0.999 + 0.001 * src;
                }
            }
        }
        // Mass reduction in chunked node order (planes k are distributed).
        mass = 0.0;
        for pid in 0..nprocs {
            let mut part = 0.0;
            for k in (pid * chunk).min(e)..((pid + 1) * chunk).min(e) {
                for j in 0..e {
                    for i in 0..e {
                        part += rho[at3(i, j, k)];
                    }
                }
            }
            mass += part;
        }
    }
    (rho, mass)
}
