//! `shallow` — the NCAR shallow-water weather benchmark, 1025×513 grid,
//! 100 iterations ("NCAR. HPF by PGI").
//!
//! The classic three-sweep structure: per time step, loop 100 computes
//! the mass fluxes `cu`,`cv`, potential vorticity `z` and height `h` from
//! `p`,`u`,`v` (backward stencils), loop 200 advances `unew`,`vnew`,`pnew`
//! from the fluxes (forward stencils), and loop 300 applies Robert time
//! smoothing — plus periodic-boundary copies that wrap the first and last
//! columns across the machine. Fourteen 1025×513 arrays, BLOCK distributed
//! on the second dimension. Regular ghost-column communication makes it a
//! showcase for the paper (85.7% of misses removed).

use crate::{AppSpec, Scale};
use fgdsm_hpf::{
    ARef, ArrayId, ArrayView, CompDist, Dist, Kernel, KernelCtx, ParLoop, Program, Stmt, Subscript,
};
use fgdsm_section::{Affine, SymRange, Var};

/// Array ids by declaration order.
pub(crate) const U: ArrayId = ArrayId(0);
pub(crate) const V: ArrayId = ArrayId(1);
pub const P: ArrayId = ArrayId(2);
pub(crate) const UNEW: ArrayId = ArrayId(3);
pub(crate) const VNEW: ArrayId = ArrayId(4);
pub(crate) const PNEW: ArrayId = ArrayId(5);
pub(crate) const UOLD: ArrayId = ArrayId(6);
pub(crate) const VOLD: ArrayId = ArrayId(7);
pub(crate) const POLD: ArrayId = ArrayId(8);
pub(crate) const CU: ArrayId = ArrayId(9);
pub(crate) const CV: ArrayId = ArrayId(10);
pub(crate) const Z: ArrayId = ArrayId(11);
pub(crate) const H: ArrayId = ArrayId(12);
pub(crate) const PSI: ArrayId = ArrayId(13);

/// Problem-size parameters: arrays are `(m+1) × (n+1)`.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub m: usize,
    pub n: usize,
    pub iters: i64,
}

impl Params {
    /// Table 2: 1025×513 grid, 100 iterations.
    pub(crate) fn paper() -> Self {
        Params {
            m: 1024,
            n: 512,
            iters: 100,
        }
    }

    /// Parameters at a given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Bench => Params {
                m: 256,
                n: 128,
                iters: 20,
            },
            Scale::Test => Params {
                m: 64,
                n: 32,
                iters: 4,
            },
        }
    }

    /// Grow per-superstep work ~linearly with `factor` by stretching the
    /// first grid extent (every sweep is linear in `m`).
    pub fn scaled(mut self, factor: usize) -> Self {
        self.m *= factor.max(1);
        self
    }
}

// Physical constants of the benchmark (shape-faithful, simplified: tdt is
// held constant rather than doubled after the first step).
const DT: f64 = 90.0;
const DX: f64 = 100_000.0;
const DY: f64 = 100_000.0;
const AA: f64 = 1_000_000.0;
const ALPHA: f64 = 0.001;

fn init_psi_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let di = ctx.scalar("di");
    let dj = ctx.scalar("dj");
    let [mut psi] = ctx.views([PSI]);
    for j in cols.iter() {
        for (i, out) in (i0..).zip(psi.run_mut([i0, j], n)) {
            *out = AA * ((i as f64 + 0.5) * di).sin() * ((j as f64 + 0.5) * dj).sin();
        }
    }
}

fn init_uvp_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let di = ctx.scalar("di");
    let dj = ctx.scalar("dj");
    let pcf = ctx.scalar("pcf");
    let [mut u, mut v, mut p, psi] = ctx.views([U, V, P, PSI]);
    for j in cols.iter() {
        let (psi_c, psi_w) = (psi.run([i0, j], n), psi.run([i0 - 1, j], n));
        let psi_s = psi.run([i0, j - 1], n);
        let (us, vs, ps) = (
            u.run_mut([i0, j], n),
            v.run_mut([i0, j], n),
            p.run_mut([i0, j], n),
        );
        for (x, i) in (i0..).take(n).enumerate() {
            us[x] = -(psi_c[x] - psi_w[x]) / DY;
            vs[x] = (psi_c[x] - psi_s[x]) / DX;
            ps[x] = pcf * ((2.0 * i as f64 * di).cos() + (2.0 * j as f64 * dj).cos()) + 50_000.0;
        }
    }
}

fn init_old_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [u, v, p, mut uo, mut vo, mut po] = ctx.views([U, V, P, UOLD, VOLD, POLD]);
    for j in cols.iter() {
        uo.run_mut([i0, j], n).copy_from_slice(u.run([i0, j], n));
        vo.run_mut([i0, j], n).copy_from_slice(v.run([i0, j], n));
        po.run_mut([i0, j], n).copy_from_slice(p.run([i0, j], n));
    }
}

/// The three runs of one array a first-order stencil reads in column
/// `j`: at `(i, j)`, `(i+d, j)` and `(i, j+d)`.
fn stencil<'a>(
    a: &'a ArrayView,
    (i0, n): (i64, usize),
    j: i64,
    d: i64,
) -> (&'a [f64], &'a [f64], &'a [f64]) {
    (
        a.run([i0, j], n),
        a.run([i0 + d, j], n),
        a.run([i0, j + d], n),
    )
}

/// Backward stencils: suffix `_w` is `i-1`, `_s` is `j-1`.
fn loop100_kernel(ctx: &mut KernelCtx) {
    let (rows, cols) = (ctx.dense(0), ctx.iter[1]);
    let (i0, n) = rows;
    let fsdx = ctx.scalar("fsdx");
    let fsdy = ctx.scalar("fsdy");
    let [u, v, p, mut cu, mut cv, mut z, mut h] = ctx.views([U, V, P, CU, CV, Z, H]);
    for j in cols.iter() {
        let (p_c, p_w, p_s) = stencil(&p, rows, j, -1);
        let p_sw = p.run([i0 - 1, j - 1], n);
        let (u_c, u_w, u_s) = stencil(&u, rows, j, -1);
        let (v_c, v_w, v_s) = stencil(&v, rows, j, -1);
        let (cus, cvs) = (cu.run_mut([i0, j], n), cv.run_mut([i0, j], n));
        let (zs, hs) = (z.run_mut([i0, j], n), h.run_mut([i0, j], n));
        for x in 0..n {
            let (pij, uij, vij) = (p_c[x], u_c[x], v_c[x]);
            cus[x] = 0.5 * (pij + p_w[x]) * uij;
            cvs[x] = 0.5 * (pij + p_s[x]) * vij;
            zs[x] =
                (fsdx * (vij - v_w[x]) - fsdy * (uij - u_s[x])) / (p_sw[x] + p_s[x] + pij + p_w[x]);
            let (um, vm) = (u_w[x], v_s[x]);
            hs[x] = pij + 0.25 * (uij * uij + um * um + vij * vij + vm * vm);
        }
    }
}

/// Copy column `from` of each array onto column `to`, rows of the loop.
fn copy_column<const N: usize>(ctx: &mut KernelCtx, ids: [ArrayId; N], from: i64, to: i64) {
    let (i0, n) = ctx.dense(0);
    for mut a in ctx.views(ids) {
        let (mut below, mut above) = a.split_last(from.max(to));
        let (src, dst) = if from < to {
            (below.run([i0, from], n), above.run_mut([i0, to], n))
        } else {
            (above.run([i0, from], n), below.run_mut([i0, to], n))
        };
        dst.copy_from_slice(src);
    }
}

fn bc1_cols_kernel(ctx: &mut KernelCtx) {
    let n = ctx.scalar("jmax") as i64;
    copy_column(ctx, [CU, CV, Z, H], n, 0);
}

fn bc1_rows_kernel(ctx: &mut KernelCtx) {
    let (cu, cv, z, h) = (ctx.h(CU), ctx.h(CV), ctx.h(Z), ctx.h(H));
    let m = ctx.scalar("imax") as i64;
    for j in ctx.iter[0].iter() {
        ctx.mem[cu.at2(0, j)] = ctx.mem[cu.at2(m, j)];
        ctx.mem[cv.at2(0, j)] = ctx.mem[cv.at2(m, j)];
        ctx.mem[z.at2(0, j)] = ctx.mem[z.at2(m, j)];
        ctx.mem[h.at2(0, j)] = ctx.mem[h.at2(m, j)];
    }
}

/// Forward stencils: suffix `_e` is `i+1`, `_n` is `j+1`.
fn loop200_kernel(ctx: &mut KernelCtx) {
    let (rows, cols) = (ctx.dense(0), ctx.iter[1]);
    let (i0, n) = rows;
    let tdts8 = ctx.scalar("tdts8");
    let tdtsdx = ctx.scalar("tdtsdx");
    let tdtsdy = ctx.scalar("tdtsdy");
    let [cu, cv, z, h, mut un, mut vn, mut pn, uo, vo, po] =
        ctx.views([CU, CV, Z, H, UNEW, VNEW, PNEW, UOLD, VOLD, POLD]);
    for j in cols.iter() {
        let (z_c, z_e, z_n) = stencil(&z, rows, j, 1);
        let (cu_c, cu_e, cu_n) = stencil(&cu, rows, j, 1);
        let (cv_c, cv_e, cv_n) = stencil(&cv, rows, j, 1);
        let (h_c, h_e, h_n) = stencil(&h, rows, j, 1);
        let (uos, vos, pos) = (uo.run([i0, j], n), vo.run([i0, j], n), po.run([i0, j], n));
        let (uns, vns, pns) = (
            un.run_mut([i0, j], n),
            vn.run_mut([i0, j], n),
            pn.run_mut([i0, j], n),
        );
        for x in 0..n {
            let zc = z_c[x];
            uns[x] =
                uos[x] + tdts8 * (z_e[x] + zc) * (cv_e[x] + cv_c[x]) - tdtsdx * (h_e[x] - h_c[x]);
            vns[x] =
                vos[x] - tdts8 * (z_n[x] + zc) * (cu_n[x] + cu_c[x]) - tdtsdy * (h_n[x] - h_c[x]);
            pns[x] = pos[x] - tdtsdx * (cu_e[x] - cu_c[x]) - tdtsdy * (cv_n[x] - cv_c[x]);
        }
    }
}

fn bc2_cols_kernel(ctx: &mut KernelCtx) {
    let n = ctx.scalar("jmax") as i64;
    copy_column(ctx, [UNEW, VNEW, PNEW], 0, n);
}

fn bc2_rows_kernel(ctx: &mut KernelCtx) {
    let (un, vn, pn) = (ctx.h(UNEW), ctx.h(VNEW), ctx.h(PNEW));
    let m = ctx.scalar("imax") as i64;
    for j in ctx.iter[0].iter() {
        ctx.mem[un.at2(m, j)] = ctx.mem[un.at2(0, j)];
        ctx.mem[vn.at2(m, j)] = ctx.mem[vn.at2(0, j)];
        ctx.mem[pn.at2(m, j)] = ctx.mem[pn.at2(0, j)];
    }
}

fn loop300_kernel(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let views = ctx.views([U, V, P, UNEW, VNEW, PNEW, UOLD, VOLD, POLD]);
    let [mut u, mut v, mut p, un, vn, pn, mut uo, mut vo, mut po] = views;
    // Robert filter on one field: `old` absorbs the smoothed current
    // value, `cur` takes the new one.
    let smooth = |cur: &mut [f64], new: &[f64], old: &mut [f64]| {
        for x in 0..n {
            let c = cur[x];
            old[x] = c + ALPHA * (new[x] - 2.0 * c + old[x]);
            cur[x] = new[x];
        }
    };
    for j in cols.iter() {
        let at = [i0, j];
        smooth(u.run_mut(at, n), un.run(at, n), uo.run_mut(at, n));
        smooth(v.run_mut(at, n), vn.run(at, n), vo.run_mut(at, n));
        smooth(p.run_mut(at, n), pn.run(at, n), po.run_mut(at, n));
    }
}

/// Build the shallow program.
pub fn build(pr: &Params) -> Program {
    let t = Var("t");
    let (m, n) = (pr.m as i64, pr.n as i64);
    let (mp1, np1) = (pr.m + 1, pr.n + 1);
    let mut b = Program::builder();
    let ids: Vec<ArrayId> = [
        "u", "v", "p", "unew", "vnew", "pnew", "uold", "vold", "pold", "cu", "cv", "z", "h", "psi",
    ]
    .iter()
    .map(|name| b.array(name, &[mp1, np1], Dist::Block))
    .collect();
    assert_eq!(ids[13], PSI);
    let tdt = DT; // constant tdt (the original doubles it after step 1)
    b.scalar("di", std::f64::consts::PI / pr.m as f64)
        .scalar("dj", std::f64::consts::PI / pr.n as f64)
        .scalar("pcf", 3.0)
        .scalar("fsdx", 4.0 / DX)
        .scalar("fsdy", 4.0 / DY)
        .scalar("tdts8", tdt / 8.0)
        .scalar("tdtsdx", tdt / DX)
        .scalar("tdtsdy", tdt / DY)
        .scalar("imax", m as f64)
        .scalar("jmax", n as f64);
    let iv = |d: usize, c: i64| Subscript::Loop(d, c);
    let here = vec![iv(0, 0), iv(1, 0)];
    let rw = |a: ArrayId| ARef::write(a, here.clone());
    let rd = |a: ArrayId| ARef::read(a, here.clone());
    let rd_at = |a: ArrayId, c0: i64, c1: i64| ARef::read(a, vec![iv(0, c0), iv(1, c1)]);

    b.stmt(Stmt::Par(ParLoop {
        name: "init_psi",
        iter: vec![SymRange::new(0, m), SymRange::new(0, n)],
        dist: CompDist::Owner(PSI),
        refs: vec![rw(PSI)],
        kernel: Kernel::new(init_psi_kernel),
        cost_per_iter_ns: 420,
        reduction: None,
    }));
    b.stmt(Stmt::Par(ParLoop {
        name: "init_uvp",
        iter: vec![SymRange::new(1, m), SymRange::new(1, n)],
        dist: CompDist::Owner(U),
        refs: vec![
            rd(PSI),
            rd_at(PSI, -1, 0),
            rd_at(PSI, 0, -1),
            rw(U),
            rw(V),
            rw(P),
        ],
        kernel: Kernel::new(init_uvp_kernel),
        cost_per_iter_ns: 520,
        reduction: None,
    }));
    b.stmt(Stmt::Par(ParLoop {
        name: "init_old",
        iter: vec![SymRange::new(0, m), SymRange::new(0, n)],
        dist: CompDist::Owner(UOLD),
        refs: vec![rd(U), rd(V), rd(P), rw(UOLD), rw(VOLD), rw(POLD)],
        kernel: Kernel::new(init_old_kernel),
        cost_per_iter_ns: 190,
        reduction: None,
    }));

    let loop100 = Stmt::Par(ParLoop {
        name: "loop100",
        iter: vec![SymRange::new(1, m), SymRange::new(1, n)],
        dist: CompDist::Owner(CU),
        refs: vec![
            rd(P),
            rd_at(P, -1, 0),
            rd_at(P, 0, -1),
            rd_at(P, -1, -1),
            rd(U),
            rd_at(U, -1, 0),
            rd_at(U, 0, -1),
            rd(V),
            rd_at(V, -1, 0),
            rd_at(V, 0, -1),
            rw(CU),
            rw(CV),
            rw(Z),
            rw(H),
        ],
        kernel: Kernel::new(loop100_kernel),
        cost_per_iter_ns: 1000,
        reduction: None,
    });
    let span_rows = SymRange::new(1, m);
    let bc1_cols = Stmt::Par(ParLoop {
        name: "bc1_cols",
        iter: vec![span_rows.clone()],
        dist: CompDist::OwnerOfIndex(CU, Affine::constant(0)),
        refs: [CU, CV, Z, H]
            .iter()
            .flat_map(|&a| {
                [
                    ARef::write(
                        a,
                        vec![
                            Subscript::Span(span_rows.clone()),
                            Subscript::At(Affine::constant(0)),
                        ],
                    ),
                    ARef::read(
                        a,
                        vec![
                            Subscript::Span(span_rows.clone()),
                            Subscript::At(Affine::constant(n)),
                        ],
                    ),
                ]
            })
            .collect(),
        kernel: Kernel::new(bc1_cols_kernel),
        cost_per_iter_ns: 60,
        reduction: None,
    });
    let bc1_rows = Stmt::Par(ParLoop {
        name: "bc1_rows",
        iter: vec![SymRange::new(0, n)],
        dist: CompDist::Owner(CU),
        refs: [CU, CV, Z, H]
            .iter()
            .flat_map(|&a| {
                [
                    ARef::write(
                        a,
                        vec![Subscript::At(Affine::constant(0)), Subscript::loop_var(0)],
                    ),
                    ARef::read(
                        a,
                        vec![Subscript::At(Affine::constant(m)), Subscript::loop_var(0)],
                    ),
                ]
            })
            .collect(),
        kernel: Kernel::new(bc1_rows_kernel),
        cost_per_iter_ns: 60,
        reduction: None,
    });
    let loop200 = Stmt::Par(ParLoop {
        name: "loop200",
        iter: vec![SymRange::new(0, m - 1), SymRange::new(0, n - 1)],
        dist: CompDist::Owner(UNEW),
        refs: vec![
            rd(Z),
            rd_at(Z, 1, 0),
            rd_at(Z, 0, 1),
            rd(CU),
            rd_at(CU, 1, 0),
            rd_at(CU, 0, 1),
            rd(CV),
            rd_at(CV, 1, 0),
            rd_at(CV, 0, 1),
            rd(H),
            rd_at(H, 1, 0),
            rd_at(H, 0, 1),
            rd(UOLD),
            rd(VOLD),
            rd(POLD),
            rw(UNEW),
            rw(VNEW),
            rw(PNEW),
        ],
        kernel: Kernel::new(loop200_kernel),
        cost_per_iter_ns: 1150,
        reduction: None,
    });
    let span_rows2 = SymRange::new(0, m - 1);
    let bc2_cols = Stmt::Par(ParLoop {
        name: "bc2_cols",
        iter: vec![span_rows2.clone()],
        dist: CompDist::OwnerOfIndex(UNEW, Affine::constant(n)),
        refs: [UNEW, VNEW, PNEW]
            .iter()
            .flat_map(|&a| {
                [
                    ARef::write(
                        a,
                        vec![
                            Subscript::Span(span_rows2.clone()),
                            Subscript::At(Affine::constant(n)),
                        ],
                    ),
                    ARef::read(
                        a,
                        vec![
                            Subscript::Span(span_rows2.clone()),
                            Subscript::At(Affine::constant(0)),
                        ],
                    ),
                ]
            })
            .collect(),
        kernel: Kernel::new(bc2_cols_kernel),
        cost_per_iter_ns: 60,
        reduction: None,
    });
    let bc2_rows = Stmt::Par(ParLoop {
        name: "bc2_rows",
        iter: vec![SymRange::new(0, n)],
        dist: CompDist::Owner(UNEW),
        refs: [UNEW, VNEW, PNEW]
            .iter()
            .flat_map(|&a| {
                [
                    ARef::write(
                        a,
                        vec![Subscript::At(Affine::constant(m)), Subscript::loop_var(0)],
                    ),
                    ARef::read(
                        a,
                        vec![Subscript::At(Affine::constant(0)), Subscript::loop_var(0)],
                    ),
                ]
            })
            .collect(),
        kernel: Kernel::new(bc2_rows_kernel),
        cost_per_iter_ns: 60,
        reduction: None,
    });
    let loop300 = Stmt::Par(ParLoop {
        name: "loop300",
        iter: vec![SymRange::new(0, m), SymRange::new(0, n)],
        dist: CompDist::Owner(U),
        refs: vec![
            rd(U),
            rd(V),
            rd(P),
            rd(UNEW),
            rd(VNEW),
            rd(PNEW),
            rd(UOLD),
            rd(VOLD),
            rd(POLD),
            rw(UOLD),
            rw(VOLD),
            rw(POLD),
            rw(U),
            rw(V),
            rw(P),
        ],
        kernel: Kernel::new(loop300_kernel),
        cost_per_iter_ns: 900,
        reduction: None,
    });
    b.stmt(Stmt::Time {
        var: t,
        count: pr.iters,
        body: vec![
            loop100, bc1_cols, bc1_rows, loop200, bc2_cols, bc2_rows, loop300,
        ],
    });
    b.build()
}

/// Table 2 metadata.
pub fn spec(p: &Params) -> AppSpec {
    AppSpec {
        name: "shallow",
        source: "NCAR. HPF by PGI",
        problem: format!("{}x{} grid, {} iters", p.m + 1, p.n + 1, p.iters),
        program: build(p),
        iters: p.iters,
    }
}

/// Sequential reference (bitwise-identical: shallow has no reductions).
/// Returns the final `p` field.
pub fn reference(pr: &Params) -> Vec<f64> {
    let (m, n) = (pr.m, pr.n);
    let (mp1, np1) = (m + 1, n + 1);
    let at = |i: usize, j: usize| i + j * mp1;
    let sz = mp1 * np1;
    let (mut u, mut v, mut p) = (vec![0.0; sz], vec![0.0; sz], vec![0.0; sz]);
    let (mut un, mut vn, mut pn) = (vec![0.0; sz], vec![0.0; sz], vec![0.0; sz]);
    let (mut uo, mut vo, mut po) = (vec![0.0; sz], vec![0.0; sz], vec![0.0; sz]);
    let (mut cu, mut cv, mut z, mut h) =
        (vec![0.0; sz], vec![0.0; sz], vec![0.0; sz], vec![0.0; sz]);
    let mut psi = vec![0.0; sz];
    let di = std::f64::consts::PI / m as f64;
    let dj = std::f64::consts::PI / n as f64;
    let pcf = 3.0;
    let fsdx = 4.0 / DX;
    let fsdy = 4.0 / DY;
    let tdt = DT;
    let (tdts8, tdtsdx, tdtsdy) = (tdt / 8.0, tdt / DX, tdt / DY);
    for j in 0..np1 {
        for i in 0..mp1 {
            psi[at(i, j)] = AA * ((i as f64 + 0.5) * di).sin() * ((j as f64 + 0.5) * dj).sin();
        }
    }
    for j in 1..np1 {
        for i in 1..mp1 {
            u[at(i, j)] = -(psi[at(i, j)] - psi[at(i - 1, j)]) / DY;
            v[at(i, j)] = (psi[at(i, j)] - psi[at(i, j - 1)]) / DX;
            p[at(i, j)] =
                pcf * ((2.0 * i as f64 * di).cos() + (2.0 * j as f64 * dj).cos()) + 50_000.0;
        }
    }
    uo.copy_from_slice(&u);
    vo.copy_from_slice(&v);
    po.copy_from_slice(&p);
    for _ in 0..pr.iters {
        for j in 1..np1 {
            for i in 1..mp1 {
                let pij = p[at(i, j)];
                let uij = u[at(i, j)];
                let vij = v[at(i, j)];
                cu[at(i, j)] = 0.5 * (pij + p[at(i - 1, j)]) * uij;
                cv[at(i, j)] = 0.5 * (pij + p[at(i, j - 1)]) * vij;
                z[at(i, j)] = (fsdx * (vij - v[at(i - 1, j)]) - fsdy * (uij - u[at(i, j - 1)]))
                    / (p[at(i - 1, j - 1)] + p[at(i, j - 1)] + pij + p[at(i - 1, j)]);
                let um = u[at(i - 1, j)];
                let vm = v[at(i, j - 1)];
                h[at(i, j)] = pij + 0.25 * (uij * uij + um * um + vij * vij + vm * vm);
            }
        }
        for i in 1..mp1 {
            cu[at(i, 0)] = cu[at(i, n)];
            cv[at(i, 0)] = cv[at(i, n)];
            z[at(i, 0)] = z[at(i, n)];
            h[at(i, 0)] = h[at(i, n)];
        }
        for j in 0..np1 {
            cu[at(0, j)] = cu[at(m, j)];
            cv[at(0, j)] = cv[at(m, j)];
            z[at(0, j)] = z[at(m, j)];
            h[at(0, j)] = h[at(m, j)];
        }
        for j in 0..n {
            for i in 0..m {
                let zc = z[at(i, j)];
                un[at(i, j)] = uo[at(i, j)]
                    + tdts8 * (z[at(i + 1, j)] + zc) * (cv[at(i + 1, j)] + cv[at(i, j)])
                    - tdtsdx * (h[at(i + 1, j)] - h[at(i, j)]);
                vn[at(i, j)] = vo[at(i, j)]
                    - tdts8 * (z[at(i, j + 1)] + zc) * (cu[at(i, j + 1)] + cu[at(i, j)])
                    - tdtsdy * (h[at(i, j + 1)] - h[at(i, j)]);
                pn[at(i, j)] = po[at(i, j)]
                    - tdtsdx * (cu[at(i + 1, j)] - cu[at(i, j)])
                    - tdtsdy * (cv[at(i, j + 1)] - cv[at(i, j)]);
            }
        }
        for i in 0..m {
            un[at(i, n)] = un[at(i, 0)];
            vn[at(i, n)] = vn[at(i, 0)];
            pn[at(i, n)] = pn[at(i, 0)];
        }
        for j in 0..np1 {
            un[at(m, j)] = un[at(0, j)];
            vn[at(m, j)] = vn[at(0, j)];
            pn[at(m, j)] = pn[at(0, j)];
        }
        for j in 0..np1 {
            for i in 0..mp1 {
                let (uc, vc, pc) = (u[at(i, j)], v[at(i, j)], p[at(i, j)]);
                uo[at(i, j)] = uc + ALPHA * (un[at(i, j)] - 2.0 * uc + uo[at(i, j)]);
                vo[at(i, j)] = vc + ALPHA * (vn[at(i, j)] - 2.0 * vc + vo[at(i, j)]);
                po[at(i, j)] = pc + ALPHA * (pn[at(i, j)] - 2.0 * pc + po[at(i, j)]);
                u[at(i, j)] = un[at(i, j)];
                v[at(i, j)] = vn[at(i, j)];
                p[at(i, j)] = pn[at(i, j)];
            }
        }
    }
    p
}
