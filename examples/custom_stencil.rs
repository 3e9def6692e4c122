//! Build your own HPF program against the public API: a 9-point stencil
//! with a convergence reduction, run across all executors.
//!
//!     cargo run --release --example custom_stencil
//!
//! Demonstrates: declaring distributed arrays, INDEPENDENT loops with
//! affine references, reductions into replicated scalars, and how the
//! three executors (unoptimized DSM, compiler-optimized DSM, message
//! passing) compare on a workload the paper never measured.

use fgdsm::hpf::{
    execute, ARef, ArrayId, CompDist, Dist, ExecConfig, Kernel, KernelCtx, ParLoop, Program,
    ReduceSpec, Stmt, Subscript,
};
use fgdsm::section::{SymRange, Var};
use fgdsm::tempest::ReduceOp;

const GRID: ArrayId = ArrayId(0);
const NEXT: ArrayId = ArrayId(1);
const N: usize = 256;
const ITERS: i64 = 12;

/// Per-point access — `ctx.mem[handle.at2(i, j)]` — is the fallback for
/// what has no dense run (an indirect gather, a strided first dimension)
/// and is fine for a once-per-run initialisation like this one.
fn init(ctx: &mut KernelCtx) {
    let g = ctx.h(GRID);
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            ctx.mem[g.at2(i, j)] = if (i + j) % 17 == 0 { 100.0 } else { 0.0 };
        }
    }
}

/// The idiom for a hot loop: borrow one view per array, then walk the
/// dense dim-0 *runs* of each column as slices. A run is checked against
/// the array's extents once; the loop over it has no bounds check left
/// and, `out` being the only `&mut`, vectorizes.
fn sweep(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [grid, mut next] = ctx.views([GRID, NEXT]);
    for j in cols.iter() {
        // 9-point box blur: the nine neighbour runs, in summation order
        // (overlapping read runs of one view are fine).
        let nine: [&[f64]; 9] =
            std::array::from_fn(|k| grid.run([i0 + k as i64 % 3 - 1, j + k as i64 / 3 - 1], n));
        let out = next.run_mut([i0, j], n);
        for x in 0..n {
            let mut s = 0.0;
            for neighbour in nine {
                s += neighbour[x];
            }
            out[x] = s / 9.0;
        }
    }
}

/// Reductions accumulate in element order — the same order as the
/// per-point loop, so every backend and the sequential reference agree
/// to the bit.
fn copy_back(ctx: &mut KernelCtx) {
    let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
    let [mut grid, next] = ctx.views([GRID, NEXT]);
    let mut delta = 0.0;
    for j in cols.iter() {
        for (g, &new) in grid
            .run_mut([i0, j], n)
            .iter_mut()
            .zip(next.run([i0, j], n))
        {
            delta += (new - *g).abs();
            *g = new;
        }
    }
    ctx.partial = delta;
}

fn build() -> Program {
    let t = Var("t");
    let mut b = Program::builder();
    let grid = b.array("grid", &[N, N], Dist::Block);
    let next = b.array("next", &[N, N], Dist::Block);
    assert_eq!((grid, next), (GRID, NEXT));
    b.scalar("delta", 0.0);
    let nn = N as i64;
    let here = vec![Subscript::loop_var(0), Subscript::loop_var(1)];
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![SymRange::new(0, nn - 1), SymRange::new(0, nn - 1)],
        dist: CompDist::Owner(grid),
        refs: vec![ARef::write(grid, here.clone())],
        kernel: Kernel::new(init),
        cost_per_iter_ns: 60,
        reduction: None,
    }));
    // A 9-point stencil needs all four corners too: eight read refs.
    let mut sweep_refs = vec![ARef::write(next, here.clone())];
    for dj in -1..=1i64 {
        for di in -1..=1i64 {
            sweep_refs.push(ARef::read(
                grid,
                vec![Subscript::Loop(0, di), Subscript::Loop(1, dj)],
            ));
        }
    }
    b.stmt(Stmt::Time {
        var: t,
        count: ITERS,
        body: vec![
            Stmt::Par(ParLoop {
                name: "sweep",
                iter: vec![SymRange::new(1, nn - 2), SymRange::new(1, nn - 2)],
                dist: CompDist::Owner(next),
                refs: sweep_refs,
                kernel: Kernel::new(sweep),
                cost_per_iter_ns: 900,
                reduction: None,
            }),
            Stmt::Par(ParLoop {
                name: "copy",
                iter: vec![SymRange::new(1, nn - 2), SymRange::new(1, nn - 2)],
                dist: CompDist::Owner(grid),
                refs: vec![
                    ARef::read(next, here.clone()),
                    ARef::read(grid, here.clone()),
                    ARef::write(grid, here.clone()),
                ],
                kernel: Kernel::new(copy_back),
                cost_per_iter_ns: 220,
                reduction: Some(ReduceSpec {
                    op: ReduceOp::Sum,
                    target: "delta",
                }),
            }),
        ],
    });
    b.build()
}

fn main() {
    let program = build();
    println!("9-point box blur, {N}x{N}, {ITERS} iterations, 8 nodes\n");
    println!(
        "{:<18}{:>12}{:>12}{:>14}{:>12}",
        "backend", "time (s)", "comm (s)", "misses/node", "messages"
    );
    let mut results = Vec::new();
    for (name, cfg) in [
        ("sm-unopt", ExecConfig::sm_unopt(8)),
        ("sm-opt", ExecConfig::sm_opt(8)),
        ("mp", ExecConfig::mp(8)),
    ] {
        let r = execute(&program, &cfg);
        println!(
            "{:<18}{:>12.4}{:>12.4}{:>14.0}{:>12}",
            name,
            r.total_s(),
            r.report.comm_s(),
            r.report.avg_misses(),
            r.report.total_msgs()
        );
        results.push(r);
    }
    // All three agree on the data.
    let a = results[0].array(&program, GRID);
    for r in &results[1..] {
        assert_eq!(a, r.array(&program, GRID));
    }
    println!(
        "\nfinal smoothing delta: {:.6e}",
        results[0].scalars["delta"]
    );
    println!("all backends produced identical data ✓");
}
