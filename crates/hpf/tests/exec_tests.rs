//! End-to-end executor tests: a small Jacobi-style program run under every
//! backend must produce identical data, and the optimized executor must
//! show the paper's qualitative effects (fewer misses, fewer messages with
//! bulk transfer, fewer calls with run-time overhead elimination).

use fgdsm_hpf::{
    analysis, execute, ARef, CompDist, Dist, ExecConfig, Kernel, KernelCtx, OptLevel, ParLoop,
    Program, ReduceSpec, Stmt, Subscript,
};
use fgdsm_section::{SymRange, Var};
use fgdsm_tempest::ReduceOp;

// Array ids by declaration order (kernels are plain fn pointers).
const A: fgdsm_hpf::ArrayId = fgdsm_hpf::ArrayId(0);
const B: fgdsm_hpf::ArrayId = fgdsm_hpf::ArrayId(1);

const N: usize = 512; // rows (32 blocks per column at 128-byte blocks)
const M: usize = 48; // columns (distributed)
const ITERS: i64 = 30;

fn init_kernel(ctx: &mut KernelCtx) {
    let a = ctx.h(A);
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            ctx.mem[a.at2(i, j)] = (i * 31 + j * 7) as f64 * 0.125;
        }
    }
}

fn sweep_kernel(ctx: &mut KernelCtx) {
    let a = ctx.h(A);
    let b = ctx.h(B);
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            let v = 0.25
                * (ctx.mem[a.at2(i - 1, j)]
                    + ctx.mem[a.at2(i + 1, j)]
                    + ctx.mem[a.at2(i, j - 1)]
                    + ctx.mem[a.at2(i, j + 1)]);
            ctx.mem[b.at2(i, j)] = v;
        }
    }
}

fn copy_kernel(ctx: &mut KernelCtx) {
    let a = ctx.h(A);
    let b = ctx.h(B);
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            ctx.mem[a.at2(i, j)] = ctx.mem[b.at2(i, j)];
        }
    }
}

fn sum_kernel(ctx: &mut KernelCtx) {
    let a = ctx.h(A);
    let mut acc = 0.0;
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            acc += ctx.mem[a.at2(i, j)];
        }
    }
    ctx.partial = acc;
}

fn jacobi_program() -> Program {
    let t = Var("t");
    let mut b = Program::builder();
    let a = b.array("a", &[N, M], Dist::Block);
    let bb = b.array("b", &[N, M], Dist::Block);
    assert_eq!(a, A);
    assert_eq!(bb, B);
    b.scalar("sum", 0.0);
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![
            SymRange::new(0, N as i64 - 1),
            SymRange::new(0, M as i64 - 1),
        ],
        dist: CompDist::Owner(a),
        refs: vec![ARef::write(
            a,
            vec![Subscript::loop_var(0), Subscript::loop_var(1)],
        )],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 50,
        reduction: None,
    }));
    let sweep = Stmt::Par(ParLoop {
        name: "sweep",
        iter: vec![
            SymRange::new(1, N as i64 - 2),
            SymRange::new(1, M as i64 - 2),
        ],
        dist: CompDist::Owner(bb),
        refs: vec![
            ARef::read(a, vec![Subscript::Loop(0, -1), Subscript::loop_var(1)]),
            ARef::read(a, vec![Subscript::Loop(0, 1), Subscript::loop_var(1)]),
            ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, -1)]),
            ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, 1)]),
            ARef::write(bb, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
        ],
        kernel: Kernel::new(sweep_kernel),
        cost_per_iter_ns: 400,
        reduction: None,
    });
    let copy = Stmt::Par(ParLoop {
        name: "copy",
        iter: vec![
            SymRange::new(1, N as i64 - 2),
            SymRange::new(1, M as i64 - 2),
        ],
        dist: CompDist::Owner(a),
        refs: vec![
            ARef::read(bb, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
            ARef::write(a, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
        ],
        kernel: Kernel::new(copy_kernel),
        cost_per_iter_ns: 80,
        reduction: None,
    });
    b.stmt(Stmt::Time {
        var: t,
        count: ITERS,
        body: vec![sweep, copy],
    });
    b.stmt(Stmt::Par(ParLoop {
        name: "sum",
        iter: vec![
            SymRange::new(0, N as i64 - 1),
            SymRange::new(0, M as i64 - 1),
        ],
        dist: CompDist::Owner(a),
        refs: vec![ARef::read(
            a,
            vec![Subscript::loop_var(0), Subscript::loop_var(1)],
        )],
        kernel: Kernel::new(sum_kernel),
        cost_per_iter_ns: 30,
        reduction: Some(ReduceSpec {
            op: ReduceOp::Sum,
            target: "sum",
        }),
    }));
    b.build()
}

/// Sequential reference computed with plain Rust arrays.
fn reference() -> (Vec<f64>, f64) {
    let mut a = vec![0.0f64; N * M];
    let mut b = vec![0.0f64; N * M];
    let at = |i: usize, j: usize| i + j * N;
    for j in 0..M {
        for i in 0..N {
            a[at(i, j)] = (i * 31 + j * 7) as f64 * 0.125;
        }
    }
    for _ in 0..ITERS {
        for j in 1..M - 1 {
            for i in 1..N - 1 {
                b[at(i, j)] =
                    0.25 * (a[at(i - 1, j)] + a[at(i + 1, j)] + a[at(i, j - 1)] + a[at(i, j + 1)]);
            }
        }
        for j in 1..M - 1 {
            for i in 1..N - 1 {
                a[at(i, j)] = b[at(i, j)];
            }
        }
    }
    let sum = a.iter().sum();
    (a, sum)
}

fn assert_matches_reference(r: &fgdsm_hpf::RunResult, prog: &Program, label: &str) {
    let (aref, sum) = reference();
    let got = r.array(prog, A);
    assert_eq!(got.len(), aref.len());
    for (i, (g, e)) in got.iter().zip(&aref).enumerate() {
        assert!((g - e).abs() < 1e-12, "{label}: a[{i}] = {g}, expected {e}");
    }
    let gs = r.scalars["sum"];
    assert!(
        (gs - sum).abs() / sum.abs().max(1.0) < 1e-9,
        "{label}: sum {gs} vs {sum}"
    );
}

#[test]
fn unopt_matches_sequential_reference() {
    let prog = jacobi_program();
    let r = execute(&prog, &ExecConfig::sm_unopt(4));
    assert_matches_reference(&r, &prog, "sm-unopt");
}

#[test]
fn opt_matches_sequential_reference() {
    let prog = jacobi_program();
    for (name, opt) in [
        ("base", OptLevel::base()),
        ("base+bulk", OptLevel::base_bulk()),
        ("full", OptLevel::full()),
        ("full+pre", OptLevel::full_pre()),
    ] {
        let r = execute(&prog, &ExecConfig::sm_opt(4).with_opt(opt));
        assert_matches_reference(&r, &prog, name);
    }
}

#[test]
fn mp_matches_sequential_reference() {
    let prog = jacobi_program();
    let r = execute(&prog, &ExecConfig::mp(4));
    assert_matches_reference(&r, &prog, "mp");
}

#[test]
fn uniprocessor_matches_reference() {
    let prog = jacobi_program();
    let r = execute(&prog, &ExecConfig::sm_unopt(1));
    assert_matches_reference(&r, &prog, "uni");
    // No communication on one node.
    assert_eq!(r.report.nodes[0].read_misses, 0);
}

#[test]
fn optimization_removes_most_misses() {
    let prog = jacobi_program();
    let unopt = execute(&prog, &ExecConfig::sm_unopt(4));
    let opt = execute(&prog, &ExecConfig::sm_opt(4));
    let mu = unopt.report.avg_misses();
    let mo = opt.report.avg_misses();
    assert!(
        mo < mu * 0.5,
        "opt misses {mo} should be well under half of unopt {mu}"
    );
    // And execution is faster.
    assert!(opt.total_s() < unopt.total_s());
    // The compiler actually pushed blocks.
    assert!(opt.ctl.blocks_pushed > 0);
    assert!(opt.ctl.send_range > 0);
}

#[test]
fn bulk_reduces_messages() {
    let prog = jacobi_program();
    let base = execute(&prog, &ExecConfig::sm_opt(4).with_opt(OptLevel::base()));
    let bulk = execute(
        &prog,
        &ExecConfig::sm_opt(4).with_opt(OptLevel::base_bulk()),
    );
    assert!(bulk.report.total_msgs() < base.report.total_msgs());
    assert!(bulk.total_s() <= base.total_s());
}

#[test]
fn rtoe_eliminates_calls_and_barriers() {
    let prog = jacobi_program();
    let nb = execute(
        &prog,
        &ExecConfig::sm_opt(4).with_opt(OptLevel::base_bulk()),
    );
    let full = execute(&prog, &ExecConfig::sm_opt(4).with_opt(OptLevel::full()));
    assert_eq!(full.ctl.mk_writable, 0, "rtoe drops mk_writable");
    assert_eq!(full.ctl.implicit_invalidate, 0, "rtoe drops invalidates");
    assert!(nb.ctl.mk_writable > 0);
    assert!(nb.ctl.implicit_invalidate > 0);
    assert!(full.total_s() < nb.total_s());
}

#[test]
fn pre_skips_redundant_transfers() {
    // The "sum" loop re-reads `a`… but jacobi writes `a` every iteration,
    // so build a program with two consecutive reads of the same ghost
    // data: run the sweep twice without the copy in between would change
    // semantics; instead re-run the full program and check PRE counters
    // exist but stay consistent.
    let prog = jacobi_program();
    let r = execute(&prog, &ExecConfig::sm_opt(4).with_opt(OptLevel::full_pre()));
    // a is rewritten between sweeps: most transfers must still happen.
    assert!(r.pre_performed > 0);
    assert_matches_reference(&r, &prog, "pre-correctness");
}

#[test]
fn single_cpu_slower_than_dual() {
    let prog = jacobi_program();
    let dual = execute(&prog, &ExecConfig::sm_unopt(4));
    let single = execute(&prog, &ExecConfig::sm_unopt(4).single_cpu());
    assert!(single.report.comm_s() > dual.report.comm_s());
    assert!(single.total_s() > dual.total_s());
    // Same misses either way — only service costs differ.
    assert_eq!(single.report.avg_misses(), dual.report.avg_misses());
}

#[test]
fn deterministic_repeat_runs() {
    let prog = jacobi_program();
    let r1 = execute(&prog, &ExecConfig::sm_opt(4));
    let r2 = execute(&prog, &ExecConfig::sm_opt(4));
    assert_eq!(r1.report.makespan_ns, r2.report.makespan_ns);
    assert_eq!(r1.report.avg_misses(), r2.report.avg_misses());
    assert_eq!(r1.data, r2.data);
}

#[test]
fn analysis_transfer_volume_matches_ghosts() {
    let prog = jacobi_program();
    let loops = prog.par_loops();
    let sweep = loops.iter().find(|l| l.name == "sweep").unwrap();
    let acc = analysis::analyze(&prog, sweep, &fgdsm_section::Env::new(), 4);
    // Interior nodes exchange one ghost column in each direction.
    let vols: Vec<u64> = (0..4)
        .map(|p| {
            acc.read_transfers
                .iter()
                .filter(|t| t.user == p)
                .map(|t| t.section.count())
                .sum()
        })
        .collect();
    // Edge nodes read one ghost column (N-2 rows), interior two.
    assert_eq!(vols[0], (N - 2) as u64);
    assert_eq!(vols[1], 2 * (N - 2) as u64);
    assert_eq!(vols[2], 2 * (N - 2) as u64);
    assert_eq!(vols[3], (N - 2) as u64);
}

#[test]
fn speedup_over_uniprocessor() {
    let prog = jacobi_program();
    let uni = execute(&prog, &ExecConfig::sm_unopt(1));
    let par = execute(&prog, &ExecConfig::sm_opt(4));
    let speedup = uni.total_s() / par.total_s();
    assert!(
        speedup > 1.2,
        "4-node optimized run should show real speedup, got {speedup:.2} \
         (uni: compute {:.4}s comm {:.4}s total {:.4}s; par: compute {:.4}s comm {:.4}s total {:.4}s, \
         misses {:.0}, node0 stall {:.4}s barrier {:.4}s ctl {:.4}s)",
        uni.report.compute_s(),
        uni.report.comm_s(),
        uni.total_s(),
        par.report.compute_s(),
        par.report.comm_s(),
        par.total_s(),
        par.report.avg_misses(),
        par.report.nodes[0].stall_ns as f64 / 1e9,
        par.report.nodes[0].barrier_ns as f64 / 1e9,
        par.report.nodes[0].ctl_call_ns as f64 / 1e9,
    );
}

fn every_other_row_kernel(ctx: &mut KernelCtx) {
    let a = ctx.h(A);
    let b = ctx.h(B);
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            ctx.mem[b.at2(i, j)] = ctx.mem[a.at2(2 * i, j - 1)];
        }
    }
}

/// A ghost read whose section strides dim 0 — `b(i, j) = a(2i, j-1)`,
/// rows `0:510:2` of the neighbour's last column — is a strided send like
/// any other on `mp`: one message per (single-element) run, marshalling
/// and wire charged, the reader waits for it and maps the page it lands
/// in. (It used to be copied point by point outside every account.)
#[test]
fn mp_charges_a_dim0_strided_ghost_like_any_strided_send() {
    const ROWS: usize = 512; // one page per column
    const COLS: usize = 8;
    let mut b = Program::builder();
    let a = b.array("a", &[ROWS, COLS], Dist::Block);
    let bb = b.array("b", &[ROWS, COLS], Dist::Block);
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![
            SymRange::new(0, ROWS as i64 - 1),
            SymRange::new(0, COLS as i64 - 1),
        ],
        dist: CompDist::Owner(a),
        refs: vec![ARef::write(
            a,
            vec![Subscript::loop_var(0), Subscript::loop_var(1)],
        )],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 50,
        reduction: None,
    }));
    b.stmt(Stmt::Par(ParLoop {
        name: "every_other_row",
        iter: vec![
            SymRange::new(0, ROWS as i64 / 2 - 1),
            SymRange::new(1, COLS as i64 - 1),
        ],
        dist: CompDist::Owner(bb),
        refs: vec![
            ARef::read(
                a,
                vec![
                    Subscript::Span(SymRange::strided(0, ROWS as i64 - 2, 2)),
                    Subscript::Loop(1, -1),
                ],
            ),
            ARef::write(bb, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
        ],
        kernel: Kernel::new(every_other_row_kernel),
        cost_per_iter_ns: 50,
        reduction: None,
    }));
    let prog = b.build();
    let ghost = (ROWS / 2) as u64; // elements of column 3 node 1 reads
    let r = execute(&prog, &ExecConfig::mp(2));
    assert_eq!(r.data, execute(&prog, &ExecConfig::sm_unopt(2)).data);
    let (owner, reader) = (&r.report.nodes[0], &r.report.nodes[1]);
    assert_eq!(owner.msgs_sent, ghost, "one message per contiguous run");
    assert_eq!(owner.bytes_sent, ghost * 8);
    assert_eq!((reader.msgs_recv, reader.bytes_recv), (ghost, ghost * 8));
    let cost = ExecConfig::mp(2).cost;
    assert!(owner.stall_ns >= ghost * (cost.mp_per_message_ns + cost.mp_per_element_ns));
    assert!(reader.stall_ns > 0, "the reader must wait for the column");
    // Each node is home to its own columns' pages; the one page node 1
    // has to map is the ghost column's, on arrival.
    assert_eq!((owner.pages_mapped, reader.pages_mapped), (0, 1));
}
