//! Generative cross-backend equivalence: random stencil programs
//! (random extents, distribution, stencil offsets up to ±2, coefficient
//! sets, iteration counts, node counts) must produce bit-identical data
//! under the unoptimized DSM, every optimization level, and the
//! message-passing backend — and match a direct sequential evaluation.
//!
//! This is the strongest correctness net in the repository: wide stencils
//! exercise the multiple-writer/reader false-sharing paths, CYCLIC
//! distributions exercise strided sections, and random sizes exercise
//! `shmem_limits` boundary handling at every alignment.

use fgdsm_hpf::{
    execute, ARef, ArrayId, CompDist, Dist, ExecConfig, Kernel, KernelCtx, OptLevel, ParLoop,
    Program, Stmt, Subscript,
};
use fgdsm_section::{SymRange, Var};
use fgdsm_testkit::{check_cases, Rng};

const A: ArrayId = ArrayId(0);
const B: ArrayId = ArrayId(1);

/// Up to 5 stencil terms, spec passed through replicated scalars (kernels
/// are plain fn pointers and cannot capture).
const MAX_TERMS: usize = 5;
const DI: [&str; MAX_TERMS] = ["st_di0", "st_di1", "st_di2", "st_di3", "st_di4"];
const DJ: [&str; MAX_TERMS] = ["st_dj0", "st_dj1", "st_dj2", "st_dj3", "st_dj4"];
const CO: [&str; MAX_TERMS] = ["st_c0", "st_c1", "st_c2", "st_c3", "st_c4"];

fn init_kernel(ctx: &mut KernelCtx) {
    let a = ctx.h(A);
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            ctx.mem[a.at2(i, j)] = ((i * 37 + j * 11) % 64) as f64 * 0.03125 - 1.0;
        }
    }
}

fn stencil_kernel(ctx: &mut KernelCtx) {
    let a = ctx.h(A);
    let b = ctx.h(B);
    let n = ctx.scalar("st_n") as usize;
    let mut terms = [(0i64, 0i64, 0.0f64); MAX_TERMS];
    for (k, t) in terms.iter_mut().enumerate().take(n) {
        *t = (
            ctx.scalar(DI[k]) as i64,
            ctx.scalar(DJ[k]) as i64,
            ctx.scalar(CO[k]),
        );
    }
    for j in ctx.iter[1].iter() {
        for i in ctx.iter[0].iter() {
            let mut acc = 0.0;
            for &(di, dj, c) in &terms[..n] {
                acc += c * ctx.mem[a.at2(i + di, j + dj)];
            }
            ctx.mem[b.at2(i, j)] = acc;
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

#[derive(Debug, Clone)]
struct Spec {
    n: usize,
    m: usize,
    iters: i64,
    dist: Dist,
    nprocs: usize,
    terms: Vec<(i64, i64, f64)>,
    block_bytes: usize,
}

fn random_spec(rng: &mut Rng) -> Spec {
    let n_terms = rng.range(1, MAX_TERMS + 1);
    Spec {
        n: rng.range(17, 64),
        m: rng.range(9, 40),
        iters: rng.range_i64(1, 4),
        dist: *rng.pick(&[Dist::Block, Dist::Cyclic]),
        nprocs: rng.range(1, 8),
        terms: rng.vec(n_terms, |r| {
            (
                r.range_i64(-2, 3),
                r.range_i64(-2, 3),
                r.range_i64(-4, 5) as f64 * 0.25,
            )
        }),
        block_bytes: *rng.pick(&[32usize, 64, 128]),
    }
}

fn build(spec: &Spec) -> Program {
    let t = Var("t");
    let (n, m) = (spec.n as i64, spec.m as i64);
    let mut b = Program::builder();
    let a = b.array("a", &[spec.n, spec.m], spec.dist);
    let bb = b.array("b", &[spec.n, spec.m], spec.dist);
    assert_eq!((a, bb), (A, B));
    b.scalar("st_n", spec.terms.len() as f64);
    for (k, &(di, dj, c)) in spec.terms.iter().enumerate() {
        b.scalar(DI[k], di as f64)
            .scalar(DJ[k], dj as f64)
            .scalar(CO[k], c);
    }
    let here = vec![Subscript::loop_var(0), Subscript::loop_var(1)];
    b.stmt(Stmt::Par(ParLoop {
        name: "init",
        iter: vec![SymRange::new(0, n - 1), SymRange::new(0, m - 1)],
        dist: CompDist::Owner(a),
        refs: vec![ARef::write(a, here.clone())],
        kernel: Kernel::new(init_kernel),
        cost_per_iter_ns: 10,
        reduction: None,
    }));
    // Interior margin 2 keeps every ±2 offset in bounds.
    let mut refs = vec![ARef::write(bb, here.clone())];
    for &(di, dj, _) in &spec.terms {
        refs.push(ARef::read(
            a,
            vec![Subscript::Loop(0, di), Subscript::Loop(1, dj)],
        ));
    }
    b.stmt(Stmt::Time {
        var: t,
        count: spec.iters,
        body: vec![
            Stmt::Par(ParLoop {
                name: "stencil",
                iter: vec![SymRange::new(2, n - 3), SymRange::new(2, m - 3)],
                dist: CompDist::Owner(bb),
                refs,
                kernel: Kernel::new(stencil_kernel),
                cost_per_iter_ns: 50,
                reduction: None,
            }),
            Stmt::Par(ParLoop {
                name: "copy",
                iter: vec![SymRange::new(2, n - 3), SymRange::new(2, m - 3)],
                dist: CompDist::Owner(a),
                refs: vec![ARef::read(bb, here.clone()), ARef::write(a, here.clone())],
                kernel: Kernel::new(copy_kernel),
                cost_per_iter_ns: 10,
                reduction: None,
            }),
        ],
    });
    b.build()
}

fn reference(spec: &Spec) -> Vec<f64> {
    let (n, m) = (spec.n, spec.m);
    let at = |i: i64, j: i64| i as usize + j as usize * n;
    let mut a = vec![0.0f64; n * m];
    let mut b = vec![0.0f64; n * m];
    for j in 0..m {
        for i in 0..n {
            a[i + j * n] = ((i * 37 + j * 11) % 64) as f64 * 0.03125 - 1.0;
        }
    }
    for _ in 0..spec.iters {
        for j in 2..m as i64 - 2 {
            for i in 2..n as i64 - 2 {
                let mut acc = 0.0;
                for &(di, dj, c) in &spec.terms {
                    acc += c * a[at(i + di, j + dj)];
                }
                b[at(i, j)] = acc;
            }
        }
        for j in 2..m as i64 - 2 {
            for i in 2..n as i64 - 2 {
                a[at(i, j)] = b[at(i, j)];
            }
        }
    }
    a
}

#[test]
fn all_backends_agree_on_random_stencils() {
    check_cases(48, |rng| {
        let spec = random_spec(rng);
        let prog = build(&spec);
        let expect = reference(&spec);
        let configs: Vec<(&str, ExecConfig)> = vec![
            ("unopt", ExecConfig::sm_unopt(spec.nprocs)),
            ("unopt-1cpu", ExecConfig::sm_unopt(spec.nprocs).single_cpu()),
            (
                "base",
                ExecConfig::sm_opt(spec.nprocs).with_opt(OptLevel::base()),
            ),
            ("full", ExecConfig::sm_opt(spec.nprocs)),
            (
                "pre",
                ExecConfig::sm_opt(spec.nprocs).with_opt(OptLevel::full_pre()),
            ),
            ("mp", ExecConfig::mp(spec.nprocs)),
        ];
        for (name, mut cfg) in configs {
            cfg.cost.block_bytes = spec.block_bytes;
            let r = execute(&prog, &cfg);
            let got = r.array(&prog, A);
            for (idx, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    g.to_bits() == e.to_bits(),
                    "{name} {spec:?}: element {idx}: {g} != {e}"
                );
            }
        }
    });
}

/// Access-set soundness: for every node, the resolved read section is
/// exactly the disjoint union of its owned part and its incoming
/// transfers — nothing is lost, nothing is double-counted.
#[test]
fn non_owner_sets_partition_read_sections() {
    check_cases(64, |rng| {
        let spec = random_spec(rng);
        let prog = build(&spec);
        let loops = prog.par_loops();
        let sweep = loops.iter().find(|l| l.name == "stencil").unwrap();
        let env = fgdsm_section::Env::new();
        let acc = fgdsm_hpf::analysis::analyze(&prog, sweep, &env, spec.nprocs);
        let decl = prog.array(A);
        for p in 0..spec.nprocs {
            // Union of this node's read sections of `a` (by elements).
            let mut read_elems = std::collections::HashSet::new();
            for (ri, r) in sweep.refs.iter().enumerate() {
                if r.array == A && r.mode == fgdsm_hpf::RefMode::Read {
                    for pt in acc.sections[p][ri].points() {
                        read_elems.insert(pt);
                    }
                }
            }
            let owned = decl.owner_section(p, spec.nprocs);
            let owned_part: std::collections::HashSet<_> = read_elems
                .iter()
                .filter(|pt| owned.contains(pt))
                .cloned()
                .collect();
            // Transfers from *different* stencil references may overlap
            // (they are coalesced at block level by the executor); the
            // union, not disjointness, is the invariant.
            let mut transferred = std::collections::HashSet::new();
            for t in acc
                .read_transfers
                .iter()
                .filter(|t| t.user == p && t.array == A.0)
            {
                for pt in t.section.points() {
                    assert!(!owned.contains(&pt), "owned element transferred");
                    assert!(
                        decl.owner_of(pt[1], spec.nprocs) == t.owner,
                        "transfer attributed to the wrong owner"
                    );
                    transferred.insert(pt);
                }
            }
            // owned ∪ transferred == read set.
            let mut covered = owned_part;
            covered.extend(transferred);
            assert_eq!(covered, read_elems);
        }
    });
}
