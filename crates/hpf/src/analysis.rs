//! Access-set analysis (§4.1).
//!
//! For each distributed array referenced in a parallel loop, compute per
//! processor the *non-owner-read* and *non-owner-write* sets — "the set
//! difference of the array sections that a processor reads or writes and
//! the array sections it owns" — and split them by owning processor into
//! point-to-point transfers.
//!
//! The symbolic half (building descriptors parametric in loop symbolics)
//! lives in the IR; this module is the run-time half, the analogue of
//! invoking Omega's generated code "with the values of symbolic variables
//! to obtain the bounds of the corresponding access sets". It runs once
//! per loop execution — every superstep for a loop symbolic in a
//! time-loop variable, like `lu`'s in `k` — so it keeps sections inline,
//! computes owner ranges once per (array, node), splits non-owner sets on
//! the distributed dimension alone, and (`analyze_into`) refills the
//! previous instance's result in place instead of allocating a new one.

use crate::dist::Dist;
use crate::ir::{ARef, CompDist, ParLoop, Program, RefMode};
use fgdsm_section::{Env, Range, Section};

/// One point-to-point transfer obligation: `user` accesses `section` of
/// `array`, which `owner` owns.
#[derive(Clone, Debug, PartialEq)]
pub struct Transfer {
    pub array: usize,
    pub owner: usize,
    pub user: usize,
    pub section: Section,
    /// True if the originating reference has an indirect subscript: the
    /// section is then a conservative over-approximation and the transfer
    /// must not be taken under compiler control.
    pub indirect: bool,
}

/// The resolved access structure of one parallel loop execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopAccess {
    /// Per node: concrete iteration ranges (empty range ⇒ node idle).
    pub iters: Vec<Vec<Range>>,
    /// Per node, per ref: the resolved array section it touches.
    pub sections: Vec<Vec<Section>>,
    /// Non-owner reads, split by owner (the producer→consumer transfers
    /// the compiler takes under explicit control).
    pub read_transfers: Vec<Transfer>,
    /// Non-owner writes, split by owner (flushed back after the loop).
    pub write_transfers: Vec<Transfer>,
    /// Per (array, node): the owner range the split used, kept with the
    /// result so that evaluating it again allocates nothing.
    owned: Vec<Range>,
}

/// Resolve the iteration partition of `l` for node `p` into `out`,
/// refilled in place.
fn partition_into(
    prog: &Program,
    l: &ParLoop,
    env: &Env,
    p: usize,
    nprocs: usize,
    out: &mut Vec<Range>,
) {
    out.clear();
    out.extend(l.iter.iter().map(|sr| sr.eval(env)));
    match &l.dist {
        CompDist::Owner(aid) => {
            let (d, c) = prog
                .find_partition_var(l, *aid)
                .expect("validated at build time");
            let own = prog.array(*aid).owner_range(p, nprocs);
            // Iterations whose target element falls in the owner range:
            // var + c ∈ own  ⇔  var ∈ own − c.
            let shifted = if own.is_empty() {
                Range::empty()
            } else {
                Range::strided(own.lo - c, own.hi - c, own.stride)
            };
            out[d] = out[d].intersect(&shifted).unwrap_or(Range::empty());
        }
        CompDist::BlockDim(d) => {
            let d = *d;
            let r = out[d];
            let n = r.count() as i64;
            let chunk = (n + nprocs as i64 - 1) / nprocs.max(1) as i64;
            let lo = r.lo + p as i64 * chunk;
            let hi = (r.lo + (p as i64 + 1) * chunk - 1).min(r.hi);
            out[d] = if lo > hi || n == 0 {
                Range::empty()
            } else {
                Range::new(lo, hi)
            };
        }
        CompDist::OwnerOfIndex(aid, expr) => {
            let j = expr.eval(env);
            let decl = prog.array(*aid);
            let mine = j >= 0 && (j as usize) < decl.dist_extent() && decl.owner_of(j, nprocs) == p;
            if !mine {
                out.fill(Range::empty());
            }
        }
    }
}

/// Clip a resolved reference range to the array bounds (stencil offsets
/// step outside at the domain edge; HPF codes guard those accesses, so
/// the analysis clips rather than faults).
fn clip_to_extent(r: Range, extent: usize) -> Range {
    match r.is_empty() {
        true => r,
        false => r
            .intersect(&Range::new(0, extent as i64 - 1))
            .unwrap_or(Range::empty()),
    }
}

/// Push `t` unless its user's block of `list` (transfers are produced
/// user by user, so each user's are contiguous from `from`) already holds
/// an equal one — two references to the same ghost section in one loop
/// need only one transfer. The first occurrence keeps its place.
fn push_distinct(list: &mut Vec<Transfer>, from: usize, t: Transfer) {
    if !list[from..].contains(&t) {
        list.push(t);
    }
}

/// Analyze one execution of a parallel loop under `env`.
pub fn analyze(prog: &Program, l: &ParLoop, env: &Env, nprocs: usize) -> LoopAccess {
    let mut acc = LoopAccess::default();
    analyze_into(prog, l, env, nprocs, &mut acc);
    acc
}

/// [`analyze`] into `acc`, refilled in place: a symbolic loop evaluates
/// its one `LoopAccess` again at every instance — §4.1's generated code
/// run with the new symbolic values — and every vector in it keeps its
/// storage, so once warm an instance allocates nothing here.
pub(crate) fn analyze_into(
    prog: &Program,
    l: &ParLoop,
    env: &Env,
    nprocs: usize,
    acc: &mut LoopAccess,
) {
    let LoopAccess {
        iters,
        sections,
        read_transfers,
        write_transfers,
        owned,
    } = acc;
    iters.resize_with(nprocs, Vec::new);
    sections.resize_with(nprocs, Vec::new);
    for (p, (iter, secs)) in iters.iter_mut().zip(sections.iter_mut()).enumerate() {
        partition_into(prog, l, env, p, nprocs, iter);
        let idle = iter.iter().any(Range::is_empty);
        let section = |r: &ARef| -> Section {
            let extents = &prog.array(r.array).extents;
            let subs = r.subs.iter().zip(extents);
            match idle {
                true => subs.map(|_| Range::empty()).collect(),
                false => subs
                    .map(|(s, &e)| clip_to_extent(s.resolve(iter, env, e), e))
                    .collect(),
            }
        };
        secs.clear();
        secs.extend(l.refs.iter().map(section));
    }
    // Non-owner sets, split by owner. An owner section spans every
    // dimension but the distributed last one whole, and a resolved
    // section lies inside its array, so `section − owned(p)` and its
    // split by owner act on the last dimension alone — what
    // `Section::{subtract, intersect}` would return, piece for piece
    // (`tests/inspector.rs::analysis_matches_the_section_algebra`), at
    // about half their cost on `lu`. Owner ranges: once per (array, node).
    owned.clear();
    for a in &prog.arrays {
        owned.extend((0..nprocs).map(|q| a.owner_range(q, nprocs)));
    }
    read_transfers.clear();
    write_transfers.clear();
    for (p, secs) in sections.iter().enumerate() {
        let (reads_from, writes_from) = (read_transfers.len(), write_transfers.len());
        for (r, sec) in l.refs.iter().zip(secs) {
            if prog.array(r.array).dist == Dist::Replicated || sec.is_empty() {
                continue;
            }
            let owners = &owned[r.array.0 * nprocs..][..nprocs];
            let last = sec.ndims() - 1;
            for piece in &sec.dims()[last].subtract(&owners[p]) {
                for (q, own) in owners.iter().enumerate().filter(|&(q, _)| q != p) {
                    let Some(cols) = piece.intersect(own) else {
                        continue;
                    };
                    let mut section = *sec;
                    section.dims_mut()[last] = cols;
                    let t = Transfer {
                        array: r.array.0,
                        owner: q,
                        user: p,
                        section,
                        indirect: r.is_indirect(),
                    };
                    match r.mode {
                        RefMode::Read => push_distinct(read_transfers, reads_from, t),
                        RefMode::Write => push_distinct(write_transfers, writes_from, t),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use crate::ir::{ARef, Kernel, KernelCtx, ParLoop, Program, Stmt, Subscript};
    use fgdsm_section::{Affine, SymRange, Var};

    fn nk(_: &mut KernelCtx) {}

    fn partition(prog: &Program, l: &ParLoop, env: &Env, p: usize, nprocs: usize) -> Vec<Range> {
        let mut out = Vec::new();
        partition_into(prog, l, env, p, nprocs, &mut out);
        out
    }

    /// A jacobi-like program: b(i,j) = stencil of a(i,j±1), a,b 16x64 BLOCK.
    fn stencil_prog() -> Program {
        let mut b = Program::builder();
        let a = b.array("a", &[16, 64], Dist::Block);
        let bb = b.array("b", &[16, 64], Dist::Block);
        b.stmt(Stmt::Par(ParLoop {
            name: "sweep",
            iter: vec![SymRange::new(1, 14), SymRange::new(1, 62)],
            dist: CompDist::Owner(bb),
            refs: vec![
                ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, -1)]),
                ARef::read(a, vec![Subscript::loop_var(0), Subscript::Loop(1, 1)]),
                ARef::read(a, vec![Subscript::Loop(0, -1), Subscript::loop_var(1)]),
                ARef::read(a, vec![Subscript::Loop(0, 1), Subscript::loop_var(1)]),
                ARef::write(bb, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
            ],
            kernel: Kernel::new(nk),
            cost_per_iter_ns: 100,
            reduction: None,
        }));
        b.build()
    }

    #[test]
    fn stencil_partition_owner_computes() {
        let p = stencil_prog();
        let l = &p.par_loops()[0].clone();
        let env = Env::new();
        // 64 cols / 4 procs = 16 each; iter dim1 clipped to 1..62.
        let it0 = partition(&p, l, &env, 0, 4);
        assert_eq!(it0[1], Range::new(1, 15));
        let it3 = partition(&p, l, &env, 3, 4);
        assert_eq!(it3[1], Range::new(48, 62));
        let it1 = partition(&p, l, &env, 1, 4);
        assert_eq!(it1[1], Range::new(16, 31));
    }

    #[test]
    fn stencil_ghost_columns_found() {
        let p = stencil_prog();
        let l = &p.par_loops()[0].clone();
        let acc = analyze(&p, l, &Env::new(), 4);
        // Node 1 (cols 16..31) reads ghost col 15 from node 0 and col 32
        // from node 2.
        let mine: Vec<_> = acc.read_transfers.iter().filter(|t| t.user == 1).collect();
        assert_eq!(mine.len(), 2);
        let from0 = mine.iter().find(|t| t.owner == 0).unwrap();
        assert_eq!(from0.section.dims()[1], Range::new(15, 15));
        assert_eq!(from0.section.dims()[0], Range::new(1, 14));
        let from2 = mine.iter().find(|t| t.owner == 2).unwrap();
        assert_eq!(from2.section.dims()[1], Range::new(32, 32));
        // No non-owner writes in owner-computes stencil.
        assert!(acc.write_transfers.is_empty());
        // Edge nodes have only one ghost.
        assert_eq!(acc.read_transfers.iter().filter(|t| t.user == 0).count(), 1);
    }

    #[test]
    fn idle_nodes_get_empty_sections() {
        let p = stencil_prog();
        let l = &p.par_loops()[0].clone();
        // 64 cols over 40 procs: chunk=2, nodes 32.. are idle.
        let acc = analyze(&p, l, &Env::new(), 40);
        assert!(acc.iters[39][1].is_empty());
        assert!(acc.sections[39].iter().all(Section::is_empty));
    }

    /// An lu-like broadcast: all nodes read column k of a CYCLIC array.
    fn lu_prog() -> Program {
        let k = Var("k");
        let mut b = Program::builder();
        let a = b.array("a", &[64, 64], Dist::Cyclic);
        b.stmt(Stmt::Time {
            var: k,
            count: 63,
            body: vec![Stmt::Par(ParLoop {
                name: "update",
                iter: vec![
                    SymRange::new(Affine::var(k).plus_const(1), 63), // rows i>k
                    SymRange::new(Affine::var(k).plus_const(1), 63), // cols j>k
                ],
                dist: CompDist::Owner(a),
                refs: vec![
                    // pivot column a(k+1:63, k): read by every node
                    ARef::read(
                        a,
                        vec![
                            Subscript::Span(SymRange::new(Affine::var(k).plus_const(1), 63)),
                            Subscript::At(Affine::var(k)),
                        ],
                    ),
                    ARef::read(a, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
                    ARef::write(a, vec![Subscript::loop_var(0), Subscript::loop_var(1)]),
                ],
                kernel: Kernel::new(nk),
                cost_per_iter_ns: 120,
                reduction: None,
            })],
        });
        b.build()
    }

    #[test]
    fn lu_pivot_column_broadcast() {
        let p = lu_prog();
        let l = &p.par_loops()[0].clone();
        let env = Env::new().bind(Var("k"), 8);
        let acc = analyze(&p, l, &env, 4);
        // Column 8 is owned by node 0 (8 mod 4); nodes 1..3 receive it.
        let pivot: Vec<_> = acc
            .read_transfers
            .iter()
            .filter(|t| t.section.dims()[1] == Range::new(8, 8))
            .collect();
        let users: std::collections::BTreeSet<_> = pivot.iter().map(|t| t.user).collect();
        assert_eq!(users, [1, 2, 3].into_iter().collect());
        assert!(pivot.iter().all(|t| t.owner == 0));
        // Rows k+1..63 only.
        assert!(pivot
            .iter()
            .all(|t| t.section.dims()[0] == Range::new(9, 63)));
        // The update's own-column reads/writes generate no transfers.
        assert!(acc.write_transfers.is_empty());
    }

    #[test]
    fn lu_partition_is_cyclic_strided() {
        let p = lu_prog();
        let l = &p.par_loops()[0].clone();
        let env = Env::new().bind(Var("k"), 8);
        // Node 1 owns columns 1,5,9,... intersected with 9..63 → 9,13,...
        let it = partition(&p, l, &env, 1, 4);
        assert_eq!(it[1], Range::strided(9, 61, 4));
        // Node 0: 12,16,...,60
        let it0 = partition(&p, l, &env, 0, 4);
        assert_eq!(it0[1], Range::strided(12, 60, 4));
    }

    #[test]
    fn clip_stops_stencil_overhang() {
        // A reference i-1 over iter 0..14 would reach -1: clipped.
        let p = stencil_prog();
        let l = p.par_loops()[0].clone();
        let mut l2 = l.clone();
        l2.iter[0] = SymRange::new(0, 15);
        let acc = analyze(&p, &l2, &Env::new(), 4);
        for secs in &acc.sections {
            for s in secs {
                if !s.is_empty() {
                    assert!(s.dims()[0].lo >= 0);
                    assert!(s.dims()[0].hi <= 15);
                }
            }
        }
    }
}
