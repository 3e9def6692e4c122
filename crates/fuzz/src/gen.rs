//! The seeded mini-HPF program generator and its plain-data model.
//!
//! A [`FuzzSpec`] is the *entire* description of a fuzz case: the
//! program structure (arrays, loops, reads, reductions, time nesting)
//! plus the injection knobs. Programs are rebuilt from the spec on
//! demand ([`FuzzSpec::build`]), which is what makes shrinking and
//! replay exact: the shrinker mutates the spec, never the program, and
//! [`FuzzSpec::to_rust`] renders the spec as a standalone reproducer.
//!
//! ## The language subset and its safety rules
//!
//! Generated programs stay inside the fragment where the sequential
//! reference interpreter and the BSP backends provably agree:
//!
//! * every loop writes exactly one array, at the identity subscript, so
//!   each element has a unique writer;
//! * a loop reads the array it writes only at the identity subscript
//!   (`self_read`) — cross-element reads of the written array would make
//!   results depend on node execution order;
//! * stencil reads (offsets up to ±2) target arrays *not* written by the
//!   same loop, and iteration bounds leave a 2-element margin;
//! * indirect gathers `x(idx(i))` read 1-D arrays not written in the
//!   loop, through an index array aligned with the loop partition (so
//!   the engine's inspector reads owner-local, current index values);
//! * a loop may be partitioned by a *different* array (`dist_by`) —
//!   when the two distributions disagree this produces genuine
//!   non-owner writes, the paper's `flush_range` path.

use fgdsm_hpf::{
    ARef, ArrayId, CompDist, Dist, InjectConfig, Kernel, KernelCtx, ParLoop, Program, ReduceSpec,
    Stmt, Subscript,
};
use fgdsm_protocol::Fault;
use fgdsm_section::{Affine, SymRange, Var};
use fgdsm_tempest::{CostModel, ReduceOp};
use fgdsm_testkit::Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The sequential time-loop variable every generated program uses.
pub(crate) const TVAR: Var = Var("t");

/// Static name pools (IR names are `&'static str`).
const ANAMES: [&str; 8] = ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"];
const INAMES: [&str; 8] = [
    "init0", "init1", "init2", "init3", "init4", "init5", "init6", "init7",
];
const LNAMES: [&str; 12] = [
    "l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9", "l10", "l11",
];

/// One distributed array of the generated program. All 1-D arrays share
/// the extent [`FuzzSpec::n1`]; all 2-D arrays share [`FuzzSpec::n2`]
/// (last dimension distributed, BLOCK or CYCLIC).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArraySpec {
    pub rank2: bool,
    pub cyclic: bool,
    /// `Some(target)`: this is a 1-D index array whose init loop fills it
    /// with valid element indices of `target` (for `x(idx(i))` gathers).
    pub index_for: Option<usize>,
}

/// One read reference of a compute loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadSpec {
    /// Array read (never the loop's write array).
    pub array: usize,
    /// Per-dimension constant offsets (`off[1]` unused for 1-D reads).
    pub off: [i64; 2],
    /// `Some(idx)`: indirect gather `array(idx(i))` through index array
    /// `idx` instead of an affine subscript (1-D loops only).
    pub via: Option<usize>,
}

/// One INDEPENDENT compute loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopSpec {
    /// Array written (identity subscript).
    pub write: usize,
    /// `Some(x)`: partition iterations by `x`'s owners instead of the
    /// written array's (an identity read of `x` is added). When `x`'s
    /// distribution differs from the written array's this produces
    /// non-owner writes.
    pub dist_by: Option<usize>,
    /// Also read the written array at the identity subscript.
    pub self_read: bool,
    pub reads: Vec<ReadSpec>,
    /// Reduce every written value into the scalar `acc`:
    /// 0 = Sum, 1 = Max, 2 = Min.
    pub reduce: Option<u8>,
    /// Mix the time-loop variable into written values (loops inside the
    /// time span only).
    pub use_t: bool,
    /// Mix the current value of the scalar `acc` into written values.
    pub use_acc: bool,
    /// Sweep: iterate the last dimension over the single index `2 + t`
    /// instead of the whole interior — a *symbolic* loop whose sections
    /// move every time step, like `lu`'s in `k`. Honoured inside the time
    /// span only, whose count must keep `2 + t` in the interior. The
    /// generator never draws it (the corpus is all static loops); the
    /// `stale_resolve_schedule` must-catch victim is hand-built with it.
    pub sweep_t: bool,
}

/// One statement of the generated body (the per-array init loops are
/// implicit and always precede the body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FStmt {
    Loop(LoopSpec),
    /// Replicated scalar statement on `acc`: 0 ⇒ `acc*0.5 + 1`,
    /// 1 ⇒ `1 - acc`.
    Scalar(u8),
}

/// A complete fuzz case: program model plus injection knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Seed this spec was generated from (reporting only).
    pub seed: u64,
    pub nprocs: usize,
    /// Extent of every 1-D array (≥ `n2[0] + 2` so 1-D reads inside 2-D
    /// loops stay in bounds).
    pub n1: usize,
    /// Extents of every 2-D array.
    pub n2: [usize; 2],
    pub arrays: Vec<ArraySpec>,
    pub body: Vec<FStmt>,
    /// `Some((lo, hi, count))`: wrap `body[lo..hi]` in a sequential time
    /// loop of `count` steps.
    pub time: Option<(usize, usize, i64)>,
    pub inject: InjectConfig,
}

fn sc_damp(s: &BTreeMap<&'static str, f64>) -> f64 {
    s["acc"] * 0.5 + 1.0
}

fn sc_flip(s: &BTreeMap<&'static str, f64>) -> f64 {
    1.0 - s["acc"]
}

impl FuzzSpec {
    fn ext(&self, a: usize) -> Vec<usize> {
        if self.arrays[a].rank2 {
            vec![self.n2[0], self.n2[1]]
        } else {
            vec![self.n1]
        }
    }

    fn dist(&self, a: usize) -> Dist {
        if self.arrays[a].cyclic {
            Dist::Cyclic
        } else {
            Dist::Block
        }
    }

    /// True if any loop's partition array is distributed differently
    /// from its written array — such loops perform non-owner writes,
    /// which the (owner-computes, flush-free) `mp` backend does not
    /// support; the oracle excludes it for these specs.
    pub fn has_nonowner_writes(&self) -> bool {
        self.body.iter().any(|s| match s {
            FStmt::Loop(l) => l
                .dist_by
                .is_some_and(|x| self.arrays[x].cyclic != self.arrays[l.write].cyclic),
            FStmt::Scalar(_) => false,
        })
    }

    /// Build the runnable program: per-array init loops, then the body
    /// (with the optional time-loop wrap).
    pub fn build(&self) -> Program {
        let mut b = Program::builder();
        #[allow(clippy::needless_range_loop)] // ai is an ArrayId, not a slice index
        for ai in 0..self.arrays.len() {
            let id = b.array(ANAMES[ai], &self.ext(ai), self.dist(ai));
            assert_eq!(id.0, ai);
        }
        b.scalar("acc", 1.0);
        // Init loops: owners fill their own partition with a value that
        // depends on the element position and the array ordinal (index
        // arrays get valid indices of their 1-D gather target instead).
        for (ai, a) in self.arrays.iter().cloned().enumerate() {
            let iter: Vec<SymRange> = self
                .ext(ai)
                .iter()
                .map(|&e| SymRange::new(0, e as i64 - 1))
                .collect();
            let rank2 = a.rank2;
            let n1 = self.n1 as i64;
            let subs: Vec<Subscript> = (0..iter.len()).map(Subscript::loop_var).collect();
            let kernel = Kernel::new(move |ctx: &mut KernelCtx| {
                let h = ctx.h(ArrayId(ai));
                if rank2 {
                    for j in ctx.iter[1].iter() {
                        for i in ctx.iter[0].iter() {
                            ctx.mem[h.at2(i, j)] =
                                ((i * 7 + j * 13 + ai as i64 * 29) % 23) as f64 * 0.5 - 5.0;
                        }
                    }
                } else {
                    for i in ctx.iter[0].iter() {
                        ctx.mem[h.at1(i)] = if a.index_for.is_some() {
                            // Valid index of the (1-D, extent n1) target.
                            ((i * (ai as i64 % 4 + 1) + ai as i64) % n1) as f64
                        } else {
                            ((i * 7 + ai as i64 * 29) % 23) as f64 * 0.5 - 5.0
                        };
                    }
                }
            });
            b.stmt(Stmt::Par(ParLoop {
                name: INAMES[ai],
                iter,
                dist: CompDist::Owner(ArrayId(ai)),
                refs: vec![ARef::write(ArrayId(ai), subs)],
                kernel,
                cost_per_iter_ns: 20,
                reduction: None,
            }));
        }
        // Body.
        let mut stmts: Vec<Stmt> = Vec::new();
        for (si, fs) in self.body.iter().enumerate() {
            match fs {
                FStmt::Scalar(0) => stmts.push(Stmt::Scalar {
                    name: "acc",
                    f: sc_damp,
                }),
                FStmt::Scalar(_) => stmts.push(Stmt::Scalar {
                    name: "acc",
                    f: sc_flip,
                }),
                FStmt::Loop(l) => stmts.push(self.build_loop(si, l)),
            }
        }
        if let Some((lo, hi, count)) = self.time {
            let tail = stmts.split_off(hi);
            let body = stmts.split_off(lo);
            stmts.push(Stmt::Time {
                var: TVAR,
                count,
                body,
            });
            stmts.extend(tail);
        }
        for s in stmts {
            b.stmt(s);
        }
        b.build()
    }

    fn build_loop(&self, si: usize, l: &LoopSpec) -> Stmt {
        let rank2 = self.arrays[l.write].rank2;
        let exts = self.ext(l.write);
        let mut iter: Vec<SymRange> = exts
            .iter()
            .map(|&e| SymRange::new(2, e as i64 - 3))
            .collect();
        let steps = match self.time {
            Some((lo, hi, count)) if (lo..hi).contains(&si) => count,
            _ => 0,
        };
        if l.sweep_t && steps > 0 {
            let last = exts.len() - 1;
            assert!(
                steps < exts[last] as i64 - 3,
                "sweep_t: 2 + t leaves the interior within {steps} time steps"
            );
            let at = Affine::var(TVAR).plus_const(2);
            iter[last] = SymRange::new(at.clone(), at);
        }
        let identity: Vec<Subscript> = (0..exts.len()).map(Subscript::loop_var).collect();
        let mut refs = vec![ARef::write(ArrayId(l.write), identity.clone())];
        if l.self_read {
            refs.push(ARef::read(ArrayId(l.write), identity.clone()));
        }
        if let Some(x) = l.dist_by {
            let xsubs: Vec<Subscript> = (0..self.ext(x).len()).map(Subscript::loop_var).collect();
            refs.push(ARef::read(ArrayId(x), xsubs));
        }
        for r in &l.reads {
            if let Some(ia) = r.via {
                refs.push(ARef::read(ArrayId(ia), vec![Subscript::loop_var(0)]));
                refs.push(ARef::read(
                    ArrayId(r.array),
                    vec![Subscript::Indirect(ArrayId(ia), 0)],
                ));
            } else if self.arrays[r.array].rank2 {
                refs.push(ARef::read(
                    ArrayId(r.array),
                    vec![Subscript::Loop(0, r.off[0]), Subscript::Loop(1, r.off[1])],
                ));
            } else {
                refs.push(ARef::read(
                    ArrayId(r.array),
                    vec![Subscript::Loop(0, r.off[0])],
                ));
            }
        }
        let dist = CompDist::Owner(ArrayId(l.dist_by.unwrap_or(l.write)));
        let reduction = l.reduce.map(|op| ReduceSpec {
            op: match op {
                0 => ReduceOp::Sum,
                1 => ReduceOp::Max,
                _ => ReduceOp::Min,
            },
            target: "acc",
        });
        let spec = l.clone();
        let rank2s: Vec<bool> = self.arrays.iter().map(|a| a.rank2).collect();
        let lid = si as f64;
        let reduce = l.reduce;
        let kernel = Kernel::new(move |ctx: &mut KernelCtx| {
            let w = ctx.h(ArrayId(spec.write));
            let xh = spec.dist_by.map(|x| ctx.h(ArrayId(x)));
            let rhs: Vec<_> = spec.reads.iter().map(|r| ctx.h(ArrayId(r.array))).collect();
            let vhs: Vec<_> = spec
                .reads
                .iter()
                .map(|r| r.via.map(|ia| ctx.h(ArrayId(ia))))
                .collect();
            let t = if spec.use_t {
                ctx.sym(TVAR) as f64
            } else {
                0.0
            };
            let acc = if spec.use_acc { ctx.scalar("acc") } else { 0.0 };
            let base = 0.25 * (lid + 1.0) + 0.5 * t + 0.001 * acc;
            let fold = |partial: &mut f64, v: f64| match reduce {
                Some(0) => *partial += v,
                Some(1) => *partial = partial.max(v),
                Some(2) => *partial = partial.min(v),
                _ => {}
            };
            if rank2 {
                for j in ctx.iter[1].iter() {
                    for i in ctx.iter[0].iter() {
                        let mut v = base + 0.0625 * i as f64 + 0.03125 * j as f64;
                        if spec.self_read {
                            v += 0.5 * ctx.mem[w.at2(i, j)];
                        }
                        if let Some(x) = xh {
                            v += 0.25 * ctx.mem[x.at2(i, j)];
                        }
                        for (k, r) in spec.reads.iter().enumerate() {
                            let rv = if rank2s[r.array] {
                                ctx.mem[rhs[k].at2(i + r.off[0], j + r.off[1])]
                            } else {
                                ctx.mem[rhs[k].at1(i + r.off[0])]
                            };
                            v += rv / (k as f64 + 2.0);
                        }
                        ctx.mem[w.at2(i, j)] = v;
                        fold(&mut ctx.partial, v);
                    }
                }
            } else {
                for i in ctx.iter[0].iter() {
                    let mut v = base + 0.0625 * i as f64;
                    if spec.self_read {
                        v += 0.5 * ctx.mem[w.at1(i)];
                    }
                    if let Some(x) = xh {
                        v += 0.25 * ctx.mem[x.at1(i)];
                    }
                    for (k, r) in spec.reads.iter().enumerate() {
                        let rv = if let Some(ih) = vhs[k] {
                            let jx = ctx.mem[ih.at1(i)] as i64;
                            ctx.mem[rhs[k].at1(jx)]
                        } else {
                            ctx.mem[rhs[k].at1(i + r.off[0])]
                        };
                        v += rv / (k as f64 + 2.0);
                    }
                    ctx.mem[w.at1(i)] = v;
                    fold(&mut ctx.partial, v);
                }
            }
        });
        Stmt::Par(ParLoop {
            name: LNAMES[si],
            iter,
            dist,
            refs,
            kernel,
            cost_per_iter_ns: 30,
            reduction,
        })
    }

    /// Render this spec as a standalone Rust reproducer (a test that
    /// rebuilds the exact spec and reruns the oracle).
    pub fn to_rust(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "// Reproducer for fgdsm-fuzz seed {:#x}.", self.seed);
        let _ = writeln!(
            s,
            "// Drop into crates/fuzz/tests/ and run: cargo test -p fgdsm-fuzz repro"
        );
        let _ = writeln!(s, "use fgdsm_fuzz::*;");
        let _ = writeln!(s, "use fgdsm_hpf::InjectConfig;");
        let _ = writeln!(s);
        let _ = writeln!(s, "#[test]");
        let _ = writeln!(s, "fn repro() {{");
        let _ = writeln!(s, "    let spec = FuzzSpec {{");
        let _ = writeln!(s, "        seed: {:#x},", self.seed);
        let _ = writeln!(s, "        nprocs: {},", self.nprocs);
        let _ = writeln!(s, "        n1: {},", self.n1);
        let _ = writeln!(s, "        n2: [{}, {}],", self.n2[0], self.n2[1]);
        let _ = writeln!(s, "        arrays: vec![");
        for a in &self.arrays {
            let _ = writeln!(
                s,
                "            ArraySpec {{ rank2: {}, cyclic: {}, index_for: {:?} }},",
                a.rank2, a.cyclic, a.index_for
            );
        }
        let _ = writeln!(s, "        ],");
        let _ = writeln!(s, "        body: vec![");
        for fs in &self.body {
            match fs {
                FStmt::Scalar(k) => {
                    let _ = writeln!(s, "            FStmt::Scalar({k}),");
                }
                FStmt::Loop(l) => {
                    let _ = writeln!(s, "            FStmt::Loop(LoopSpec {{");
                    let _ = writeln!(s, "                write: {},", l.write);
                    let _ = writeln!(s, "                dist_by: {:?},", l.dist_by);
                    let _ = writeln!(s, "                self_read: {},", l.self_read);
                    let _ = writeln!(s, "                reads: vec![");
                    for r in &l.reads {
                        let _ = writeln!(
                            s,
                            "                    ReadSpec {{ array: {}, off: [{}, {}], via: {:?} }},",
                            r.array, r.off[0], r.off[1], r.via
                        );
                    }
                    let _ = writeln!(s, "                ],");
                    let _ = writeln!(s, "                reduce: {:?},", l.reduce);
                    let _ = writeln!(s, "                use_t: {},", l.use_t);
                    let _ = writeln!(s, "                use_acc: {},", l.use_acc);
                    let _ = writeln!(s, "                sweep_t: {},", l.sweep_t);
                    let _ = writeln!(s, "            }}),");
                }
            }
        }
        let _ = writeln!(s, "        ],");
        let _ = writeln!(s, "        time: {:?},", self.time);
        let i = &self.inject;
        let armed = Fault::ALL.into_iter().filter(|&f| i.faults.has(f));
        let faults: String = armed.map(|f| format!(".with(Fault::{f:?})")).collect();
        let node = match i.node_fault {
            Some((n, f)) => format!("Some(({n}, NodeFault::{f:?}))"),
            None => "None".into(),
        };
        let _ = writeln!(s, "        inject: InjectConfig {{");
        let _ = writeln!(s, "            shuffle_resolve: {:?},", i.shuffle_resolve);
        let _ = writeln!(s, "            clear_iw_memo: {},", i.clear_iw_memo);
        let _ = writeln!(s, "            force_boundary: {},", i.force_boundary);
        let _ = writeln!(s, "            faults: Faults::default(){faults},");
        let _ = writeln!(s, "            node_fault: {node},");
        let _ = writeln!(s, "        }},");
        let _ = writeln!(s, "    }};");
        let _ = writeln!(s, "    check_spec(&spec).unwrap();");
        let _ = writeln!(s, "}}");
        s
    }
}

/// [`gen_spec`]'s spec of `seed` with a page (of the cost model every
/// oracle configuration uses) per distributed unit: a 2-D
/// array's column is one page, so a node's BLOCK chunk and its CYCLIC
/// columns are whole pages it alone owns and is home to, and a 1-D
/// BLOCK array gives each node one page (a 1-D CYCLIC one interleaves
/// owners word by word, as everywhere). [`gen_spec`]'s arrays fit in one
/// page, so its corpus never has a home lose and win back blocks of
/// pages of its own; this slice does. A separate entry point, so the
/// corpus's seeds keep their specs.
pub fn gen_spec_paged(rng: &mut Rng, seed: u64) -> FuzzSpec {
    let mut spec = gen_spec(rng, seed);
    let page = CostModel::paper_dual_cpu().words_per_page();
    spec.n2[0] = page;
    spec.n1 = page * spec.nprocs;
    spec
}

/// Generate a random spec from `rng` (seeded with `seed`, which is also
/// recorded in the spec for replay reporting).
pub fn gen_spec(rng: &mut Rng, seed: u64) -> FuzzSpec {
    let nprocs = rng.range(2, 5);
    // Half the corpus uses extents large enough that per-node sections
    // span whole cache blocks (128 B = 16 words by default), exercising
    // the compiler-controlled `send_range`/`flush_range` path; the other
    // half stays small, exercising the boundary/default-protocol path.
    let (n2, n1) = if rng.flag() {
        let n2 = [rng.range(24, 49), rng.range(6, 11)];
        (n2, rng.range(n2[0] + 2, 80))
    } else {
        let n2 = [rng.range(6, 13), rng.range(6, 13)];
        (n2, rng.range(n2[0] + 2, 33))
    };

    // Data arrays (2–5), then possibly one index array.
    let n_data = rng.range(2, 6);
    let mut arrays: Vec<ArraySpec> = (0..n_data)
        .map(|_| ArraySpec {
            rank2: rng.flag(),
            cyclic: rng.below(3) == 0,
            index_for: None,
        })
        .collect();
    let one_d: Vec<usize> = (0..n_data).filter(|&i| !arrays[i].rank2).collect();
    if one_d.len() >= 2 && rng.below(10) < 3 {
        let target = rng.choice(&one_d);
        arrays.push(ArraySpec {
            rank2: false,
            cyclic: rng.flag(),
            index_for: Some(target),
        });
    }
    let data: Vec<usize> = (0..n_data).collect();

    // Compute loops.
    let n_loops = rng.range(1, 5);
    let mut body: Vec<FStmt> = Vec::new();
    for _ in 0..n_loops {
        let write = rng.choice(&data);
        let rank2 = arrays[write].rank2;
        // Partition by a different same-rank data array sometimes.
        let same_rank: Vec<usize> = data
            .iter()
            .copied()
            .filter(|&a| a != write && arrays[a].rank2 == rank2)
            .collect();
        let dist_by = if !same_rank.is_empty() && rng.below(10) < 2 {
            Some(rng.choice(&same_rank))
        } else {
            None
        };
        // Reads: any data array except the one being written.
        let mut reads = Vec::new();
        let gatherable: Vec<usize> = arrays
            .iter()
            .enumerate()
            .filter(|(_, a)| {
                a.index_for
                    .is_some_and(|t| t != write && arrays[write].cyclic == a.cyclic)
            })
            .map(|(i, _)| i)
            .collect();
        for _ in 0..rng.range(0, 4) {
            if !rank2 && dist_by.is_none() && !gatherable.is_empty() && rng.below(10) < 3 {
                let ia = rng.choice(&gatherable);
                reads.push(ReadSpec {
                    array: arrays[ia].index_for.unwrap(),
                    off: [0, 0],
                    via: Some(ia),
                });
                continue;
            }
            let cand: Vec<usize> = data
                .iter()
                .copied()
                .filter(|&a| a != write && (rank2 || !arrays[a].rank2))
                .collect();
            if cand.is_empty() {
                break;
            }
            let array = rng.choice(&cand);
            let off = if arrays[array].rank2 {
                [rng.range_i64(-2, 3), rng.range_i64(-2, 3)]
            } else {
                [rng.range_i64(-2, 3), 0]
            };
            reads.push(ReadSpec {
                array,
                off,
                via: None,
            });
        }
        body.push(FStmt::Loop(LoopSpec {
            write,
            dist_by,
            self_read: rng.flag(),
            reads,
            reduce: (rng.below(10) < 4).then(|| rng.below(3) as u8),
            use_t: false, // assigned below for loops inside the time span
            use_acc: rng.below(10) < 2,
            sweep_t: false,
        }));
    }
    if rng.below(10) < 3 {
        let at = rng.range(0, body.len() + 1);
        body.insert(at, FStmt::Scalar(rng.below(2) as u8));
    }

    // Time loop over a contiguous span of the body.
    let time = if rng.flag() {
        let lo = rng.range(0, body.len());
        let hi = rng.range(lo + 1, body.len() + 1);
        for fs in &mut body[lo..hi] {
            if let FStmt::Loop(l) = fs {
                l.use_t = rng.flag();
            }
        }
        Some((lo, hi, rng.range_i64(2, 4)))
    } else {
        None
    };

    FuzzSpec {
        seed,
        nprocs,
        n1,
        n2,
        arrays,
        body,
        time,
        inject: InjectConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_protocol::NodeFault;

    /// A reproducer names a node fault by its path, which the
    /// reproducer's `use fgdsm_fuzz::*;` brings in, so it compiles.
    #[test]
    fn reproducer_renders_each_node_fault_by_its_path() {
        let cases = [
            (
                NodeFault::ExitAfterBatches(3),
                "Some((1, NodeFault::ExitAfterBatches(3)))",
            ),
            (
                NodeFault::WedgeAfterBatches(0),
                "Some((1, NodeFault::WedgeAfterBatches(0)))",
            ),
        ];
        for (fault, want) in cases {
            let mut spec = gen_spec(&mut Rng::new(7), 7);
            spec.inject.node_fault = Some((1, fault));
            let line = format!("            node_fault: {want},\n");
            let repro = spec.to_rust();
            assert!(repro.contains(&line), "want {line:?} in:\n{repro}");
        }
        let repro = gen_spec(&mut Rng::new(7), 7).to_rust();
        assert!(repro.contains("            node_fault: None,\n"), "{repro}");
    }
}
