//! Greedy divergence-preserving minimizer for [`FuzzSpec`]s.
//!
//! Starting from a diverging spec, repeatedly tries simplifying edits
//! (drop a statement, drop a read, turn off a loop feature, remove an
//! unreferenced array, shrink extents / time counts / node counts) and
//! keeps any edit after which [`check_spec`] still reports a
//! divergence. Terminates when no candidate edit preserves the failure.

use crate::gen::{FStmt, FuzzSpec};
use crate::oracle::check_spec;

/// Every single-step simplification of `spec`, roughly in decreasing
/// order of payoff.
fn candidates(spec: &FuzzSpec) -> Vec<FuzzSpec> {
    let mut out = Vec::new();

    // Drop one body statement (last first), fixing up the time span.
    for i in (0..spec.body.len()).rev() {
        if spec.body.len() == 1 {
            break;
        }
        let mut s = spec.clone();
        s.body.remove(i);
        if let Some((lo, hi, count)) = s.time {
            s.time = if i < lo {
                Some((lo - 1, hi - 1, count))
            } else if i < hi && hi - 1 > lo {
                Some((lo, hi - 1, count))
            } else if i < hi {
                None
            } else {
                Some((lo, hi, count))
            };
        }
        out.push(s);
    }

    // Unwrap or shorten the time loop.
    if let Some((_, _, count)) = spec.time {
        let mut s = spec.clone();
        s.time = None;
        out.push(s);
        if count > 1 {
            let mut s = spec.clone();
            if let Some(t) = &mut s.time {
                t.2 = count - 1;
            }
            out.push(s);
        }
    }

    // Per-loop feature removal.
    for (i, st) in spec.body.iter().enumerate() {
        let FStmt::Loop(l) = st else { continue };
        for r in (0..l.reads.len()).rev() {
            let mut s = spec.clone();
            if let FStmt::Loop(sl) = &mut s.body[i] {
                sl.reads.remove(r);
            }
            out.push(s);
        }
        for (on, strip) in [
            (l.self_read, 0),
            (l.reduce.is_some(), 1),
            (l.use_acc, 2),
            (l.use_t, 3),
            (l.dist_by.is_some(), 4),
            (l.sweep_t, 5),
        ] {
            if !on {
                continue;
            }
            let mut s = spec.clone();
            if let FStmt::Loop(sl) = &mut s.body[i] {
                match strip {
                    0 => sl.self_read = false,
                    1 => sl.reduce = None,
                    2 => sl.use_acc = false,
                    3 => sl.use_t = false,
                    4 => sl.dist_by = None,
                    _ => sl.sweep_t = false,
                }
            }
            out.push(s);
        }
    }

    // Drop scalar statements covered by the generic statement drop above
    // when body.len() == 1; nothing extra needed.

    // Remove unreferenced arrays (highest index first so earlier ids
    // stay stable within one edit), remapping every array index.
    for a in (0..spec.arrays.len()).rev() {
        let referenced = spec.arrays.iter().any(|ar| ar.index_for == Some(a))
            || spec.body.iter().any(|st| match st {
                FStmt::Loop(l) => {
                    l.write == a
                        || l.dist_by == Some(a)
                        || l.reads.iter().any(|r| r.array == a || r.via == Some(a))
                }
                FStmt::Scalar(_) => false,
            });
        if referenced {
            continue;
        }
        let mut s = spec.clone();
        s.arrays.remove(a);
        let remap = |x: usize| if x > a { x - 1 } else { x };
        for ar in &mut s.arrays {
            ar.index_for = ar.index_for.map(remap);
        }
        for st in &mut s.body {
            if let FStmt::Loop(l) = st {
                l.write = remap(l.write);
                l.dist_by = l.dist_by.map(remap);
                for r in &mut l.reads {
                    r.array = remap(r.array);
                    r.via = r.via.map(remap);
                }
            }
        }
        out.push(s);
    }

    // Fewer nodes, smaller extents.
    if spec.nprocs > 2 {
        let mut s = spec.clone();
        s.nprocs -= 1;
        out.push(s);
    }
    let min_n1 = (spec.n2[0] + 2).max(8);
    if spec.n1 / 2 >= min_n1 {
        let mut s = spec.clone();
        s.n1 /= 2;
        out.push(s);
    } else if spec.n1 > min_n1 {
        let mut s = spec.clone();
        s.n1 = min_n1;
        out.push(s);
    }
    for d in 0..2 {
        if spec.n2[d] > 6 && spec.n2[d] - 2 <= spec.n1.saturating_sub(2) {
            let mut s = spec.clone();
            s.n2[d] -= 2;
            out.push(s);
        }
    }

    out
}

/// Greedily minimize `spec`, which must currently diverge; returns the
/// smallest spec found that still diverges.
pub fn shrink(spec: &FuzzSpec) -> FuzzSpec {
    let mut cur = spec.clone();
    'outer: loop {
        for cand in candidates(&cur) {
            if check_spec(&cand).is_err() {
                cur = cand;
                continue 'outer;
            }
        }
        return cur;
    }
}
