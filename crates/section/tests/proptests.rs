//! Property-based tests for the omega-lite section algebra.
//!
//! Every set operation is checked against a brute-force model over small
//! integer universes: intersection and difference must agree point-for-point
//! with naive set semantics, results must be disjoint, and block subsetting
//! must partition the byte range exactly.

use fgdsm_section::{block_subset, ColumnMajor, Range, Section};
use fgdsm_testkit::{check_cases, Rng};
use std::collections::HashSet;

fn random_range(rng: &mut Rng) -> Range {
    let lo = rng.range_i64(-20, 40);
    let len = rng.range_i64(0, 30);
    let stride = rng.range_i64(1, 6);
    Range {
        lo,
        hi: lo + len,
        stride,
    }
}

fn model(r: &Range) -> HashSet<i64> {
    r.iter().collect()
}

#[test]
fn range_count_matches_model() {
    check_cases(128, |rng| {
        let r = random_range(rng);
        assert_eq!(r.count() as usize, model(&r).len());
    });
}

#[test]
fn range_contains_matches_model() {
    check_cases(128, |rng| {
        let r = random_range(rng);
        let x = rng.range_i64(-30, 60);
        assert_eq!(r.contains(x), model(&r).contains(&x));
    });
}

#[test]
fn range_intersect_matches_model() {
    check_cases(128, |rng| {
        let a = random_range(rng);
        let b = random_range(rng);
        let expected: HashSet<i64> = model(&a).intersection(&model(&b)).copied().collect();
        let mut got = HashSet::new();
        for piece in a.intersect(&b) {
            for x in piece.iter() {
                assert!(got.insert(x), "intersection pieces overlap at {x}");
            }
        }
        assert_eq!(got, expected);
    });
}

#[test]
fn range_subtract_matches_model() {
    check_cases(128, |rng| {
        let a = random_range(rng);
        let b = random_range(rng);
        let expected: HashSet<i64> = model(&a).difference(&model(&b)).copied().collect();
        let mut got = HashSet::new();
        for piece in a.subtract(&b) {
            for x in piece.iter() {
                assert!(got.insert(x), "difference pieces overlap at {x}");
            }
        }
        assert_eq!(got, expected);
    });
}

#[test]
fn section_subtract_matches_model() {
    check_cases(64, |rng| {
        let a = Section::new(vec![random_range(rng), random_range(rng)]);
        let b = Section::new(vec![random_range(rng), random_range(rng)]);
        let am: HashSet<Vec<i64>> = a.points().into_iter().collect();
        let bm: HashSet<Vec<i64>> = b.points().into_iter().collect();
        let expected: HashSet<Vec<i64>> = am.difference(&bm).cloned().collect();
        let mut got = HashSet::new();
        for piece in a.subtract(&b) {
            for pt in piece.points() {
                assert!(
                    got.insert(pt.clone()),
                    "difference pieces overlap at {pt:?}"
                );
            }
        }
        assert_eq!(got, expected);
    });
}

#[test]
fn section_intersect_matches_model() {
    check_cases(64, |rng| {
        let a = Section::new(vec![random_range(rng), random_range(rng)]);
        let b = Section::new(vec![random_range(rng), random_range(rng)]);
        let am: HashSet<Vec<i64>> = a.points().into_iter().collect();
        let bm: HashSet<Vec<i64>> = b.points().into_iter().collect();
        let expected: HashSet<Vec<i64>> = am.intersection(&bm).cloned().collect();
        let mut got = HashSet::new();
        for piece in a.intersect(&b) {
            for pt in piece.points() {
                assert!(
                    got.insert(pt.clone()),
                    "intersection pieces overlap at {pt:?}"
                );
            }
        }
        assert_eq!(got, expected);
    });
}

#[test]
fn block_subset_partitions_range() {
    check_cases(256, |rng| {
        let lo = rng.range(0, 4096);
        let len = rng.range(0, 4096);
        let bs = 1usize << rng.range(5, 8); // 32..128
        let hi = lo + len;
        let s = block_subset(lo, hi, bs);
        // head + whole blocks + tail exactly tile [lo, hi)
        assert_eq!(s.head_bytes + s.block_count() * bs + s.tail_bytes, hi - lo);
        // whole blocks lie inside [lo, hi) and are aligned
        if !s.is_empty() {
            let (blo, bhi) = s.byte_range(bs);
            assert!(blo >= lo && bhi <= hi);
            assert_eq!(blo % bs, 0);
            assert_eq!(bhi % bs, 0);
        }
    });
}

#[test]
fn linearize_covers_section_exactly() {
    check_cases(96, |rng| {
        let rows = rng.range(1, 12);
        let cols = rng.range(1, 12);
        let r0 = random_range(rng);
        let r1 = random_range(rng);
        let l = ColumnMajor::new(&[rows, cols]);
        // Clamp ranges into bounds; any stride in either dimension.
        let clamp = |r: Range, e: usize| {
            Range::strided(
                r.lo.rem_euclid(e as i64),
                r.hi.rem_euclid(e as i64),
                r.stride,
            )
        };
        let sec = Section::new(vec![clamp(r0, rows), clamp(r1, cols)]);
        let lr = l.linearize(&sec);
        let mut offsets: HashSet<usize> = HashSet::new();
        for (start, len) in lr.iter_runs() {
            for o in start..start + len {
                assert!(offsets.insert(o), "linearized runs overlap at {o}");
            }
        }
        let expected: HashSet<usize> = sec.points().iter().map(|pt| l.offset(pt)).collect();
        assert_eq!(offsets, expected);
    });
}
