//! Property-based tests for the omega-lite section algebra.
//!
//! Every set operation is checked against a brute-force model over small
//! integer universes: intersection and difference must agree point-for-point
//! with naive set semantics, results must be disjoint, and block subsetting
//! must partition the byte range exactly.

use fgdsm_section::{block_subset, ColumnMajor, Range, Section, MAX_RANK};
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
        let got = a.intersect(&b).map(|r| model(&r)).unwrap_or_default();
        assert_eq!(got, expected, "{a} ∩ {b}");
        // One canonical piece: no empty `Some`, single points dense.
        if let Some(r) = a.intersect(&b) {
            assert_eq!(r.count() as usize, expected.len());
            assert_eq!(r.last(), Some(r.hi));
            assert!(r.count() > 1 || r.stride == 1);
        }
    });
}

/// Pieces of a difference must be pairwise disjoint and cover exactly
/// the model's difference.
fn assert_range_difference(a: &Range, b: &Range) {
    let expected: HashSet<i64> = model(a).difference(&model(b)).copied().collect();
    let mut got = HashSet::new();
    for piece in &a.subtract(b) {
        for x in piece.iter() {
            assert!(got.insert(x), "{a} − {b}: pieces overlap at {x}");
        }
    }
    assert_eq!(got, expected, "{a} − {b}");
}

#[test]
fn range_subtract_matches_model() {
    check_cases(128, |rng| {
        assert_range_difference(&random_range(rng), &random_range(rng))
    });
}

/// The closed form: a subtrahend whose stride divides the minuend's (a
/// CYCLIC owner range against a section strided by a multiple of `P`, or
/// against one point) matches point enumeration and never splits into
/// more than two pieces.
#[test]
fn range_subtract_congruent_is_closed_form() {
    check_cases(256, |rng| {
        let t = rng.range_i64(2, 9);
        let s = match rng.range(0, 3) {
            0 => 1, // a single point (below), any stride
            _ => t * rng.range_i64(1, 4),
        };
        let lo = rng.range_i64(-20, 40);
        let a = match s {
            1 => Range::new(lo, lo),
            _ => Range::strided(lo, lo + rng.range_i64(0, 60), s),
        };
        let olo = rng.range_i64(-20, 40);
        let b = Range::strided(olo, olo + rng.range_i64(0, 60), t);
        assert_range_difference(&a, &b);
        assert!(a.subtract(&b).len() <= 2, "{a} − {b} split");
    });
}

/// A random rank-`rank` section over a small universe, each dimension
/// dense or strided.
fn random_section(rng: &mut Rng, rank: usize) -> Section {
    (0..rank)
        .map(|_| {
            let lo = rng.range_i64(-3, 8);
            let hi = lo + rng.range_i64(-1, 7);
            match rng.range(0, 2) {
                0 => Range::new(lo, hi),
                _ => Range::strided(lo, hi, rng.range_i64(2, 6)),
            }
        })
        .collect()
}

fn points(s: &Section) -> HashSet<Vec<i64>> {
    s.points().into_iter().collect()
}

/// Rank 2 over the wide universe of [`random_range`] (strides 1–5:
/// equal, coprime and dividing pairs reach the per-dim closed forms).
#[test]
fn section_subtract_matches_model() {
    check_cases(64, |rng| {
        let a = Section::new(&[random_range(rng), random_range(rng)]);
        let b = Section::new(&[random_range(rng), random_range(rng)]);
        let expected: HashSet<Vec<i64>> = points(&a).difference(&points(&b)).cloned().collect();
        let mut got = HashSet::new();
        for piece in &a.subtract(&b) {
            for pt in piece.points() {
                assert!(got.insert(pt.clone()), "{a} − {b}: overlap at {pt:?}");
            }
        }
        assert_eq!(got, expected, "{a} − {b}");
    });
}

#[test]
fn section_intersect_matches_model() {
    check_cases(64, |rng| {
        let a = Section::new(&[random_range(rng), random_range(rng)]);
        let b = Section::new(&[random_range(rng), random_range(rng)]);
        let expected: HashSet<Vec<i64>> = points(&a).intersection(&points(&b)).cloned().collect();
        let got = a.intersect(&b).map(|s| points(&s)).unwrap_or_default();
        assert_eq!(got, expected, "{a} ∩ {b}");
    });
}

/// Inline sections of every rank up to `MAX_RANK`, mixed dense and
/// strided dims: intersection, difference, count and membership agree
/// with point enumeration, and difference pieces are disjoint.
#[test]
fn section_ops_match_points_for_every_rank() {
    for rank in 1..=MAX_RANK {
        check_cases(96, |rng| {
            let a = random_section(rng, rank);
            let b = random_section(rng, rank);
            let (am, bm) = (points(&a), points(&b));
            assert_eq!(a.ndims(), rank);
            assert_eq!(a.count() as usize, am.len(), "{a}");
            let inter: HashSet<Vec<i64>> = am.intersection(&bm).cloned().collect();
            let got = a.intersect(&b).map(|s| points(&s)).unwrap_or_default();
            assert_eq!(got, inter, "{a} ∩ {b}");
            let diff: HashSet<Vec<i64>> = am.difference(&bm).cloned().collect();
            let mut got = HashSet::new();
            for piece in &a.subtract(&b) {
                assert!(!piece.is_empty());
                for pt in piece.points() {
                    assert!(got.insert(pt.clone()), "{a} − {b}: overlap at {pt:?}");
                }
            }
            assert_eq!(got, diff, "{a} − {b}");
            for _ in 0..8 {
                let pt: Vec<i64> = (0..rank).map(|_| rng.range_i64(-4, 16)).collect();
                assert_eq!(a.contains(&pt), am.contains(&pt), "{a} ∋ {pt:?}");
            }
        });
    }
}

#[test]
#[should_panic(expected = "at most 4 dimensions")]
fn a_fifth_dimension_is_refused() {
    Section::new(&[Range::new(0, 1); MAX_RANK + 1]);
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
            let (blo, bhi) = (s.first_block * bs, s.end_block * bs);
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
        let sec = Section::new(&[clamp(r0, rows), clamp(r1, cols)]);
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
