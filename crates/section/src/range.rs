//! One-dimensional strided integer ranges, symbolic and concrete.

use crate::affine::{Affine, Env};
use std::fmt;

/// A concrete strided range `{ lo, lo+stride, ..., ≤ hi }` (inclusive
/// bounds, Fortran-style).
///
/// An empty range is represented by `lo > hi`. Stride must be ≥ 1.
/// (`Ord` is structural, for use as a map key, not set inclusion.)
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Range {
    pub lo: i64,
    pub hi: i64,
    pub stride: i64,
}

impl Range {
    /// A dense (stride-1) range `lo:hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        Range { lo, hi, stride: 1 }
    }

    /// A strided range `lo:hi:stride`.
    pub fn strided(lo: i64, hi: i64, stride: i64) -> Self {
        assert!(stride >= 1, "stride must be positive, got {stride}");
        Range { lo, hi, stride }
    }

    /// The canonical empty range.
    pub fn empty() -> Self {
        Range {
            lo: 1,
            hi: 0,
            stride: 1,
        }
    }

    /// True if the range contains no points.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Number of points in the range.
    pub fn count(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            ((self.hi - self.lo) / self.stride + 1) as u64
        }
    }

    /// The largest element actually reached (≤ hi, aligned to the stride).
    pub fn last(&self) -> Option<i64> {
        if self.is_empty() {
            None
        } else {
            Some(self.lo + ((self.hi - self.lo) / self.stride) * self.stride)
        }
    }

    /// True if `x` is one of the points of the range.
    pub fn contains(&self, x: i64) -> bool {
        !self.is_empty() && x >= self.lo && x <= self.hi && (x - self.lo) % self.stride == 0
    }

    /// Intersection with another range.
    ///
    /// Fully general stride intersection requires solving a linear
    /// congruence; the planner only ever intersects ranges where at least
    /// one side is dense (stride 1) or both strides are equal with
    /// congruent phase — exactly the cases Omega's generated code produces
    /// for last-dimension BLOCK/CYCLIC distributions. Other cases fall back
    /// to an exact (but O(n)) enumeration capped for safety.
    pub fn intersect(&self, other: &Range) -> Vec<Range> {
        if self.is_empty() || other.is_empty() {
            return vec![];
        }
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            return vec![];
        }
        if self.stride == 1 && other.stride == 1 {
            return vec![Range::new(lo, hi)];
        }
        if self.stride == 1 {
            return other.clip(lo, hi).map(|r| vec![r]).unwrap_or_default();
        }
        if other.stride == 1 {
            return self.clip(lo, hi).map(|r| vec![r]).unwrap_or_default();
        }
        if self.stride == other.stride {
            if (self.lo - other.lo) % self.stride == 0 {
                // Same phase: intersection is strided with the same stride.
                let mut start = lo;
                let rem = (start - self.lo).rem_euclid(self.stride);
                if rem != 0 {
                    start += self.stride - rem;
                }
                if start > hi {
                    return vec![];
                }
                let last = start + ((hi - start) / self.stride) * self.stride;
                let stride = if start == last { 1 } else { self.stride };
                return vec![Range::strided(start, last, stride)];
            }
            return vec![]; // disjoint congruence classes
        }
        // General fallback: enumerate the sparser side.
        let (sparse, dense) = if self.count() <= other.count() {
            (self, other)
        } else {
            (other, self)
        };
        assert!(
            sparse.count() <= 1 << 22,
            "refusing to enumerate huge mixed-stride intersection"
        );
        let mut pts: Vec<i64> = sparse.iter().filter(|&x| dense.contains(x)).collect();
        pts.sort_unstable();
        pts.into_iter().map(|x| Range::new(x, x)).collect()
    }

    /// Clip a strided range to `[lo, hi]`, keeping stride and phase.
    fn clip(&self, lo: i64, hi: i64) -> Option<Range> {
        let mut start = self.lo.max(lo);
        let rem = (start - self.lo).rem_euclid(self.stride);
        if rem != 0 {
            start += self.stride - rem;
        }
        let end = self.hi.min(hi);
        if start > end {
            None
        } else {
            // Canonicalize: tighten `hi` to the last point actually reached
            // (and collapse single points to stride 1) so that set-equal
            // ranges are structurally equal.
            let last = start + ((end - start) / self.stride) * self.stride;
            let stride = if start == last { 1 } else { self.stride };
            Some(Range::strided(start, last, stride))
        }
    }

    /// Set difference `self − other`, restricted to the shapes the planner
    /// needs: subtracting a dense range from a dense range yields at most
    /// two dense pieces. For strided operands, pieces keep the stride of
    /// `self` when `other` is dense; other combinations fall back to
    /// enumeration (bounded, used only in tests).
    pub fn subtract(&self, other: &Range) -> Vec<Range> {
        if self.is_empty() {
            return vec![];
        }
        if other.is_empty() {
            return vec![*self];
        }
        if other.stride == 1 {
            // Remove the interval [other.lo, other.hi] from self.
            let mut out = Vec::with_capacity(2);
            if self.lo < other.lo {
                if let Some(r) = self.clip(self.lo, other.lo - 1) {
                    out.push(r);
                }
            }
            if self.hi > other.hi {
                if let Some(r) = self.clip(other.hi + 1, self.hi) {
                    out.push(r);
                }
            }
            // If `other` doesn't overlap at all, clip produced self back.
            if other.hi < self.lo || other.lo > self.hi {
                return vec![*self];
            }
            return out;
        }
        // Strided subtrahend: exact enumeration (small cases only).
        assert!(
            self.count() <= 1 << 22,
            "refusing to enumerate huge strided difference"
        );
        let mut out: Vec<Range> = Vec::new();
        for x in self.iter() {
            if !other.contains(x) {
                match out.last_mut() {
                    Some(last) if last.hi + 1 == x && last.stride == 1 => last.hi = x,
                    _ => out.push(Range::new(x, x)),
                }
            }
        }
        out
    }

    /// Iterate over the points of the range.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let r = *self;
        (0..r.count() as i64).map(move |i| r.lo + i * r.stride)
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else if self.stride == 1 {
            write!(f, "{}:{}", self.lo, self.hi)
        } else {
            write!(f, "{}:{}:{}", self.lo, self.hi, self.stride)
        }
    }
}

/// A symbolic strided range with affine bounds, evaluated to a [`Range`] at
/// run time.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SymRange {
    pub lo: Affine,
    pub hi: Affine,
    pub stride: i64,
}

impl SymRange {
    /// A dense symbolic range `lo:hi`.
    pub fn new(lo: impl Into<Affine>, hi: impl Into<Affine>) -> Self {
        SymRange {
            lo: lo.into(),
            hi: hi.into(),
            stride: 1,
        }
    }

    /// A strided symbolic range `lo:hi:stride`.
    pub fn strided(lo: impl Into<Affine>, hi: impl Into<Affine>, stride: i64) -> Self {
        assert!(stride >= 1);
        SymRange {
            lo: lo.into(),
            hi: hi.into(),
            stride,
        }
    }

    /// Evaluate to a concrete range under `env`.
    pub fn eval(&self, env: &Env) -> Range {
        Range {
            lo: self.lo.eval(env),
            hi: self.hi.eval(env),
            stride: self.stride,
        }
    }

    /// Shift both bounds by the constant `c` (used to apply stencil
    /// offsets like `a(i, j-1)`).
    pub fn shift(&self, c: i64) -> SymRange {
        SymRange {
            lo: self.lo.clone().plus_const(c),
            hi: self.hi.clone().plus_const(c),
            stride: self.stride,
        }
    }
}

impl fmt::Display for SymRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == 1 {
            write!(f, "{}:{}", self.lo, self.hi)
        } else {
            write!(f, "{}:{}:{}", self.lo, self.hi, self.stride)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Var;

    #[test]
    fn count_and_contains() {
        let r = Range::strided(2, 10, 3); // 2,5,8
        assert_eq!(r.count(), 3);
        assert!(r.contains(5));
        assert!(!r.contains(6));
        assert!(!r.contains(11));
        assert_eq!(r.last(), Some(8));
    }

    #[test]
    fn empty_behaviour() {
        let e = Range::empty();
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        assert_eq!(e.intersect(&Range::new(0, 10)), vec![]);
        assert_eq!(Range::new(0, 10).subtract(&e), vec![Range::new(0, 10)]);
    }

    #[test]
    fn dense_intersect() {
        let a = Range::new(0, 10);
        let b = Range::new(5, 20);
        assert_eq!(a.intersect(&b), vec![Range::new(5, 10)]);
        assert_eq!(a.intersect(&Range::new(11, 20)), vec![]);
    }

    #[test]
    fn dense_with_strided_intersect() {
        let a = Range::new(0, 20);
        let b = Range::strided(1, 19, 4); // 1,5,9,13,17
        assert_eq!(a.intersect(&b), vec![Range::strided(1, 17, 4)]);
        let c = Range::new(6, 14);
        assert_eq!(b.intersect(&c), vec![Range::strided(9, 13, 4)]);
    }

    #[test]
    fn equal_stride_intersect() {
        let a = Range::strided(0, 20, 4); // 0,4,8,12,16,20
        let b = Range::strided(8, 28, 4);
        assert_eq!(a.intersect(&b), vec![Range::strided(8, 20, 4)]);
        let c = Range::strided(1, 21, 4); // different phase
        assert_eq!(a.intersect(&c), vec![]);
    }

    #[test]
    fn dense_subtract_middle() {
        let a = Range::new(0, 10);
        let b = Range::new(3, 6);
        assert_eq!(a.subtract(&b), vec![Range::new(0, 2), Range::new(7, 10)]);
    }

    #[test]
    fn dense_subtract_edges() {
        let a = Range::new(0, 10);
        assert_eq!(a.subtract(&Range::new(0, 4)), vec![Range::new(5, 10)]);
        assert_eq!(a.subtract(&Range::new(7, 10)), vec![Range::new(0, 6)]);
        assert_eq!(a.subtract(&Range::new(0, 10)), vec![]);
        assert_eq!(a.subtract(&Range::new(-5, 20)), vec![]);
        assert_eq!(a.subtract(&Range::new(20, 30)), vec![a]);
    }

    #[test]
    fn strided_subtract_dense_keeps_stride() {
        let a = Range::strided(0, 20, 4);
        let b = Range::new(7, 13);
        // Removes 8 and 12 → pieces 0,4 and 16,20.
        assert_eq!(
            a.subtract(&b),
            vec![Range::strided(0, 4, 4), Range::strided(16, 20, 4)]
        );
    }

    #[test]
    fn symrange_eval_and_shift() {
        let k = Var("k");
        let sr = SymRange::new(Affine::var(k).plus_const(1), 100);
        let env = Env::new().bind(k, 9);
        assert_eq!(sr.eval(&env), Range::new(10, 100));
        assert_eq!(sr.shift(-1).eval(&env), Range::new(9, 99));
    }
}
