//! One-dimensional strided integer ranges, symbolic and concrete.

use crate::affine::{Affine, Env};
use crate::pieces::Pieces;
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

    /// Intersection with another range: one range, or `None` when they
    /// share no point. Exact for every pair of strides — the common
    /// points of two progressions are one progression of stride
    /// `lcm(s, t)` when their phases agree modulo `gcd(s, t)` (the Chinese
    /// remainder theorem), which covers the dense, equal-stride and
    /// mixed-stride cases alike. The result is canonical (see `clip`).
    pub fn intersect(&self, other: &Range) -> Option<Range> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            return None;
        }
        if self.stride == 1 {
            return other.clip(lo, hi);
        }
        if other.stride == 1 {
            return self.clip(lo, hi);
        }
        let (s, t) = (self.stride, other.stride);
        let g = gcd(s, t);
        let diff = other.lo - self.lo;
        if diff % g != 0 {
            return None; // disjoint congruence classes
        }
        // x = self.lo + s·k with s·k ≡ diff (mod t): k ≡ (diff/g)·(s/g)⁻¹
        // (mod t/g).
        let m = t / g;
        let k = ((diff / g).rem_euclid(m) as i128 * inverse_mod(s / g, m) as i128) % m as i128;
        let (x, lcm) = (self.lo + s * k as i64, s / g * t);
        Range::strided(lo + (x - lo).rem_euclid(lcm), hi, lcm).clip(lo, hi)
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

    /// `self` without the interval `[a, b]`: at most two pieces, each
    /// keeping the stride of `self`; `self` itself when they are disjoint.
    fn cut(&self, a: i64, b: i64, out: &mut Pieces<Range, 2>) {
        if b < self.lo || a > self.hi {
            out.push(*self);
            return;
        }
        if self.lo < a {
            out.extend(self.clip(self.lo, a - 1));
        }
        if self.hi > b {
            out.extend(self.clip(b + 1, self.hi));
        }
    }

    /// Set difference `self − other`, in closed form whenever every point
    /// of `self` inside `other`'s span is decided by one congruence:
    ///
    /// * `other` dense — remove the interval: at most two pieces, each
    ///   keeping the stride of `self`;
    /// * `other.stride` divides the stride of `self` (or `self` is one
    ///   point) — the *congruent* case, which every CYCLIC owner
    ///   subtraction is: if the phases match, `other` holds exactly the
    ///   points of `self` in its span, which is again an interval cut;
    ///   if not, it holds none of them and `self` survives whole.
    ///
    /// Only incongruent strides — e.g. a dense section against a CYCLIC
    /// owner range, which the corpus's mixed-distribution loops produce
    /// and no suite program does — still enumerate `self` point by point
    /// (bounded), coalescing dense runs.
    pub fn subtract(&self, other: &Range) -> Pieces<Range, 2> {
        let mut out = Pieces::default();
        if self.is_empty() {
            return out;
        }
        let Some(last) = other.last() else {
            out.push(*self);
            return out;
        };
        if other.stride == 1 {
            self.cut(other.lo, other.hi, &mut out);
            return out;
        }
        let me = self.clip(self.lo, self.hi).expect("non-empty");
        if me.lo == me.hi || me.stride % other.stride == 0 {
            match (me.lo - other.lo).rem_euclid(other.stride) {
                0 => me.cut(other.lo, last, &mut out),
                _ => out.push(me),
            }
            return out;
        }
        assert!(
            self.count() <= 1 << 22,
            "refusing to enumerate huge strided difference"
        );
        let mut run: Option<Range> = None;
        for x in self.iter().filter(|&x| !other.contains(x)) {
            match &mut run {
                Some(r) if r.hi + 1 == x => r.hi = x,
                _ => out.extend(run.replace(Range::new(x, x))),
            }
        }
        out.extend(run);
        out
    }

    /// Iterate over the points of the range.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let r = *self;
        (0..r.count() as i64).map(move |i| r.lo + i * r.stride)
    }
}

impl Default for Range {
    fn default() -> Self {
        Range::empty()
    }
}

/// Greatest common divisor of two positive strides.
fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The inverse of `a` modulo `m` (`a` and `m` coprime, `m ≥ 1`), by the
/// extended Euclidean algorithm.
fn inverse_mod(a: i64, m: i64) -> i64 {
    let (mut r0, mut r1) = (a.rem_euclid(m), m);
    let (mut x0, mut x1) = (1i64, 0i64);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (x0, x1) = (x1, x0 - q * x1);
    }
    x0.rem_euclid(m)
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
        assert_eq!(e.intersect(&Range::new(0, 10)), None);
        assert_eq!(*Range::new(0, 10).subtract(&e), [Range::new(0, 10)]);
    }

    #[test]
    fn dense_intersect() {
        let a = Range::new(0, 10);
        let b = Range::new(5, 20);
        assert_eq!(a.intersect(&b), Some(Range::new(5, 10)));
        assert_eq!(a.intersect(&Range::new(11, 20)), None);
    }

    #[test]
    fn dense_with_strided_intersect() {
        let a = Range::new(0, 20);
        let b = Range::strided(1, 19, 4); // 1,5,9,13,17
        assert_eq!(a.intersect(&b), Some(Range::strided(1, 17, 4)));
        let c = Range::new(6, 14);
        assert_eq!(b.intersect(&c), Some(Range::strided(9, 13, 4)));
    }

    #[test]
    fn equal_stride_intersect() {
        let a = Range::strided(0, 20, 4); // 0,4,8,12,16,20
        let b = Range::strided(8, 28, 4);
        assert_eq!(a.intersect(&b), Some(Range::strided(8, 20, 4)));
        let c = Range::strided(1, 21, 4); // different phase
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn dense_subtract_middle() {
        let a = Range::new(0, 10);
        let b = Range::new(3, 6);
        assert_eq!(*a.subtract(&b), [Range::new(0, 2), Range::new(7, 10)]);
    }

    #[test]
    fn dense_subtract_edges() {
        let a = Range::new(0, 10);
        assert_eq!(*a.subtract(&Range::new(0, 4)), [Range::new(5, 10)]);
        assert_eq!(*a.subtract(&Range::new(7, 10)), [Range::new(0, 6)]);
        assert!(a.subtract(&Range::new(0, 10)).is_empty());
        assert!(a.subtract(&Range::new(-5, 20)).is_empty());
        assert_eq!(*a.subtract(&Range::new(20, 30)), [a]);
    }

    #[test]
    fn strided_subtract_dense_keeps_stride() {
        let a = Range::strided(0, 20, 4);
        let b = Range::new(7, 13);
        // Removes 8 and 12 → pieces 0,4 and 16,20.
        assert_eq!(
            *a.subtract(&b),
            [Range::strided(0, 4, 4), Range::strided(16, 20, 4)]
        );
    }

    #[test]
    fn mixed_stride_intersect_is_one_progression() {
        // 0,4,8,...,40 ∩ 2,8,14,...,44 = 8,20,32 (stride lcm 12).
        let a = Range::strided(0, 40, 4);
        let b = Range::strided(2, 44, 6);
        assert_eq!(a.intersect(&b), Some(Range::strided(8, 32, 12)));
        // Phases 0 mod 4 and 1 mod 6 never meet (gcd 2).
        assert_eq!(a.intersect(&Range::strided(1, 43, 6)), None);
        // One common point collapses to stride 1.
        assert_eq!(
            a.intersect(&Range::strided(2, 10, 6)),
            Some(Range::new(8, 8))
        );
    }

    #[test]
    fn congruent_strided_subtract_is_closed_form() {
        // A CYCLIC owner range (stride 4, phase 1) minus itself, minus a
        // sub-progression of its own phase, and minus another phase.
        let own = Range::strided(1, 61, 4);
        assert!(own.subtract(&own).is_empty());
        let mid = Range::strided(9, 33, 4);
        assert_eq!(
            *own.subtract(&mid),
            [Range::strided(1, 5, 4), Range::strided(37, 61, 4)]
        );
        assert_eq!(*own.subtract(&Range::strided(2, 62, 4)), [own]);
        // Stride 8 ⊂ stride 4 classes; a single point against any stride.
        let coarse = Range::strided(1, 57, 8);
        assert!(coarse.subtract(&own).is_empty());
        assert_eq!(*Range::new(6, 6).subtract(&own), [Range::new(6, 6)]);
        assert!(Range::new(5, 5).subtract(&own).is_empty());
    }

    #[test]
    fn incongruent_subtract_still_enumerates() {
        // Dense minus stride 3: the gaps between multiples of 3.
        let a = Range::new(0, 7);
        assert_eq!(
            *a.subtract(&Range::strided(0, 9, 3)),
            [Range::new(1, 2), Range::new(4, 5), Range::new(7, 7)]
        );
    }

    #[test]
    fn symrange_eval() {
        let k = Var("k");
        let sr = SymRange::new(Affine::var(k).plus_const(1), 100);
        let env = Env::new().bind(k, 9);
        assert_eq!(sr.eval(&env), Range::new(10, 100));
    }
}
