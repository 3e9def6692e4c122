//! Multi-dimensional rectangular strided sections.
//!
//! A [`Section`] is the cartesian product of per-dimension [`Range`]s —
//! a regular section descriptor in the sense of Balasundaram's data access
//! descriptors, which the paper notes would suffice for the sections it
//! optimizes. Set operations on concrete sections are exact for the
//! rectangular case: the difference of two rectangles is a disjoint union
//! of at most `2·ndims` rectangles.

use crate::affine::Env;
use crate::range::{Range, SymRange};
use std::fmt;

/// A concrete rectangular strided section (product of per-dim ranges).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Section {
    pub dims: Vec<Range>,
}

impl Section {
    /// Build a section from per-dimension ranges.
    pub fn new(dims: Vec<Range>) -> Self {
        Section { dims }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// True if any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Range::is_empty)
    }

    /// Number of elements.
    pub fn count(&self) -> u64 {
        if self.dims.is_empty() {
            return 0;
        }
        self.dims.iter().map(Range::count).product()
    }

    /// True if the point is in the section.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.ndims() && self.dims.iter().zip(point).all(|(r, &x)| r.contains(x))
    }

    /// Exact intersection. Rectangular sections are closed under
    /// intersection except for incompatible strides, in which case each
    /// per-dim intersection may split; the result is the cross product of
    /// the per-dim pieces.
    pub fn intersect(&self, other: &Section) -> Vec<Section> {
        assert_eq!(self.ndims(), other.ndims(), "dimension mismatch");
        let mut acc: Vec<Vec<Range>> = vec![vec![]];
        for (a, b) in self.dims.iter().zip(&other.dims) {
            let pieces = a.intersect(b);
            if pieces.is_empty() {
                return vec![];
            }
            let mut next = Vec::with_capacity(acc.len() * pieces.len());
            for prefix in &acc {
                for piece in &pieces {
                    let mut p = prefix.clone();
                    p.push(*piece);
                    next.push(p);
                }
            }
            acc = next;
        }
        acc.into_iter().map(Section::new).collect()
    }

    /// Exact rectangular difference `self − other`: a disjoint union of
    /// rectangles obtained by slicing dimension-by-dimension.
    pub fn subtract(&self, other: &Section) -> Vec<Section> {
        assert_eq!(self.ndims(), other.ndims(), "dimension mismatch");
        if self.is_empty() {
            return vec![];
        }
        let overlap = self.intersect(other);
        if overlap.is_empty() {
            return vec![self.clone()];
        }
        // Standard sweep: for each dim d, emit (self restricted to dims<d
        // already clipped to the overlap) × (self_d − other_d) × (self for
        // dims>d). Exact and disjoint for a single-rectangle overlap; for
        // multi-piece overlaps (incompatible strides) fall back to
        // iterated subtraction.
        if overlap.len() == 1 {
            let ov = &overlap[0];
            let mut out = Vec::new();
            for d in 0..self.ndims() {
                for piece in self.dims[d].subtract(&other.dims[d]) {
                    let mut dims = Vec::with_capacity(self.ndims());
                    dims.extend_from_slice(&ov.dims[..d]);
                    dims.push(piece);
                    dims.extend_from_slice(&self.dims[d + 1..]);
                    let s = Section::new(dims);
                    if !s.is_empty() {
                        out.push(s);
                    }
                }
            }
            out
        } else {
            let mut rest = vec![self.clone()];
            for ov in &overlap {
                let mut next = Vec::new();
                for piece in &rest {
                    next.extend(piece.subtract(ov));
                }
                rest = next;
            }
            rest
        }
    }

    /// Enumerate all points (row of index tuples); for tests and small
    /// sections only.
    pub fn points(&self) -> Vec<Vec<i64>> {
        if self.is_empty() {
            return vec![];
        }
        let mut out: Vec<Vec<i64>> = vec![vec![]];
        for r in &self.dims {
            let mut next = Vec::with_capacity(out.len() * r.count() as usize);
            for prefix in &out {
                for x in r.iter() {
                    let mut p = prefix.clone();
                    p.push(x);
                    next.push(p);
                }
            }
            out = next;
        }
        out
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// A symbolic section: product of symbolic per-dimension ranges.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SymSection {
    pub dims: Vec<SymRange>,
}

impl SymSection {
    /// Build a symbolic section.
    pub fn new(dims: Vec<SymRange>) -> Self {
        SymSection { dims }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Evaluate to a concrete [`Section`] under `env`.
    pub fn eval(&self, env: &Env) -> Section {
        Section::new(self.dims.iter().map(|d| d.eval(env)).collect())
    }
}

impl fmt::Display for SymSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec2(r0: Range, r1: Range) -> Section {
        Section::new(vec![r0, r1])
    }

    #[test]
    fn count_empty() {
        let s = sec2(Range::new(0, 9), Range::new(0, 4));
        assert_eq!(s.count(), 50);
        assert!(!s.is_empty());
        let e = sec2(Range::new(0, 9), Range::empty());
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn intersect_2d() {
        let a = sec2(Range::new(0, 9), Range::new(0, 9));
        let b = sec2(Range::new(5, 15), Range::new(-3, 3));
        let i = a.intersect(&b);
        assert_eq!(i, vec![sec2(Range::new(5, 9), Range::new(0, 3))]);
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = sec2(Range::new(0, 4), Range::new(0, 4));
        let b = sec2(Range::new(10, 14), Range::new(0, 4));
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_covers_exact_partition() {
        // Subtract the middle column block from a 10x10 square: results
        // must be disjoint and cover exactly the complement.
        let a = sec2(Range::new(0, 9), Range::new(0, 9));
        let b = sec2(Range::new(0, 9), Range::new(4, 6));
        let parts = a.subtract(&b);
        let mut covered = std::collections::HashSet::new();
        for p in &parts {
            for pt in p.points() {
                assert!(covered.insert(pt.clone()), "overlap at {pt:?}");
                assert!(a.contains(&pt));
                assert!(!b.contains(&pt));
            }
        }
        assert_eq!(covered.len() as u64, a.count() - b.count());
    }

    #[test]
    fn subtract_corner_overlap() {
        let a = sec2(Range::new(0, 9), Range::new(0, 9));
        let b = sec2(Range::new(7, 12), Range::new(7, 12));
        let parts = a.subtract(&b);
        let total: u64 = parts.iter().map(Section::count).sum();
        assert_eq!(total, 100 - 9); // 3x3 corner removed
                                    // Disjointness
        let mut seen = std::collections::HashSet::new();
        for p in &parts {
            for pt in p.points() {
                assert!(seen.insert(pt));
            }
        }
    }

    #[test]
    fn points_matches_count() {
        let s = sec2(Range::strided(0, 8, 2), Range::new(3, 5));
        assert_eq!(s.points().len() as u64, s.count());
    }
}
