//! Multi-dimensional rectangular strided sections.
//!
//! A [`Section`] is the cartesian product of per-dimension [`Range`]s —
//! a regular section descriptor in the sense of Balasundaram's data access
//! descriptors, which the paper notes would suffice for the sections it
//! optimizes. Set operations on concrete sections are exact for the
//! rectangular case: the difference of two rectangles is a disjoint union
//! of at most `2·ndims` rectangles.

use crate::range::Range;
use std::fmt;

/// The largest rank a [`Section`] holds. Its dims are stored inline, so
/// the run-time analysis builds, intersects and subtracts sections
/// without a heap allocation; `ProgramBuilder::array` rejects an array
/// of higher rank (the paper's suite and the fuzz corpus stay ≤ 3).
pub const MAX_RANK: usize = 4;

/// A concrete rectangular strided section (product of per-dim ranges),
/// its dims inline. The slots past `ndims()` always hold
/// `Range::default()`, so the derived comparisons see only the dims and
/// order sections of one rank as their dims would.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Section {
    dims: [Range; MAX_RANK],
    rank: usize,
}

impl Section {
    /// Build a section from per-dimension ranges (at most [`MAX_RANK`]).
    pub fn new(dims: &[Range]) -> Self {
        dims.iter().copied().collect()
    }

    /// The per-dimension ranges.
    pub fn dims(&self) -> &[Range] {
        &self.dims[..self.rank]
    }

    /// The per-dimension ranges, mutably.
    pub fn dims_mut(&mut self) -> &mut [Range] {
        &mut self.dims[..self.rank]
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.rank
    }

    /// True if any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.dims().iter().any(Range::is_empty)
    }

    /// Number of elements.
    pub fn count(&self) -> u64 {
        if self.rank == 0 {
            return 0;
        }
        self.dims().iter().map(Range::count).product()
    }

    /// True if the point is in the section.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.ndims() && self.dims().iter().zip(point).all(|(r, &x)| r.contains(x))
    }

    /// Exact intersection: one section, or `None` when they share no
    /// point (rectangles are closed under intersection, and so are
    /// strided ranges — see [`Range::intersect`]).
    pub fn intersect(&self, other: &Section) -> Option<Section> {
        assert_eq!(self.ndims(), other.ndims(), "dimension mismatch");
        let mut out = *self;
        for (a, b) in out.dims_mut().iter_mut().zip(other.dims()) {
            *a = a.intersect(b)?;
        }
        Some(out)
    }

    /// Exact rectangular difference `self − other`: a disjoint union of
    /// rectangles obtained by slicing dimension-by-dimension — for each
    /// dim `d`, (the overlap in dims < `d`) × (`self_d − other_d`) ×
    /// (`self` in dims > `d`). (The §4.1 analysis subtracts owner
    /// sections on their distributed dimension alone; this general form
    /// is the oracle its tests hold it to.)
    pub fn subtract(&self, other: &Section) -> Vec<Section> {
        assert_eq!(self.ndims(), other.ndims(), "dimension mismatch");
        if self.is_empty() {
            return vec![];
        }
        let Some(ov) = self.intersect(other) else {
            return vec![*self];
        };
        let mut out = Vec::new();
        for d in 0..self.rank {
            for &piece in &self.dims[d].subtract(&other.dims[d]) {
                let mut s = *self;
                s.dims[..d].copy_from_slice(&ov.dims[..d]);
                s.dims[d] = piece;
                if !s.is_empty() {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Enumerate all points (row of index tuples); for tests and small
    /// sections only.
    pub fn points(&self) -> Vec<Vec<i64>> {
        if self.is_empty() {
            return vec![];
        }
        let mut out: Vec<Vec<i64>> = vec![vec![]];
        for r in self.dims() {
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

impl FromIterator<Range> for Section {
    fn from_iter<I: IntoIterator<Item = Range>>(iter: I) -> Self {
        let mut s = Section::default();
        for r in iter {
            assert!(
                s.rank < MAX_RANK,
                "a section holds at most {MAX_RANK} dimensions"
            );
            s.dims[s.rank] = r;
            s.rank += 1;
        }
        s
    }
}

impl fmt::Debug for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Section")
            .field("dims", &self.dims())
            .finish()
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims().iter().enumerate() {
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
        Section::new(&[r0, r1])
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
        assert_eq!(i, Some(sec2(Range::new(5, 9), Range::new(0, 3))));
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = sec2(Range::new(0, 4), Range::new(0, 4));
        let b = sec2(Range::new(10, 14), Range::new(0, 4));
        assert_eq!(*a.subtract(&b), [a]);
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
