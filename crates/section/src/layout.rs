//! Column-major (Fortran) linearization of sections into virtual-address
//! ranges.
//!
//! The paper restricts compiler-controlled optimization to "array sections
//! that can be shown, at compile-time, to form contiguous virtual
//! addresses", plus "two-dimensional sections, represented as contiguous
//! ranges separated by a fixed stride" (§4.1). This module lowers a
//! concrete [`Section`] over a given array layout to groups of those
//! shapes — one group for the sections the paper optimizes, several short
//! ones for everything else, never a refusal — as element-offset ranges
//! that the planner then converts into block lists.

use crate::section::Section;

/// Column-major layout of a multi-dimensional array: the *first* dimension
/// is contiguous (Fortran). Extents are per-dimension sizes; dimension `d`
/// has stride `extents[0] * … * extents[d-1]` elements.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnMajor {
    extents: Vec<usize>,
    strides: Vec<usize>,
}

impl ColumnMajor {
    /// Layout for an array of the given per-dimension extents.
    pub fn new(extents: &[usize]) -> Self {
        assert!(!extents.is_empty());
        let mut strides = Vec::with_capacity(extents.len());
        let mut s = 1usize;
        for &e in extents {
            strides.push(s);
            s = s.checked_mul(e).expect("array too large");
        }
        ColumnMajor {
            extents: extents.to_vec(),
            strides,
        }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.extents.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.extents.iter().product()
    }

    /// True if the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Element stride of dimension `d`.
    pub fn stride(&self, d: usize) -> usize {
        self.strides[d]
    }

    /// Linear element offset of a (0-based) index tuple.
    pub fn offset(&self, index: &[i64]) -> usize {
        assert_eq!(index.len(), self.ndims());
        let mut off = 0usize;
        for (d, &i) in index.iter().enumerate() {
            debug_assert!(
                i >= 0 && (i as usize) < self.extents[d],
                "index {i} out of bounds in dim {d} (extent {})",
                self.extents[d]
            );
            off += i as usize * self.strides[d];
        }
        off
    }

    /// Linearize a section to element-offset ranges. Total: every section
    /// inside the array has a lowering, so no caller needs a fallback. A
    /// dense dim 0 is one contiguous run, lengthened by any leading full
    /// dimensions, and the next dimension supplies stride and count (the
    /// paper's contiguous and 2-D strided shapes, §4.1); a strided dim 0
    /// is a group of single-element runs; every remaining dimension
    /// repeats the group once per point, so groups ascend by address.
    /// A section reaching outside the array is a caller bug.
    pub fn linearize(&self, sec: &Section) -> LinearRanges {
        assert_eq!(sec.ndims(), self.ndims(), "section/layout rank mismatch");
        if sec.is_empty() {
            return LinearRanges::empty();
        }
        for (r, &e) in sec.dims.iter().zip(&self.extents) {
            assert!(
                r.lo >= 0 && r.last().is_some_and(|x| (x as usize) < e),
                "section {sec} reaches outside extents {:?}",
                self.extents
            );
        }
        let d0 = &sec.dims[0];
        let dense = d0.stride == 1 || d0.count() == 1;
        let mut group = StridedRange {
            base: d0.lo as usize,
            run_len: if dense { d0.count() as usize } else { 1 },
            stride: if dense { 0 } else { d0.stride as usize },
            count: if dense { 1 } else { d0.count() as usize },
        };
        let mut d = 1;
        if dense {
            while d < self.ndims() && group.base == 0 && group.run_len == self.strides[d] {
                let r = &sec.dims[d];
                if r.stride != 1 || r.lo != 0 || r.hi as usize != self.extents[d] - 1 {
                    break;
                }
                group.run_len *= self.extents[d];
                d += 1;
            }
            if let Some(part) = sec.dims.get(d) {
                group.base += part.lo as usize * self.strides[d];
                group.stride = part.stride as usize * self.strides[d];
                group.count = part.count() as usize;
                d += 1;
            }
        }
        let mut runs = vec![group];
        for (r, &s) in sec.dims.iter().zip(&self.strides).skip(d) {
            runs = r
                .iter()
                .flat_map(|x| {
                    let off = x as usize * s;
                    runs.iter().map(move |g| StridedRange {
                        base: g.base + off,
                        ..*g
                    })
                })
                .collect();
        }
        LinearRanges { runs }
    }
}

/// A group of equally-spaced contiguous element runs:
/// `base + i*stride .. base + i*stride + run_len` for `i in 0..count`.
///
/// `stride == 0` is only used for the single-run case (`count == 1`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StridedRange {
    /// Element offset of the first run.
    pub base: usize,
    /// Length of each contiguous run, in elements.
    pub run_len: usize,
    /// Element distance between successive run starts.
    pub stride: usize,
    /// Number of runs.
    pub count: usize,
}

impl StridedRange {
    /// Total number of elements covered.
    pub fn total_elements(&self) -> usize {
        self.run_len * self.count
    }

    /// Iterate over `(start, len)` element runs.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let s = *self;
        (0..s.count).map(move |i| (s.base + i * s.stride, s.run_len))
    }
}

/// The linearization of a section: a small list of [`StridedRange`] groups.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinearRanges {
    pub runs: Vec<StridedRange>,
}

impl LinearRanges {
    /// The empty linearization.
    pub fn empty() -> Self {
        LinearRanges { runs: vec![] }
    }

    /// True if no elements are covered.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(|r| r.total_elements() == 0)
    }

    /// Total elements covered.
    pub fn total_elements(&self) -> usize {
        self.runs.iter().map(StridedRange::total_elements).sum()
    }

    /// Iterate over all `(start, len)` contiguous element runs.
    pub fn iter_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.runs.iter().flat_map(StridedRange::runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::Range;

    #[test]
    fn offsets_column_major() {
        let l = ColumnMajor::new(&[4, 3]);
        assert_eq!(l.offset(&[0, 0]), 0);
        assert_eq!(l.offset(&[1, 0]), 1);
        assert_eq!(l.offset(&[0, 1]), 4);
        assert_eq!(l.offset(&[3, 2]), 11);
        assert_eq!(l.len(), 12);
    }

    #[test]
    fn full_column_is_contiguous() {
        let l = ColumnMajor::new(&[8, 6]);
        let s = Section::new(vec![Range::new(0, 7), Range::new(2, 2)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.runs.len(), 1);
        assert_eq!(lr.runs[0].base, 16);
        assert_eq!(lr.runs[0].run_len, 8);
        assert_eq!(lr.runs[0].count, 1);
    }

    #[test]
    fn multiple_columns_contiguous() {
        // Full columns j=1..3 of an 8x6 array are one contiguous run
        // because dim 0 is full.
        let l = ColumnMajor::new(&[8, 6]);
        let s = Section::new(vec![Range::new(0, 7), Range::new(1, 3)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.runs.len(), 1);
        let r = lr.runs[0];
        assert_eq!((r.base, r.run_len, r.count), (8, 8, 3));
        assert_eq!(r.stride, 8);
        // Runs are adjacent, so callers may coalesce.
        assert_eq!(lr.total_elements(), 24);
    }

    #[test]
    fn partial_rows_are_2d_strided() {
        // Rows 2..5 of each column j=0..5: strided with run 4, stride 8.
        let l = ColumnMajor::new(&[8, 6]);
        let s = Section::new(vec![Range::new(2, 5), Range::new(0, 5)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.runs.len(), 1);
        let r = lr.runs[0];
        assert_eq!((r.base, r.run_len, r.stride, r.count), (2, 4, 8, 6));
    }

    /// Every point of `sec`, once, as the runs say — against the
    /// point-by-point enumeration.
    fn assert_exact(l: &ColumnMajor, sec: &Section) -> LinearRanges {
        let lr = l.linearize(sec);
        let mut got: Vec<usize> = lr.iter_runs().flat_map(|(s, n)| s..s + n).collect();
        let mut want: Vec<usize> = sec.points().iter().map(|pt| l.offset(pt)).collect();
        assert!(got.is_sorted(), "groups must ascend by address: {lr:?}");
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{sec}");
        lr
    }

    #[test]
    fn strided_dim0_is_single_element_runs() {
        // A CYCLIC 1-D array's owner section: one group of unit runs.
        let l = ColumnMajor::new(&[16]);
        let lr = assert_exact(&l, &Section::new(vec![Range::strided(1, 13, 4)]));
        assert_eq!(
            lr.runs,
            vec![StridedRange {
                base: 1,
                run_len: 1,
                stride: 4,
                count: 4
            }]
        );
        // In 2-D the group repeats once per column.
        let l = ColumnMajor::new(&[8, 6]);
        let s = Section::new(vec![Range::strided(0, 6, 2), Range::new(0, 5)]);
        assert_eq!(assert_exact(&l, &s).runs.len(), 6);
    }

    #[test]
    fn any_number_of_partial_dims_enumerates() {
        let l = ColumnMajor::new(&[4, 5, 3, 6]);
        let s = Section::new(vec![
            Range::new(1, 2),
            Range::strided(0, 4, 2),
            Range::new(1, 2),
            Range::strided(0, 5, 5),
        ]);
        let lr = assert_exact(&l, &s);
        assert_eq!(lr.runs.len(), 2 * 2, "one group per outer point");
        // The old cliff: more than 4096 outer points is still a lowering.
        let l = ColumnMajor::new(&[2, 2, 5000]);
        let s = Section::new(vec![
            Range::new(0, 0),
            Range::new(0, 1),
            Range::new(0, 4999),
        ]);
        assert_eq!(l.linearize(&s).runs.len(), 5000);
    }

    #[test]
    #[should_panic(expected = "reaches outside")]
    fn out_of_bounds_section_is_a_caller_bug() {
        let l = ColumnMajor::new(&[8, 6]);
        l.linearize(&Section::new(vec![Range::new(0, 8), Range::new(0, 5)]));
    }

    #[test]
    fn three_d_plane() {
        // Plane k=3 of a 4x4x4 array: contiguous 16 elements at offset 48.
        let l = ColumnMajor::new(&[4, 4, 4]);
        let s = Section::new(vec![Range::new(0, 3), Range::new(0, 3), Range::new(3, 3)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.runs.len(), 1);
        assert_eq!(
            (lr.runs[0].base, lr.runs[0].run_len, lr.runs[0].count),
            (48, 16, 1)
        );
    }

    #[test]
    fn three_d_two_partial_dims_enumerates() {
        // Sub-box rows 0..3, cols 1..2, planes 0..2 of a 4x4x4 array.
        let l = ColumnMajor::new(&[4, 4, 4]);
        let s = Section::new(vec![Range::new(0, 3), Range::new(1, 2), Range::new(0, 2)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.total_elements(), 4 * 2 * 3);
        // All runs must land inside the array.
        for (start, len) in lr.iter_runs() {
            assert!(start + len <= l.len());
        }
    }

    #[test]
    fn empty_section_linearizes_empty() {
        let l = ColumnMajor::new(&[8, 6]);
        let s = Section::new(vec![Range::empty(), Range::new(0, 5)]);
        let lr = l.linearize(&s);
        assert!(lr.is_empty());
    }
}
