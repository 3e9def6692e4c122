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
        let mut out = LinearRanges::empty();
        self.linearize_into(sec, &mut out);
        out
    }

    /// [`ColumnMajor::linearize`] into `out`, refilled in place: a
    /// symbolic loop re-linearizes its sections every instance, and its
    /// groups keep their storage.
    pub fn linearize_into(&self, sec: &Section, out: &mut LinearRanges) {
        assert_eq!(sec.ndims(), self.ndims(), "section/layout rank mismatch");
        let runs = &mut out.runs;
        runs.clear();
        if sec.is_empty() {
            return;
        }
        for (r, &e) in sec.dims().iter().zip(&self.extents) {
            assert!(
                r.lo >= 0 && r.last().is_some_and(|x| (x as usize) < e),
                "section {sec} reaches outside extents {:?}",
                self.extents
            );
        }
        let d0 = &sec.dims()[0];
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
                let r = &sec.dims()[d];
                if r.stride != 1 || r.lo != 0 || r.hi as usize != self.extents[d] - 1 {
                    break;
                }
                group.run_len *= self.extents[d];
                d += 1;
            }
            if let Some(part) = sec.dims().get(d) {
                group.base += part.lo as usize * self.strides[d];
                group.stride = part.stride as usize * self.strides[d];
                group.count = part.count() as usize;
                d += 1;
            }
        }
        runs.push(group);
        for (r, &s) in sec.dims().iter().zip(&self.strides).skip(d) {
            // The groups so far, once per point of `r`, ascending: appended
            // behind the originals, which then go.
            let n = runs.len();
            for x in r.iter() {
                let off = x as usize * s;
                for i in 0..n {
                    let g = runs[i];
                    runs.push(StridedRange {
                        base: g.base + off,
                        ..g
                    });
                }
            }
            runs.drain(..n);
        }
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

    /// One past the last element of the last run (the group is not
    /// empty).
    pub fn end(&self) -> usize {
        self.base + (self.count - 1) * self.stride + self.run_len
    }

    /// The indices of the runs that reach into the elements `[lo, hi)`,
    /// in closed form.
    pub fn runs_touching(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        if self.total_elements() == 0 || hi <= self.base {
            return 0..0;
        }
        if self.count == 1 {
            return 0..usize::from(self.base + self.run_len > lo);
        }
        let first = match lo >= self.base + self.run_len {
            true => (lo - self.base - self.run_len) / self.stride + 1,
            false => 0,
        };
        let end = ((hi - 1 - self.base) / self.stride + 1).min(self.count);
        first..end.max(first)
    }

    /// Append to `out`, ascending, the blocks of `within` — ascending,
    /// disjoint block ranges `[first, end)` of `unit` elements a block —
    /// that the runs touch. Where the gaps between runs are under a block
    /// every block of the group's hull is touched, and the blocks between
    /// the first and the last range it reaches into go with them, as one
    /// range; elsewhere the runs' blocks go range by range.
    pub fn blocks_within(
        &self,
        within: &[(usize, usize)],
        unit: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        let (gf, ge) = (self.base / unit, self.end().div_ceil(unit));
        let within = &within[within.partition_point(|&(_, t)| t <= gf)..];
        let within = &within[..within.partition_point(|&(s, _)| s < ge)];
        let (Some(&(first, _)), Some(&(_, end))) = (within.first(), within.last()) else {
            return;
        };
        if self.count == 1 || self.stride.saturating_sub(self.run_len) < unit {
            out.push((first.max(gf), end.min(ge)));
            return;
        }
        for &(first, end) in within {
            for i in self.runs_touching(first * unit, end * unit) {
                let start = self.base + i * self.stride;
                let (f, e) = (start / unit, (start + self.run_len).div_ceil(unit));
                out.push((f.max(first), e.min(end)));
            }
        }
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

    /// Iterate over all `(start, len)` contiguous element runs.
    pub fn iter_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.runs.iter().flat_map(StridedRange::runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::Range;

    /// `blocks_within` against the per-block definition, on dense and
    /// sparse groups: it returns every block of `within` a run touches,
    /// in order, and nothing a run does not touch or that lies outside
    /// the span of `within` (a dense group may bridge the gaps).
    #[test]
    fn blocks_within_matches_the_per_block_definition() {
        let mut rng = fgdsm_testkit::Rng::new(fgdsm_testkit::BASE_SEED);
        for _ in 0..300 {
            let (unit, count) = (rng.range(1, 9), rng.range(1, 6));
            let run_len = rng.range(1, 12);
            let g = StridedRange {
                base: rng.range(0, 40),
                run_len,
                stride: if count == 1 {
                    0
                } else {
                    run_len + rng.range(0, 20)
                },
                count,
            };
            let touched = |b: usize| {
                g.runs()
                    .any(|(s, l)| s < (b + 1) * unit && b * unit < s + l)
            };
            let (mut within, mut at) = (Vec::new(), rng.range(0, 6));
            while within.is_empty() || at < g.end() / unit + 4 {
                let end = at + rng.range(1, 5);
                within.push((at, end));
                at = end + rng.range(1, 4);
            }
            let mut out = Vec::new();
            g.blocks_within(&within, unit, &mut out);
            let got: Vec<usize> = out.iter().flat_map(|&(f, e)| f..e).collect();
            assert!(got.windows(2).all(|w| w[0] < w[1]), "{g:?}: {out:?}");
            let span = within[0].0..within[within.len() - 1].1;
            assert!(
                got.iter().all(|&b| touched(b) && span.contains(&b)),
                "{g:?}: {out:?}"
            );
            let inside = within
                .iter()
                .flat_map(|&(f, e)| f..e)
                .filter(|&b| touched(b));
            assert!(
                inside.into_iter().all(|b| got.contains(&b)),
                "{g:?}: {out:?}"
            );
        }
    }

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
        let s = Section::new(&[Range::new(0, 7), Range::new(2, 2)]);
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
        let s = Section::new(&[Range::new(0, 7), Range::new(1, 3)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.runs.len(), 1);
        let r = lr.runs[0];
        assert_eq!((r.base, r.run_len, r.count), (8, 8, 3));
        assert_eq!(r.stride, 8);
        // Runs are adjacent, so callers may coalesce.
        assert_eq!(lr.iter_runs().map(|(_, n)| n).sum::<usize>(), 24);
    }

    #[test]
    fn partial_rows_are_2d_strided() {
        // Rows 2..5 of each column j=0..5: strided with run 4, stride 8.
        let l = ColumnMajor::new(&[8, 6]);
        let s = Section::new(&[Range::new(2, 5), Range::new(0, 5)]);
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
        let lr = assert_exact(&l, &Section::new(&[Range::strided(1, 13, 4)]));
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
        let s = Section::new(&[Range::strided(0, 6, 2), Range::new(0, 5)]);
        assert_eq!(assert_exact(&l, &s).runs.len(), 6);
    }

    #[test]
    fn any_number_of_partial_dims_enumerates() {
        let l = ColumnMajor::new(&[4, 5, 3, 6]);
        let s = Section::new(&[
            Range::new(1, 2),
            Range::strided(0, 4, 2),
            Range::new(1, 2),
            Range::strided(0, 5, 5),
        ]);
        let lr = assert_exact(&l, &s);
        assert_eq!(lr.runs.len(), 2 * 2, "one group per outer point");
        // The old cliff: more than 4096 outer points is still a lowering.
        let l = ColumnMajor::new(&[2, 2, 5000]);
        let s = Section::new(&[Range::new(0, 0), Range::new(0, 1), Range::new(0, 4999)]);
        assert_eq!(l.linearize(&s).runs.len(), 5000);
    }

    #[test]
    #[should_panic(expected = "reaches outside")]
    fn out_of_bounds_section_is_a_caller_bug() {
        let l = ColumnMajor::new(&[8, 6]);
        l.linearize(&Section::new(&[Range::new(0, 8), Range::new(0, 5)]));
    }

    #[test]
    fn three_d_plane() {
        // Plane k=3 of a 4x4x4 array: contiguous 16 elements at offset 48.
        let l = ColumnMajor::new(&[4, 4, 4]);
        let s = Section::new(&[Range::new(0, 3), Range::new(0, 3), Range::new(3, 3)]);
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
        let s = Section::new(&[Range::new(0, 3), Range::new(1, 2), Range::new(0, 2)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.iter_runs().map(|(_, n)| n).sum::<usize>(), 4 * 2 * 3);
        // All runs must land inside the array.
        for (start, len) in lr.iter_runs() {
            assert!(start + len <= l.len());
        }
    }

    /// One buffer refilled section after section holds what a fresh
    /// linearization returns, whatever it held before.
    #[test]
    fn linearize_into_refills_in_place() {
        let l = ColumnMajor::new(&[4, 5, 3, 6]);
        let sections = [
            Section::new(&[
                Range::new(1, 2),
                Range::new(0, 4),
                Range::new(1, 2),
                Range::new(0, 5),
            ]),
            Section::new(&[
                Range::new(0, 3),
                Range::new(0, 4),
                Range::new(0, 2),
                Range::new(2, 2),
            ]),
            Section::new(&[
                Range::empty(),
                Range::new(0, 4),
                Range::new(0, 2),
                Range::new(0, 5),
            ]),
            Section::new(&[
                Range::strided(0, 2, 2),
                Range::new(3, 4),
                Range::new(2, 2),
                Range::strided(1, 5, 2),
            ]),
        ];
        let mut out = LinearRanges::empty();
        for sec in sections.iter().chain(sections.iter().rev()) {
            l.linearize_into(sec, &mut out);
            assert_eq!(out, l.linearize(sec), "{sec}");
        }
    }

    #[test]
    fn empty_section_linearizes_empty() {
        let l = ColumnMajor::new(&[8, 6]);
        let s = Section::new(&[Range::empty(), Range::new(0, 5)]);
        let lr = l.linearize(&s);
        assert_eq!(lr.iter_runs().map(|(_, n)| n).sum::<usize>(), 0);
    }
}
