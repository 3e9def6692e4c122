//! Lowering access sets to cache-block ranges and optimization levels.
//!
//! `shmem_limits` (§4.2, Figure 2A): a transfer section is linearized to
//! contiguous (or 2-D strided) virtual-address runs, and each run is
//! shrunk to the whole blocks strictly inside it. The whole blocks go
//! under compiler control; the head/tail *boundary* words stay with the
//! default protocol — this is what limits `grav` (small extents, edge
//! effects "pronounced at 128-byte blocksize") and late `lu` iterations.

use crate::dist::ArrayId;
use fgdsm_section::{block_subset, ColumnMajor, LinearRanges, Section};

/// Which of the paper's optimizations are enabled (Figure 4's ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OptLevel {
    /// Compiler-orchestrated sender-initiated transfers (§4.2). Off ⇒
    /// pure default protocol.
    pub ctl: bool,
    /// Bulk transfer: group contiguous blocks into large payloads (§4.2).
    pub bulk: bool,
    /// Run-time overhead elimination: drop `mk_writable` /
    /// `implicit_invalidate` and their barriers, memoize
    /// `implicit_writable` (§4.3).
    pub rtoe: bool,
    /// PRE-style redundant-communication elimination (§4.3 / future
    /// work): skip a transfer whose data is still valid at the reader.
    pub pre: bool,
}

impl OptLevel {
    /// No optimizations: the unoptimized shared-memory baseline.
    pub fn unopt() -> Self {
        OptLevel {
            ctl: false,
            bulk: false,
            rtoe: false,
            pre: false,
        }
    }

    /// Figure 4 "base optimizations": sender-initiated transfers only.
    pub fn base() -> Self {
        OptLevel {
            ctl: true,
            bulk: false,
            rtoe: false,
            pre: false,
        }
    }

    /// Figure 4 second bar: base + bulk transfer.
    pub fn base_bulk() -> Self {
        OptLevel {
            ctl: true,
            bulk: true,
            rtoe: false,
            pre: false,
        }
    }

    /// Figure 4 third bar (the paper's full optimization set): base +
    /// bulk + run-time overhead elimination.
    pub fn full() -> Self {
        OptLevel {
            ctl: true,
            bulk: true,
            rtoe: true,
            pre: false,
        }
    }

    /// Full plus the PRE-based redundant-communication elimination the
    /// paper leaves as future work.
    pub fn full_pre() -> Self {
        OptLevel {
            ctl: true,
            bulk: true,
            rtoe: true,
            pre: true,
        }
    }

    /// Every meaningful toggle combination: the unoptimized baseline plus
    /// all eight `ctl = true` settings of bulk × rtoe × pre (the other
    /// flags are dead when `ctl` is off). The differential-testing oracle
    /// walks this list.
    pub fn all_combos() -> Vec<Self> {
        let mut out = vec![OptLevel::unopt()];
        for bits in 0..8u8 {
            out.push(OptLevel {
                ctl: true,
                bulk: bits & 1 != 0,
                rtoe: bits & 2 != 0,
                pre: bits & 4 != 0,
            });
        }
        out
    }
}

/// Placement of one array in the global segment.
#[derive(Clone, Debug)]
pub struct ArrayMeta {
    pub id: ArrayId,
    /// Word offset of the array base (page-aligned).
    pub base: usize,
    pub layout: ColumnMajor,
}

impl ArrayMeta {
    /// Linearize a section of this array to absolute word runs in the
    /// global segment. Returns `None` for shapes the compiler declines to
    /// optimize (never happens for the shapes our distributions produce).
    pub fn runs(&self, sec: &Section) -> Option<LinearRanges> {
        let mut lr = self.layout.linearize(sec)?;
        for r in &mut lr.runs {
            r.base += self.base;
        }
        Some(lr)
    }

    /// Absolute word offset of an element.
    pub fn offset(&self, index: &[i64]) -> usize {
        self.base + self.layout.offset(index)
    }
}

/// The `shmem_limits` result for one transfer: whole-block ranges under
/// compiler control plus boundary word runs left to the default protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtlRanges {
    /// Block ranges `[first, end)` fully covered by the section.
    pub ctl: Vec<(usize, usize)>,
    /// Boundary word runs `(start_word, len)` not block-aligned.
    pub boundary: Vec<(usize, usize)>,
}

impl CtlRanges {
    /// Total blocks under compiler control.
    pub fn ctl_blocks(&self) -> usize {
        self.ctl.iter().map(|(f, e)| e - f).sum()
    }

    /// Total boundary words.
    pub fn boundary_words(&self) -> usize {
        self.boundary.iter().map(|(_, l)| l).sum()
    }
}

/// Apply `shmem_limits` to every run of a linearized section.
pub fn shmem_limits(runs: &LinearRanges, words_per_block: usize) -> CtlRanges {
    let bs = words_per_block * 8;
    let mut out = CtlRanges::default();
    for (start, len) in runs.iter_runs() {
        if len == 0 {
            continue;
        }
        let sub = block_subset(start * 8, (start + len) * 8, bs);
        if sub.is_empty() {
            out.boundary.push((start, len));
            continue;
        }
        if sub.head_bytes > 0 {
            out.boundary.push((start, sub.head_bytes / 8));
        }
        out.ctl.push((sub.first_block, sub.end_block));
        if sub.tail_bytes > 0 {
            out.boundary
                .push((sub.end_block * words_per_block, sub.tail_bytes / 8));
        }
    }
    // Coalesce adjacent ctl ranges (several exactly-adjacent runs, e.g.
    // whole columns, merge into one range → one bulk train).
    out.ctl.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(out.ctl.len());
    for (f, e) in out.ctl.drain(..) {
        match merged.last_mut() {
            Some(last) if last.1 == f => last.1 = e,
            _ => merged.push((f, e)),
        }
    }
    out.ctl = merged;
    out
}

/// Blocks covered (fully or partially) by a set of word runs — the blocks
/// the *default* protocol must make accessible for the section.
pub fn covering_blocks(runs: &LinearRanges, words_per_block: usize) -> Vec<(usize, usize)> {
    let mut raw: Vec<(usize, usize)> = runs
        .iter_runs()
        .filter(|&(_, len)| len > 0)
        .map(|(start, len)| covering_range(start, len, words_per_block))
        .collect();
    let mut merged = Vec::new();
    merge_block_ranges(&mut raw, &mut merged);
    merged
}

/// The block range `[first, end)` covering the `len > 0` words at `start`.
pub(crate) fn covering_range(start: usize, len: usize, words_per_block: usize) -> (usize, usize) {
    (
        start / words_per_block,
        (start + len).div_ceil(words_per_block),
    )
}

/// Sort `raw` block ranges and coalesce the overlapping and the adjacent
/// into `merged` (cleared first): both buffers are the caller's, so the
/// engine's per-superstep inspector recycles their capacity.
pub(crate) fn merge_block_ranges(raw: &mut [(usize, usize)], merged: &mut Vec<(usize, usize)>) {
    merged.clear();
    raw.sort_unstable();
    for &(f, e) in raw.iter() {
        match merged.last_mut() {
            Some(last) if f <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((f, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_section::{Range, StridedRange};

    fn runs_of(v: &[(usize, usize)]) -> LinearRanges {
        LinearRanges {
            runs: v
                .iter()
                .map(|&(base, run_len)| StridedRange {
                    base,
                    run_len,
                    stride: 0,
                    count: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn shmem_limits_aligned_column() {
        // One run of 256 words starting block-aligned: all ctl, no boundary.
        let cr = shmem_limits(&runs_of(&[(256, 256)]), 16);
        assert_eq!(cr.ctl, vec![(16, 32)]);
        assert!(cr.boundary.is_empty());
        assert_eq!(cr.ctl_blocks(), 16);
    }

    #[test]
    fn shmem_limits_unaligned_has_boundaries() {
        // Run 10..300: head 10..16, ctl blocks 1..18, tail 288..300.
        let cr = shmem_limits(&runs_of(&[(10, 290)]), 16);
        assert_eq!(cr.ctl, vec![(1, 18)]);
        assert_eq!(cr.boundary, vec![(10, 6), (288, 12)]);
        assert_eq!(cr.boundary_words(), 18);
    }

    #[test]
    fn shmem_limits_tiny_run_all_boundary() {
        let cr = shmem_limits(&runs_of(&[(3, 8)]), 16);
        assert!(cr.ctl.is_empty());
        assert_eq!(cr.boundary, vec![(3, 8)]);
    }

    #[test]
    fn shmem_limits_merges_adjacent() {
        // Two adjacent aligned runs merge into one ctl range.
        let cr = shmem_limits(&runs_of(&[(0, 128), (128, 128)]), 16);
        assert_eq!(cr.ctl, vec![(0, 16)]);
    }

    #[test]
    fn covering_blocks_rounds_out() {
        let cb = covering_blocks(&runs_of(&[(10, 10)]), 16);
        assert_eq!(cb, vec![(0, 2)]);
        let cb2 = covering_blocks(&runs_of(&[(0, 16), (16, 16)]), 16);
        assert_eq!(cb2, vec![(0, 2)]);
        let cb3 = covering_blocks(&runs_of(&[(0, 8), (64, 8)]), 16);
        assert_eq!(cb3, vec![(0, 1), (4, 5)]);
    }

    #[test]
    fn meta_runs_shift_by_base() {
        let meta = ArrayMeta {
            id: ArrayId(0),
            base: 1024,
            layout: ColumnMajor::new(&[8, 8]),
        };
        let sec = Section::new(vec![Range::new(0, 7), Range::new(2, 3)]);
        let lr = meta.runs(&sec).unwrap();
        let runs: Vec<_> = lr.iter_runs().collect();
        assert_eq!(runs[0].0, 1024 + 16);
    }

    #[test]
    fn opt_level_presets() {
        assert!(!OptLevel::unopt().ctl);
        assert!(OptLevel::base().ctl && !OptLevel::base().bulk);
        assert!(OptLevel::base_bulk().bulk && !OptLevel::base_bulk().rtoe);
        assert!(OptLevel::full().rtoe && !OptLevel::full().pre);
        assert!(OptLevel::full_pre().pre);
    }
}
