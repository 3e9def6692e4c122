//! Multi-word cache-block subsetting (`shmem_limits`, paper §3 and §4.2).
//!
//! A coherence unit (cache block) typically holds several array elements,
//! possibly even elements of *different* columns (`a(513,1)` and `a(1,2)`
//! can share a block for a 513×513 array). The compiler may only take a
//! block under explicit control if *every* element in it is covered by its
//! analysis. `shmem_limits` therefore shrinks the candidate byte range
//! `[lo, hi)` to the largest block-aligned subrange `[lo', hi')` with
//! `lo' ≥ lo`, `hi' ≤ hi`; the boundary remainders stay under the default
//! protocol.

/// Result of subsetting a byte range to whole cache blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockSubset {
    /// First block index fully inside the range, inclusive.
    pub first_block: usize,
    /// One past the last block fully inside the range.
    pub end_block: usize,
    /// Bytes before the first whole block (left to the default protocol).
    pub head_bytes: usize,
    /// Bytes after the last whole block (left to the default protocol).
    pub tail_bytes: usize,
}

impl BlockSubset {
    /// Number of whole blocks under compiler control.
    pub fn block_count(&self) -> usize {
        self.end_block.saturating_sub(self.first_block)
    }

    /// True if no whole block fits.
    pub fn is_empty(&self) -> bool {
        self.block_count() == 0
    }
}

/// Shrink the byte range `[lo, hi)` to whole blocks of `block_size` bytes.
///
/// # Panics
/// Panics if `block_size` is zero or not a power of two (Tempest blocks are
/// 32–128 bytes).
pub fn block_subset(lo: usize, hi: usize, block_size: usize) -> BlockSubset {
    assert!(
        block_size.is_power_of_two(),
        "block size must be a power of two"
    );
    if hi <= lo {
        return BlockSubset {
            first_block: lo / block_size,
            end_block: lo / block_size,
            head_bytes: 0,
            tail_bytes: 0,
        };
    }
    let first_block = lo.div_ceil(block_size);
    let end_block = hi / block_size;
    if end_block <= first_block {
        // The range fits strictly inside one or two blocks; nothing is
        // block-aligned, everything is boundary.
        return BlockSubset {
            first_block,
            end_block: first_block,
            head_bytes: hi - lo,
            tail_bytes: 0,
        };
    }
    BlockSubset {
        first_block,
        end_block,
        head_bytes: first_block * block_size - lo,
        tail_bytes: hi - end_block * block_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_range_all_blocks() {
        let s = block_subset(0, 512, 128);
        assert_eq!(s.first_block, 0);
        assert_eq!(s.end_block, 4);
        assert_eq!(s.head_bytes, 0);
        assert_eq!(s.tail_bytes, 0);
        assert_eq!(s.block_count(), 4);
    }

    #[test]
    fn unaligned_head_and_tail() {
        let s = block_subset(100, 1000, 128);
        assert_eq!(s.first_block, 1);
        assert_eq!(s.end_block, 7);
        assert_eq!(s.head_bytes, 128 - 100);
        assert_eq!(s.tail_bytes, 1000 - 7 * 128);
    }

    #[test]
    fn too_small_for_any_block() {
        let s = block_subset(10, 90, 128);
        assert!(s.is_empty());
        assert_eq!(s.head_bytes, 80);
    }

    #[test]
    fn spans_boundary_but_no_whole_block() {
        let s = block_subset(100, 200, 128);
        assert!(s.is_empty());
        assert_eq!(s.head_bytes, 100);
    }

    #[test]
    fn empty_range() {
        let s = block_subset(256, 256, 128);
        assert!(s.is_empty());
        assert_eq!(s.head_bytes, 0);
        assert_eq!(s.tail_bytes, 0);
    }

    #[test]
    fn exactly_one_block() {
        let s = block_subset(128, 256, 128);
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.first_block, 1);
    }

    #[test]
    fn invariant_head_plus_blocks_plus_tail() {
        for (lo, hi) in [(0usize, 1024usize), (33, 997), (1, 129), (127, 129)] {
            for bs in [32usize, 64, 128] {
                let s = block_subset(lo, hi, bs);
                assert_eq!(
                    s.head_bytes + s.block_count() * bs + s.tail_bytes,
                    hi - lo,
                    "lo={lo} hi={hi} bs={bs}"
                );
            }
        }
    }
}
