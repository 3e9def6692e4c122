//! Layout helpers for the executor's hot path.
//!
//! [`CacheAligned`] is a `#[repr(align(64))]` wrapper that pads its
//! contents to a full cache line, used for per-node slots that distinct
//! worker threads write concurrently (the compute phase's reduction
//! partials). Without it, eight adjacent 8-byte partials share one line
//! and every worker's store invalidates every other worker's cache — the
//! exact false-sharing ping-pong the PR-5 detector flags in simulated
//! apps, happening for real inside the simulator's own host loop.
//!
//! [`BlockSet`] is a word bitset over block indices for state that flips
//! on every tag or directory transition.

/// Size in bytes of the cache lines we pad for. Every x86-64 and most
/// aarch64 parts use 64-byte lines; padding to 64 on a 128-byte-line
/// part still halves the collision rate and never hurts correctness.
pub const CACHE_LINE_BYTES: usize = 64;

/// Pads `T` to a full cache line so adjacent slots in a `Vec` or array
/// never share a line — writes from distinct threads stay on distinct
/// lines and cannot ping-pong.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

/// A set of block indices as a word bitset: `set` is O(1) and never
/// allocates, and [`BlockSet::iter`] yields members in ascending order —
/// the dirty-tag and dirty-directory trackers flip a bit on every tag or
/// directory transition, where a tree set paid a node allocation every
/// few flips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSet {
    words: Vec<u64>,
}

impl BlockSet {
    /// The empty set over blocks `0..n_blocks`.
    pub fn new(n_blocks: usize) -> Self {
        BlockSet {
            words: vec![0; n_blocks.div_ceil(64)],
        }
    }

    /// Make `b` a member (`present`) or a non-member.
    #[inline]
    pub fn set(&mut self, b: usize, present: bool) {
        let bit = 1u64 << (b % 64);
        if present {
            self.words[b / 64] |= bit;
        } else {
            self.words[b / 64] &= !bit;
        }
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Add every member of `other` (a set over the same block range).
    pub fn union_with(&mut self, other: &BlockSet) {
        assert_eq!(self.words.len(), other.words.len(), "block ranges differ");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            std::iter::successors((word != 0).then_some(word), |&w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_aligned_pads_to_a_line() {
        assert_eq!(std::mem::align_of::<CacheAligned<f64>>(), CACHE_LINE_BYTES);
        assert_eq!(std::mem::size_of::<CacheAligned<f64>>(), CACHE_LINE_BYTES);
        // Adjacent Vec slots land on distinct lines.
        let v = vec![CacheAligned(0.0f64); 4];
        let addrs: Vec<usize> = v.iter().map(|c| c as *const _ as usize).collect();
        for w in addrs.windows(2) {
            assert!(w[1] / CACHE_LINE_BYTES > w[0] / CACHE_LINE_BYTES);
        }
    }

    #[test]
    fn block_set_iterates_members_ascending() {
        let mut s = BlockSet::new(200);
        assert!(s.is_empty());
        for b in [199, 0, 64, 63, 65, 130] {
            s.set(b, true);
        }
        s.set(64, false);
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 63, 65, 130, 199]);
        let mut t = BlockSet::new(200);
        t.set(64, true);
        t.union_with(&s);
        assert_eq!(t.iter().collect::<Vec<_>>(), [0, 63, 64, 65, 130, 199]);
        s.set(0, false);
        assert!(!s.is_empty());
    }
}
