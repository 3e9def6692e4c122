//! Capacity-retaining scratch buffers and cache-line alignment helpers
//! for the executor's hot path.
//!
//! Every superstep used to reallocate its transfer plans, payload
//! staging vectors and per-phase scratch from a cold heap; across a
//! 100-iteration app that is thousands of allocator round-trips that
//! serve no purpose — the next superstep needs buffers of the same
//! shape. [`VecPool`] is the recycling layer: `take` hands back an
//! emptied buffer with its old capacity intact, `put` returns it. The
//! protocol's plan builders and the engine's per-phase scratch all draw
//! from pools like this, so steady-state supersteps allocate nothing.
//!
//! [`CacheAligned`] is the companion layout tool: a `#[repr(align(64))]`
//! wrapper that pads its contents to a full cache line, used for
//! per-node slots that distinct worker threads write concurrently
//! (compute-phase reduction partials, wave outcome slots). Without it,
//! eight adjacent 8-byte partials share one line and every worker's
//! store invalidates every other worker's cache — the exact
//! false-sharing ping-pong the PR-5 detector flags in simulated apps,
//! happening for real inside the simulator's own host loop.
//!
//! [`BlockSet`] is the third member: a word bitset over block indices for
//! state that flips on every tag or directory transition.

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

/// A free list of `Vec<T>` buffers that keeps capacity across uses.
/// `take` pops a recycled (empty, warm) buffer or creates a fresh one;
/// `put` clears a buffer and shelves it for the next superstep.
#[derive(Debug)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool { free: Vec::new() }
    }
}

impl<T> VecPool<T> {
    /// An empty buffer — recycled with its previous capacity if one is
    /// shelved, freshly allocated otherwise.
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Shelve `v` for reuse: contents dropped, capacity retained.
    pub fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        self.free.push(v);
    }

    /// Number of buffers currently shelved (diagnostics/tests).
    pub fn shelved(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_pool_retains_capacity() {
        let mut pool: VecPool<u64> = VecPool::default();
        let mut v = pool.take();
        assert_eq!(v.capacity(), 0);
        v.extend(0..1000);
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.shelved(), 1);
        let v2 = pool.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap, "recycled buffer keeps its capacity");
        assert_eq!(pool.shelved(), 0);
    }

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
