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
//! on every tag or directory transition, and that range scans read 64
//! blocks at a time.

/// Pads `T` to a full cache line so adjacent slots in a `Vec` or array
/// never share a line — writes from distinct threads stay on distinct
/// lines and cannot ping-pong. Every x86-64 and most aarch64 parts use
/// 64-byte lines; padding to 64 on a 128-byte-line part still halves the
/// collision rate and never hurts correctness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

/// A set of block indices as a word bitset: `set` is O(1) and never
/// allocates, and [`BlockSet::iter`] yields members in ascending order —
/// the dirty-tag and dirty-directory trackers flip a bit on every tag or
/// directory transition, where a tree set paid a node allocation every
/// few flips. Ranges are written and scanned a word at a time: a shard's
/// access tags and the directory's exclusive owners are such sets, and
/// the default protocol's range walk looks for the first block a run
/// faults on with [`BlockSet::first_absent`] /
/// [`BlockSet::first_not_in_both`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSet {
    words: Vec<u64>,
}

/// Bits `lo..hi` of a word (`lo < hi <= 64`).
#[inline]
fn span(lo: usize, hi: usize) -> u64 {
    (u64::MAX >> (64 - (hi - lo))) << lo
}

/// The first `b` of `[first, end)` whose bit is set in `word(b / 64)`.
#[inline]
fn first_one(first: usize, end: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    if first >= end {
        return None;
    }
    let mut w = first / 64;
    let mut bits = word(w) & (u64::MAX << (first % 64));
    loop {
        if bits != 0 {
            let b = w * 64 + bits.trailing_zeros() as usize;
            return (b < end).then_some(b);
        }
        w += 1;
        if w * 64 >= end {
            return None;
        }
        bits = word(w);
    }
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

    /// [`BlockSet::set`] for every block of `[first, end)`, a word at a
    /// time (nothing when the range is empty).
    pub(crate) fn set_range(&mut self, first: usize, end: usize, present: bool) {
        if first >= end {
            return;
        }
        let (w0, w1) = (first / 64, (end - 1) / 64);
        for w in w0..=w1 {
            let lo = if w == w0 { first % 64 } else { 0 };
            let hi = if w == w1 { (end - 1) % 64 + 1 } else { 64 };
            if present {
                self.words[w] |= span(lo, hi);
            } else {
                self.words[w] &= !span(lo, hi);
            }
        }
    }

    /// Whether `b` is a member.
    #[inline]
    pub fn contains(&self, b: usize) -> bool {
        self.words[b / 64] >> (b % 64) & 1 != 0
    }

    /// The first block of `[first, end)` that is not a member.
    pub fn first_absent(&self, first: usize, end: usize) -> Option<usize> {
        first_one(first, end, |w| !self.words[w])
    }

    /// The first block of `[first, end)` missing from `self` or from
    /// `other` — the first zero of their intersection.
    pub fn first_not_in_both(&self, other: &BlockSet, first: usize, end: usize) -> Option<usize> {
        first_one(first, end, |w| !(self.words[w] & other.words[w]))
    }

    /// The first maximal run `[s, t)` of non-members inside
    /// `[first, end)`.
    pub fn first_absent_run(&self, first: usize, end: usize) -> Option<(usize, usize)> {
        let s = self.first_absent(first, end)?;
        let t = first_one(s, end, |w| self.words[w]).unwrap_or(end);
        Some((s, t))
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
        members(self.words.iter().copied())
    }

    /// The members of both `self` and `other` (a set over the same block
    /// range), ascending, found a word at a time.
    pub fn intersection<'a>(&'a self, other: &'a BlockSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.words.len(), other.words.len(), "block ranges differ");
        members(self.words.iter().zip(&other.words).map(|(a, b)| a & b))
    }
}

/// The set bits of a word sequence, as block indices, ascending.
fn members(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(i, word)| {
        std::iter::successors((word != 0).then_some(word), |&w| {
            let rest = w & (w - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |w| i * 64 + w.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CACHE_LINE_BYTES: usize = 64;

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
        assert_eq!(s.iter().next(), None);
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
        assert_eq!(s.iter().next(), Some(63));
        assert_eq!(t.intersection(&s).collect::<Vec<_>>(), [63, 65, 130, 199]);
    }

    /// The word-at-a-time range writes and scans against their per-block
    /// definitions, on ranges that start, end and straddle word edges.
    #[test]
    fn block_set_ranges_match_the_per_block_definitions() {
        const N: usize = 200;
        let mut rng = fgdsm_testkit::Rng::new(fgdsm_testkit::BASE_SEED);
        let (mut a, mut b) = (BlockSet::new(N), BlockSet::new(N));
        let (mut ma, mut mb) = ([false; N], [false; N]);
        let edges = [0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 199, 200];
        for step in 0..400 {
            let pick = |rng: &mut fgdsm_testkit::Rng| match rng.flag() {
                true => *rng.pick(&edges),
                false => rng.range(0, N + 1),
            };
            let (f, e) = (pick(&mut rng), pick(&mut rng));
            let present = rng.flag();
            let (set, model) = match step % 2 {
                0 => (&mut a, &mut ma),
                _ => (&mut b, &mut mb),
            };
            set.set_range(f, e, present);
            (f..e).for_each(|x| model[x] = present);
            assert!((0..N).all(|x| a.contains(x) == ma[x] && b.contains(x) == mb[x]));
            assert_eq!(a.first_absent(f, e), (f..e).find(|&x| !ma[x]));
            assert_eq!(
                a.first_not_in_both(&b, f, e),
                (f..e).find(|&x| !(ma[x] && mb[x]))
            );
            let run = a.first_absent(f, e).map(|s| {
                let t = (s..e).find(|&x| ma[x]).unwrap_or(e);
                (s, t)
            });
            assert_eq!(a.first_absent_run(f, e), run);
        }
    }
}
