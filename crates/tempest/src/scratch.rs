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
//! blocks at a time. [`DirtySet`] adds a summary of which of its words
//! hold a member, so a scan over a wide range visits only those.

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
    pub fn set_range(&mut self, first: usize, end: usize, present: bool) {
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

    /// Word `w` of the set: bit `i` is block `64 * w + i`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
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

/// A [`BlockSet`] plus its word-occupancy summary: bit `w` of the
/// summary is set while word `w` of the set has a member. Only the dirty
/// trackers — a shard's dirty tags, the directory's dirty blocks — keep
/// one: their members are few and scattered, so a scan over a range
/// visits the words with members, not the range. The tag and ownership
/// sets, which every fault writes, go without.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtySet {
    set: BlockSet,
    occupied: Vec<u64>,
}

impl DirtySet {
    /// The empty set over blocks `0..n_blocks`.
    pub fn new(n_blocks: usize) -> Self {
        let set = BlockSet::new(n_blocks);
        let occupied = vec![0; set.words.len().div_ceil(64)];
        DirtySet { set, occupied }
    }

    /// Make `b` a member (`present`) or a non-member.
    #[inline]
    pub fn set(&mut self, b: usize, present: bool) {
        self.set.set(b, present);
        self.note(b / 64);
    }

    /// [`DirtySet::set`] for every block of `[first, end)`.
    pub fn set_range(&mut self, first: usize, end: usize, present: bool) {
        self.set.set_range(first, end, present);
        if first < end {
            (first / 64..=(end - 1) / 64).for_each(|w| self.note(w));
        }
    }

    /// Bring word `w`'s summary bit up to date.
    #[inline]
    fn note(&mut self, w: usize) {
        let bit = 1u64 << (w % 64);
        match self.set.words[w] != 0 {
            true => self.occupied[w / 64] |= bit,
            false => self.occupied[w / 64] &= !bit,
        }
    }

    /// The members, as a plain set.
    pub fn blocks(&self) -> &BlockSet {
        &self.set
    }

    /// Call `emit(s, t)` for each maximal run `[s, t)` of blocks inside
    /// `[first, end)` whose bit is set in `word(w)`, ascending, reading
    /// only the words where `self` or `other` (a set over the same block
    /// range) has a member — `word` must be empty on every other word.
    pub fn runs_where(
        &self,
        other: Option<&DirtySet>,
        first: usize,
        end: usize,
        word: impl Fn(usize) -> u64,
        mut emit: impl FnMut(usize, usize),
    ) {
        if first >= end {
            return;
        }
        let (w0, w1) = (first / 64, (end - 1) / 64);
        let mut open: Option<(usize, usize)> = None;
        for s in w0 / 64..=w1 / 64 {
            let lo = if s == w0 / 64 { w0 % 64 } else { 0 };
            let hi = if s == w1 / 64 { w1 % 64 + 1 } else { 64 };
            let mut occupied =
                (self.occupied[s] | other.map_or(0, |o| o.occupied[s])) & span(lo, hi);
            while occupied != 0 {
                let w = s * 64 + occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                let lo = if w == w0 { first % 64 } else { 0 };
                let hi = if w == w1 { (end - 1) % 64 + 1 } else { 64 };
                let mut bits = word(w) & span(lo, hi);
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    let j = i + (bits >> i).trailing_ones() as usize;
                    bits &= !span(i, j);
                    let (i, j) = (w * 64 + i, w * 64 + j);
                    match &mut open {
                        Some(run) if run.1 == i => run.1 = j,
                        _ => {
                            if let Some((a, b)) = open.replace((i, j)) {
                                emit(a, b);
                            }
                        }
                    }
                }
            }
        }
        if let Some((a, b)) = open {
            emit(a, b);
        }
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

    /// The summary follows the set through single and range writes, and
    /// the run scan finds exactly the maximal runs of a word predicate
    /// that is empty wherever both sets are.
    #[test]
    fn dirty_set_run_scan_matches_the_per_block_definition() {
        const N: usize = 64 * 140;
        let mut rng = fgdsm_testkit::Rng::new(fgdsm_testkit::BASE_SEED);
        let (mut a, mut b) = (DirtySet::new(N), DirtySet::new(N));
        for step in 0..300 {
            let set = if step % 2 == 0 { &mut a } else { &mut b };
            let f = rng.range(0, N);
            match rng.flag() {
                true => set.set(f, rng.flag()),
                false => set.set_range(f, rng.range(f, (f + 300).min(N) + 1), rng.flag()),
            }
            let (first, end) = (rng.range(0, N), rng.range(0, N + 1));
            let member =
                |x: usize| a.blocks().contains(x) || b.blocks().contains(x) && !x.is_multiple_of(3);
            let word = |w: usize| {
                let bits = (0..64).filter(|i| w * 64 + i < N && member(w * 64 + i));
                bits.fold(0u64, |m, i| m | 1 << i)
            };
            let mut runs = Vec::new();
            a.runs_where(Some(&b), first, end, word, |s, t| runs.push((s, t)));
            let mut want: Vec<(usize, usize)> = Vec::new();
            for m in (first..end).filter(|&x| member(x)) {
                match want.last_mut() {
                    Some((_, t)) if *t == m => *t = m + 1,
                    _ => want.push((m, m + 1)),
                }
            }
            assert_eq!(runs, want);
        }
    }
}
