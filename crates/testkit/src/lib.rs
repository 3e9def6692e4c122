//! # fgdsm-testkit: deterministic randomized-testing support
//!
//! A tiny, dependency-free substitute for the external `rand` + `proptest`
//! crates, so the workspace builds and tests with no registry access. Two
//! pieces:
//!
//! * [`Rng`] — a SplitMix64 PRNG (Steele, Lea & Flood, OOPSLA '14 mixing
//!   constants). Deterministic, seedable, and good enough for generating
//!   test inputs — not cryptographic.
//! * [`check_cases`] — a minimal property-harness: runs a closure over N
//!   independently seeded cases, reporting the failing case's seed so a
//!   failure reproduces with `Rng::new(seed)`.
//!
//! The randomized suites that use this crate (`tests/proptest*.rs` in
//! each crate) run under plain `cargo test --workspace`.

#![forbid(unsafe_code)]

/// SplitMix64: a 64-bit splittable PRNG with strong mixing and a one-word
/// state. Every generator method is a thin shaping of [`Rng::next_u64`].
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded generator; the same seed always yields the same sequence.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform `u64` in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform boolean.
    pub fn flag(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0, xs.len())]
    }

    /// A vector of `len` items drawn from `f`.
    pub fn vec<T>(&mut self, len: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }

    /// Pick one element of a non-empty slice, by value.
    ///
    /// ```
    /// let mut r = fgdsm_testkit::Rng::new(9);
    /// let v = r.choice(&[10, 20, 30]);
    /// assert!([10, 20, 30].contains(&v));
    /// ```
    pub fn choice<T: Clone>(&mut self, xs: &[T]) -> T {
        self.pick(xs).clone()
    }

    /// Fisher–Yates shuffle in place. The result is a uniform permutation
    /// of the input (for an ideal generator).
    ///
    /// ```
    /// let mut r = fgdsm_testkit::Rng::new(3);
    /// let mut xs: Vec<usize> = (0..8).collect();
    /// r.shuffle(&mut xs);
    /// xs.sort();
    /// assert_eq!(xs, (0..8).collect::<Vec<_>>());
    /// ```
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i + 1);
            xs.swap(i, j);
        }
    }

    /// Weighted pick: returns index `i` with probability
    /// `weights[i] / Σ weights`. Zero-weight entries are never picked.
    /// Panics if the weights are empty or all zero.
    ///
    /// ```
    /// let mut r = fgdsm_testkit::Rng::new(5);
    /// for _ in 0..100 {
    ///     assert_eq!(r.weighted(&[0, 7, 0]), 1);
    /// }
    /// ```
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "weighted: empty or all-zero weights");
        let mut x = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        unreachable!()
    }

    /// Weighted pick over `(weight, value)` pairs, by value.
    ///
    /// ```
    /// let mut r = fgdsm_testkit::Rng::new(11);
    /// let v = r.weighted_choice(&[(1, "a"), (3, "b")]);
    /// assert!(v == "a" || v == "b");
    /// ```
    pub fn weighted_choice<T: Clone>(&mut self, pairs: &[(u64, T)]) -> T {
        let weights: Vec<u64> = pairs.iter().map(|(w, _)| *w).collect();
        pairs[self.weighted(&weights)].1.clone()
    }
}

/// Base seed shared by the workspace's suites: any fixed value works; this
/// one spells "fgdsm" in hex-ish leetspeak so greps find it.
pub const BASE_SEED: u64 = 0xF6D5_2025_0000_0001;

/// Run `prop` over `cases` independently seeded cases. Each case gets a
/// fresh [`Rng`]; on panic the harness re-raises with the case index and
/// seed in the message so the failure replays exactly.
pub fn check_cases(cases: u64, prop: impl Fn(&mut Rng)) {
    for case in 0..cases {
        let seed = BASE_SEED ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            prop(&mut rng);
        }));
        if let Err(e) = result {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!("property failed at case {case} (seed {seed:#x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequences() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let v = r.range(3, 17);
            assert!((3..17).contains(&v));
            let w = r.range_i64(-5, 5);
            assert!((-5..5).contains(&w));
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn distribution_is_not_degenerate() {
        let mut r = Rng::new(1);
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[r.range(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        let mut xs: Vec<u32> = (0..32).collect();
        let mut ys = xs.clone();
        a.shuffle(&mut xs);
        b.shuffle(&mut ys);
        assert_eq!(xs, ys, "same seed, same permutation");
        let mut sorted = xs.clone();
        sorted.sort();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        // 32! >> 2^64 states, but any fixed seed must actually move things.
        assert_ne!(xs, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = Rng::new(123);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.weighted(&[2, 0, 1, 1])] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight never picked");
        assert!(counts[0] > counts[2], "weight 2 beats weight 1: {counts:?}");
        assert!(counts[2] > 0 && counts[3] > 0);
    }

    #[test]
    fn check_cases_reports_seed() {
        let err = std::panic::catch_unwind(|| {
            check_cases(4, |rng| {
                // Fail deterministically on every case.
                let v = rng.below(1_000_000);
                assert!(v == u64::MAX, "forced failure {v}");
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("case 0"), "got: {msg}");
        assert!(msg.contains("seed"), "got: {msg}");
    }
}
