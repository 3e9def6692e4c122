//! A coarse cache-locality model for compute-time accounting.
//!
//! The paper's speedups are measured against a uniprocessor run whose
//! working set does not fit in cache ("they are not blocked for cache
//! performance, which explains the superlinear speedups"). Distributing an
//! array over 8 nodes shrinks each node's working set by ~8×, often moving
//! it from memory-bound to cache-resident. This model captures only that
//! first-order effect: per-element compute cost is inflated by a factor
//! that grows smoothly from 1 (fits in L2) toward `1 + max_penalty` (far
//! exceeds L2).

/// Compute-cost inflation as a function of per-node working-set size.
#[derive(Clone, Copy, Debug)]
pub struct CacheModel {
    /// Effective cache capacity in bytes (SS-20 HyperSPARC: 1 MB L2).
    pub capacity_bytes: u64,
    /// Asymptotic extra cost factor for working sets ≫ capacity.
    pub max_penalty: f64,
}

impl CacheModel {
    /// The paper machine's 1 MB L2 with a 60% out-of-cache penalty.
    pub fn paper() -> Self {
        CacheModel {
            capacity_bytes: 1 << 20,
            max_penalty: 0.6,
        }
    }

    /// Multiplicative factor applied to per-element compute cost for a
    /// working set of `ws_bytes`.
    pub fn factor(&self, ws_bytes: u64) -> f64 {
        if ws_bytes <= self.capacity_bytes {
            1.0
        } else {
            let excess = 1.0 - self.capacity_bytes as f64 / ws_bytes as f64;
            1.0 + self.max_penalty * excess
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_cache_is_free() {
        let m = CacheModel::paper();
        assert_eq!(m.factor(1 << 19), 1.0);
        assert_eq!(m.factor(1 << 20), 1.0);
    }

    #[test]
    fn penalty_grows_monotonically() {
        let m = CacheModel::paper();
        let f2 = m.factor(2 << 20);
        let f8 = m.factor(8 << 20);
        let f64m = m.factor(64 << 20);
        assert!(1.0 < f2 && f2 < f8 && f8 < f64m);
        assert!(f64m < 1.0 + m.max_penalty);
    }

    #[test]
    fn superlinear_speedup_possible() {
        // 8 MB total working set: uniprocessor pays the penalty, each of 8
        // nodes (1 MB each) does not → per-element speedup > 8 possible.
        let m = CacheModel::paper();
        let uni = m.factor(8 << 20);
        let node = m.factor(1 << 20);
        assert!(uni / node > 1.0);
    }
}
