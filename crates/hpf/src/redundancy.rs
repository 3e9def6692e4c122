//! Redundant-communication elimination (§4.3).
//!
//! "If there is no intervening write to the same non-owner read data
//! between two loops, it need not be re-communicated at the second loop."
//! The paper casts this as partial redundancy elimination and leaves the
//! implementation to future work; we implement the run-time equivalent: a
//! transfer cache keyed by (reader, array, block range) recording the
//! epoch at which the data was delivered, invalidated by any overlapping
//! write. A cached, still-valid transfer is skipped entirely — no
//! `implicit_writable`, no send, no receive wait.
//!
//! Used only together with run-time overhead elimination (the reader's
//! tags must survive the loop for the cached copy to stay accessible).

use std::collections::BTreeMap;

/// Epoch counter: one tick per parallel-loop execution.
pub(crate) type Epoch = u64;

/// Delivered block intervals `(first, end, epoch)` for one (reader, array).
type DeliveryList = Vec<(usize, usize, Epoch)>;

/// Per-array log of written word runs, with the epoch of each write.
#[derive(Default, Debug)]
struct WriteLog {
    /// (start, len, epoch), appended in epoch order.
    writes: Vec<(usize, usize, Epoch)>,
}

const WRITE_LOG_CAP: usize = 16_384;

/// The transfer cache plus write logs.
#[derive(Default, Debug)]
pub(crate) struct PreCache {
    epoch: Epoch,
    logs: BTreeMap<usize, WriteLog>,
    /// (reader, array) → delivered block intervals with their epochs.
    delivered: BTreeMap<(usize, usize), DeliveryList>,
    /// Statistics: transfers skipped as redundant.
    pub skipped: u64,
    /// Statistics: transfers actually performed.
    pub performed: u64,
}

impl PreCache {
    /// Create an empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Advance to the next parallel loop.
    pub(crate) fn tick(&mut self) -> Epoch {
        self.epoch += 1;
        self.epoch
    }

    /// The current epoch: the last tick.
    pub(crate) fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Record that `array`'s word run `(start, len)` was written this
    /// epoch (from the loop's declared write sections).
    pub(crate) fn record_write(&mut self, array: usize, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let log = self.logs.entry(array).or_default();
        log.writes.push((start, len, self.epoch));
        if log.writes.len() > WRITE_LOG_CAP {
            // Conservative compaction: drop all cache entries for this
            // array and restart its log.
            log.writes.clear();
            self.delivered.retain(|&(_, a), _| a != array);
        }
    }

    /// True if no recorded write overlaps words `[ws, we)` of `array`
    /// after epoch `since`.
    fn clean_since(&self, array: usize, ws: usize, we: usize, since: Epoch) -> bool {
        if let Some(log) = self.logs.get(&array) {
            for &(start, len, ep) in log.writes.iter().rev() {
                if ep <= since {
                    break; // older writes were visible in the delivery
                }
                if start < we && start + len > ws {
                    return false;
                }
            }
        }
        true
    }

    /// Is the block range `[first, end)` of `array` still valid at
    /// `reader` from previous deliveries — i.e. covered by the union of
    /// delivered intervals that have seen no overlapping write since?
    pub(crate) fn is_valid(
        &self,
        reader: usize,
        array: usize,
        first: usize,
        end: usize,
        words_per_block: usize,
    ) -> bool {
        if end <= first {
            return true;
        }
        let Some(entries) = self.delivered.get(&(reader, array)) else {
            return false;
        };
        let mut valid: Vec<(usize, usize)> = entries
            .iter()
            .filter(|&&(f, e, ep)| {
                self.clean_since(array, f * words_per_block, e * words_per_block, ep)
            })
            .map(|&(f, e, _)| (f, e))
            .collect();
        valid.sort_unstable();
        // Sweep: does the union of valid intervals cover [first, end)?
        let mut need = first;
        for (f, e) in valid {
            if f > need {
                return false;
            }
            need = need.max(e);
            if need >= end {
                return true;
            }
        }
        false
    }

    /// Record delivery of `[first, end)` of `array` to `reader` now.
    pub(crate) fn record_delivery(
        &mut self,
        reader: usize,
        array: usize,
        first: usize,
        end: usize,
    ) {
        let entries = self.delivered.entry((reader, array)).or_default();
        entries.push((first, end, self.epoch));
        // Bound per-key state: drop the oldest deliveries beyond a small
        // window (conservative — merely forgets skippable transfers).
        const DELIVERY_CAP: usize = 64;
        if entries.len() > DELIVERY_CAP {
            entries.drain(..entries.len() - DELIVERY_CAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_range_is_not_valid() {
        let c = PreCache::new();
        assert!(!c.is_valid(1, 0, 0, 4, 16));
    }

    #[test]
    fn delivery_then_valid_until_written() {
        let mut c = PreCache::new();
        c.tick();
        c.record_delivery(1, 0, 0, 4);
        c.tick();
        assert!(c.is_valid(1, 0, 0, 4, 16));
        // A write elsewhere in the array does not invalidate.
        c.record_write(0, 1000, 50);
        assert!(c.is_valid(1, 0, 0, 4, 16));
        // An overlapping write does (blocks 0..4 = words 0..64).
        c.record_write(0, 60, 10);
        assert!(!c.is_valid(1, 0, 0, 4, 16));
    }

    #[test]
    fn writes_before_delivery_do_not_invalidate() {
        let mut c = PreCache::new();
        c.tick();
        c.record_write(0, 0, 64);
        c.record_delivery(1, 0, 0, 4);
        c.tick();
        assert!(c.is_valid(1, 0, 0, 4, 16));
    }

    #[test]
    fn different_reader_or_range_is_separate() {
        let mut c = PreCache::new();
        c.tick();
        c.record_delivery(1, 0, 0, 4);
        assert!(!c.is_valid(2, 0, 0, 4, 16));
        assert!(!c.is_valid(1, 0, 0, 5, 16));
        assert!(!c.is_valid(1, 1, 0, 4, 16));
    }

    #[test]
    fn log_compaction_conservatively_invalidates() {
        let mut c = PreCache::new();
        c.tick();
        c.record_delivery(1, 0, 0, 4);
        for i in 0..WRITE_LOG_CAP + 1 {
            c.record_write(0, 100_000 + i, 1);
        }
        // Cache entry for array 0 dropped by compaction.
        assert!(!c.is_valid(1, 0, 0, 4, 16));
    }
}
