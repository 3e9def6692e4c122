//! The process-wide segment arena: the memory one `execute` leaves
//! behind, kept for the next.
//!
//! A node maps its copy of the shared segment page by page on first
//! touch, and the simulator charges that mapping in virtual time. The
//! host would pay it again on every execute, in real page faults or a
//! full-segment `memset`, if every cluster asked the allocator for fresh
//! full-size buffers. The arena holds, behind one lock, at most one
//! cluster's segments — keyed by `(nprocs, seg_words)` and indexed by
//! node id, so a node's buffer keeps the pages that node touched — and
//! one gather output buffer.
//!
//! The rule it relies on: every segment it holds is all-zero.
//! [`Cluster::recycle`](crate::Cluster::recycle) restores that by
//! clearing exactly the pages its node mapped, since no execute writes
//! outside a page its node has mapped (checked in debug builds). The
//! output buffer carries no such rule: a gather overwrites every word
//! of it.

use std::sync::{Mutex, MutexGuard, PoisonError};

struct Arena {
    /// `(nprocs, seg_words)` of the segments held.
    key: (usize, usize),
    /// One all-zero segment per node id; `None` while a cluster has it.
    segments: Vec<Option<Vec<f64>>>,
    /// The last gather output handed back.
    output: Option<Vec<f64>>,
}

static ARENA: Mutex<Arena> = Mutex::new(Arena {
    key: (0, 0),
    segments: Vec::new(),
    output: None,
});

/// The arena, also after a thread panicked holding it: every update
/// leaves it holding only all-zero segments, so it is valid at every
/// step.
fn arena() -> MutexGuard<'static, Arena> {
    ARENA.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An all-zero segment of `seg_words` for `node` of an `nprocs`-node
/// cluster: the one that node had last, when the arena holds a cluster
/// of this shape, else a fresh one. A cluster of another shape frees
/// what the arena held.
pub(crate) fn segment(nprocs: usize, node: usize, seg_words: usize) -> Vec<f64> {
    let kept = {
        let mut a = arena();
        if a.key != (nprocs, seg_words) {
            a.segments.clear();
        }
        a.segments.get_mut(node).and_then(Option::take)
    };
    kept.unwrap_or_else(|| vec![0.0; seg_words])
}

/// Take back a cluster's segments, indexed by node id. Each must be
/// all-zero. They replace a cluster of another shape; a slot another
/// cluster of this shape already refilled keeps its buffer.
pub(crate) fn put_segments(seg_words: usize, segments: Vec<Vec<f64>>) {
    let mut a = arena();
    let key = (segments.len(), seg_words);
    if a.key != key {
        a.key = key;
        a.segments.clear();
        a.segments.resize(key.0, None);
    }
    for (slot, s) in a.segments.iter_mut().zip(segments) {
        slot.get_or_insert(s);
    }
}

/// A buffer of `words` for a gather that overwrites every word of it:
/// the one last handed back when its length fits, else a fresh one.
pub fn output(words: usize) -> Vec<f64> {
    let kept = arena().output.take().filter(|o| o.len() == words);
    kept.unwrap_or_else(|| vec![0.0; words])
}

/// Hand back a gather output its owner is done with.
pub fn put_output(buf: Vec<f64>) {
    if !buf.is_empty() {
        arena().output = Some(buf);
    }
}
