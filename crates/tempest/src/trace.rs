//! Structured per-node event trace with virtual timestamps.
//!
//! Every observable protocol action — block faults, tag upgrades,
//! compiler-directed control calls, bulk transfers, messages, barriers,
//! reductions, superstep boundaries — is recorded as a typed [`Event`]
//! stamped with the acting node's virtual clock. The trace is the *single
//! source of truth* for run statistics: events are folded online into the
//! node's [`NodeStats`] as they are recorded, and the
//! [`ClusterReport`](crate::stats::ClusterReport) the executors hand back
//! is derived from the traces, so the Table 3 decomposition (compute vs.
//! communication time, miss counts) and the event log can never disagree.
//!
//! Each [`NodeTrace`] belongs to exactly one
//! [`NodeShard`](crate::shard::NodeShard), so recording an event during
//! the compute phase touches only shard-local state — no cross-node
//! synchronization, which is what lets the compute phase run on real
//! threads while staying deterministic.
//!
//! Recent events are additionally kept in a bounded ring buffer for
//! inspection and JSON export; when the ring wraps, only the raw entries
//! are dropped — the folded aggregates remain exact, and
//! `NodeTrace::dropped` reports how many entries fell off.

use crate::cluster::ChargeKind;
use crate::stats::NodeStats;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Default per-node ring capacity (entries kept for export).
pub(crate) const DEFAULT_RING_CAPACITY: usize = 4096;

/// Sentinel superstep index: the event happened outside any superstep
/// (initialization, final gather, the run-ending barrier).
pub const NO_STEP: u32 = u32::MAX;

/// Sentinel loop id: the event is not attributable to a parallel loop.
pub const NO_LOOP: u32 = u32::MAX;

/// Sentinel block index: the message is not attributable to one cache
/// block (reduction partials, marshalled multi-block payload remainders).
pub const NO_BLOCK: u32 = u32::MAX;

/// Sentinel array id: the transfer is not attributable to a source array.
pub const NO_ARRAY: u32 = u32::MAX;

/// Which kind of access-control fault a node took.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Load from an `Invalid` block: fetch a clean copy.
    Read,
    /// Store to an `Invalid` block: fetch an exclusive/writable copy.
    Write,
    /// Store to a `ReadOnly` copy: ownership upgrade.
    Upgrade,
    /// Store entering the multiple-writer (twin/diff) path.
    MultiWrite,
}

/// The compiler-directed protocol primitives of §4.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtlPrim {
    MkWritable,
    ImplicitWritable,
    ImplicitInvalidate,
    SendRange,
    ReadyToRecv,
    FlushRange,
}

/// One typed trace event. Variants carry exactly the quantities folded
/// into [`NodeStats`], so replaying a trace reproduces the aggregates.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Event {
    /// An access-control fault on `block`.
    Fault { block: usize, kind: FaultKind },
    /// A compiler-directed control call was issued (the node performing
    /// the work: the owner for sends/flushes, the user otherwise).
    Ctl { prim: CtlPrim },
    /// Blocks pushed to a consumer by a compiler-directed send:
    /// `blocks` contiguous blocks starting at `first_block`, carved out
    /// of array `array` by the compiler's contract ([`NO_ARRAY`] when the
    /// caller did not thread the array through).
    CtlSend {
        blocks: u64,
        first_block: u32,
        array: u32,
    },
    /// A message left this node carrying `bytes` of payload. `block` is
    /// the cache block the transfer serviced ([`NO_BLOCK`] when the
    /// payload is not block-addressed, e.g. reduction partials); bulk
    /// payloads spanning several contiguous blocks are attributed to
    /// their first block.
    Msg { bytes: u64, block: u32 },
    /// A message arrived at this node carrying `bytes` of payload. Every
    /// `Msg` on a sender has a matching `MsgRecv` on the destination, so
    /// the cluster-wide counters balance (see
    /// [`ClusterReport::traffic_balanced`](crate::stats::ClusterReport::traffic_balanced)).
    MsgRecv { bytes: u64 },
    /// Virtual time charged to this node's clock.
    Charge { kind: ChargeKind, ns: u64 },
    /// Protocol-handler occupancy executed on this node (already scaled
    /// for the cpu configuration).
    Handler { ns: u64 },
    /// Pages newly mapped on first touch.
    PageMap { pages: u64 },
    /// Time spent waiting for the others at a synchronization point.
    BarrierWait { ns: u64 },
    /// This node passed a global barrier.
    Barrier,
    /// This node participated in a reduction.
    Reduction,
    /// The executor finished superstep `step`, which ran parallel loop
    /// `loop_id` — consumers can segment the event stream on these
    /// markers without replaying engine state.
    Superstep { step: u32, loop_id: u32 },
}

/// An event plus the virtual time at which it completed on its node and
/// the superstep/loop context in force when it was recorded
/// ([`NO_STEP`]/[`NO_LOOP`] outside any superstep).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEntry {
    pub t_ns: u64,
    pub step: u32,
    pub loop_id: u32,
    pub event: Event,
}

/// Per-block communication heat, folded online from the event stream —
/// one accumulator per cache block this node faulted on, pushed, or sent
/// payload bytes for.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct BlockHeat {
    /// Read misses this node took on the block.
    pub read_misses: u64,
    /// Write misses/upgrades this node took on the block.
    pub write_misses: u64,
    /// Of the write misses, how many were ownership upgrades.
    pub upgrades: u64,
    /// Times the block was pushed from this node by a compiler-directed
    /// send.
    pub pushed: u64,
    /// Payload bytes sent from this node attributed to the block.
    pub bytes_sent: u64,
}

impl std::ops::AddAssign for BlockHeat {
    fn add_assign(&mut self, o: BlockHeat) {
        self.read_misses += o.read_misses;
        self.write_misses += o.write_misses;
        self.upgrades += o.upgrades;
        self.pushed += o.pushed;
        self.bytes_sent += o.bytes_sent;
    }
}

impl Event {
    /// What this event adds to one block's heat, and the block: a fault's
    /// miss, an attributed message's bytes. (A compiler-directed send
    /// heats every block it pushes; it is folded on its own.)
    #[inline]
    fn block_heat(&self) -> Option<(u32, BlockHeat)> {
        match *self {
            Event::Fault { block, kind } => {
                let (read, upgrade) = (kind == FaultKind::Read, kind == FaultKind::Upgrade);
                let heat = BlockHeat {
                    read_misses: read as u64,
                    write_misses: !read as u64,
                    upgrades: upgrade as u64,
                    ..BlockHeat::default()
                };
                Some((block as u32, heat))
            }
            Event::Msg { bytes, block } if block != NO_BLOCK => {
                let heat = BlockHeat {
                    bytes_sent: bytes,
                    ..BlockHeat::default()
                };
                Some((block, heat))
            }
            _ => None,
        }
    }
}

/// A fixed multiplicative (Fibonacci) hasher for block-keyed tables: one
/// multiply per `u32` key word and no per-process seed, so a table keyed
/// by blocks costs the same on every run. Tables using it are probed,
/// never iterated, so their order cannot reach an artifact.
#[derive(Clone, Copy, Default, Debug)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(26) ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by blocks (or `(block, node)` pairs) under [`BlockHasher`].
pub type BlockMap<K, V> = HashMap<K, V, BuildHasherDefault<BlockHasher>>;

/// Per-block heat in first-touch order, plus an index from block to
/// cell: a fold is one probe and one index, and [`HeatTable::sorted`]
/// orders the cells by block once, when a report asks. Blocks and their
/// accumulators are parallel vectors, so a cell carries no padding and
/// the sort reads only the 4-byte blocks.
#[derive(Clone, Debug, Default)]
struct HeatTable {
    blocks: Vec<u32>,
    cells: Vec<BlockHeat>,
    index: BlockMap<u32, u32>,
}

impl HeatTable {
    /// The accumulator of `block`, created zeroed on first touch.
    fn cell(&mut self, block: u32) -> &mut BlockHeat {
        let next = self.cells.len() as u32;
        let i = *self.index.entry(block).or_insert(next) as usize;
        if i == self.cells.len() {
            self.blocks.push(block);
            self.cells.push(BlockHeat::default());
        }
        &mut self.cells[i]
    }

    /// The cells ascending by block: sorts 8-byte `block << 32 | cell`
    /// keys, then gathers.
    fn sorted(&self) -> Vec<(u32, BlockHeat)> {
        let mut keys: Vec<u64> = (self.blocks.iter().enumerate())
            .map(|(i, &b)| (b as u64) << 32 | i as u64)
            .collect();
        keys.sort_unstable();
        keys.iter()
            .map(|&k| ((k >> 32) as u32, self.cells[k as u32 as usize]))
            .collect()
    }
}

/// One node's event ring plus exact folded aggregates. Owned by that
/// node's [`NodeShard`](crate::shard::NodeShard); purely node-local.
#[derive(Clone, Debug)]
pub struct NodeTrace {
    capacity: usize,
    ring: VecDeque<TraceEntry>,
    stats: NodeStats,
    dropped: u64,
    /// Timestamp of the most recently recorded event (exact, unaffected
    /// by ring eviction).
    last_t_ns: u64,
    /// Cleared if any event was ever recorded with a timestamp earlier
    /// than its predecessor — i.e. the node's virtual clock ran backwards.
    monotone: bool,
    /// Superstep/loop context stamped onto every recorded entry; set by
    /// the executor at superstep boundaries, sentinel-valued outside.
    cur_step: u32,
    cur_loop: u32,
    /// Per-block heat accumulators (exact, unaffected by ring eviction).
    heat: HeatTable,
    /// Payload bytes sent that no call site attributed to a block.
    unattributed_bytes: u64,
    /// Blocks this node faulted on since the last superstep boundary, in
    /// fault order (a block faulted twice appears twice) — read and
    /// cleared by the cluster's false-sharing detector.
    step_faults: Vec<u32>,
}

impl Default for NodeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeTrace {
    /// An empty trace with the default ring capacity.
    pub(crate) fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An empty trace with an explicit ring capacity.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        NodeTrace {
            capacity,
            ring: VecDeque::new(),
            stats: NodeStats::default(),
            dropped: 0,
            last_t_ns: 0,
            monotone: true,
            cur_step: NO_STEP,
            cur_loop: NO_LOOP,
            heat: HeatTable::default(),
            unattributed_bytes: 0,
            step_faults: Vec::new(),
        }
    }

    /// Set the superstep/loop context stamped onto subsequently recorded
    /// entries. The executor calls this at superstep boundaries; pass the
    /// sentinels ([`NO_STEP`], [`NO_LOOP`]) to mark events as outside any
    /// superstep.
    pub(crate) fn set_context(&mut self, step: u32, loop_id: u32) {
        self.cur_step = step;
        self.cur_loop = loop_id;
    }

    /// The superstep/loop context currently in force.
    pub fn context(&self) -> (u32, u32) {
        (self.cur_step, self.cur_loop)
    }

    /// Change the ring capacity, evicting the oldest retained entries if
    /// the ring is already larger (they count as dropped, like any other
    /// eviction). Aggregates are unaffected.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.ring.len() > capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
    }

    /// Record `event` at virtual time `t_ns`: fold it into the aggregates
    /// and append it to the (bounded) ring.
    #[inline]
    pub(crate) fn record(&mut self, t_ns: u64, event: Event) {
        self.stamp(t_ns);
        self.stats.fold(&event);
        match event {
            Event::CtlSend {
                blocks,
                first_block,
                ..
            } if first_block != NO_BLOCK => {
                for b in first_block as u64..first_block as u64 + blocks {
                    self.heat.cell(b as u32).pushed += 1;
                }
            }
            Event::Msg { bytes, block } if block == NO_BLOCK => self.unattributed_bytes += bytes,
            Event::Fault { block, .. } => self.step_faults.push(block as u32),
            _ => {}
        }
        if let Some((block, heat)) = event.block_heat() {
            *self.heat.cell(block) += heat;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEntry {
            t_ns,
            step: self.cur_step,
            loop_id: self.cur_loop,
            event,
        });
    }

    /// Note that an event completed at `t_ns`: the clock check and the
    /// last timestamp.
    #[inline]
    fn stamp(&mut self, t_ns: u64) {
        if t_ns < self.last_t_ns {
            self.monotone = false;
        }
        self.last_t_ns = t_ns;
    }

    /// Whether recorded events are kept as entries (capacity above 0).
    pub fn keeps_entries(&self) -> bool {
        self.capacity > 0
    }

    /// Record `template` — the events one block's fault recorded here,
    /// each attributed event naming that block — again for each of the
    /// next `reps` blocks, shifted by block, in closed form: the folds
    /// come out as [`NodeTrace::record`] of every shifted event would
    /// leave them, and no entry is kept. `t_ns` is the clock after the
    /// last repetition, the stamp of its last event (every event that
    /// advances a clock is recorded after the advance). Only for a trace
    /// that keeps no entries.
    pub(crate) fn record_run(&mut self, template: &[Event], reps: u64, t_ns: u64) {
        debug_assert!(!self.keeps_entries(), "a kept ring records every event");
        let mut stats = NodeStats::default();
        let mut heat: Option<(u32, BlockHeat)> = None;
        for e in template {
            let fault_event = matches!(
                e,
                Event::Fault { .. }
                    | Event::Msg { .. }
                    | Event::MsgRecv { .. }
                    | Event::Charge { .. }
                    | Event::Handler { .. }
            );
            debug_assert!(fault_event, "{e:?} is not a fault's event");
            stats.fold(e);
            if let Some((block, h)) = e.block_heat() {
                let (b, sum) = heat.get_or_insert((block, BlockHeat::default()));
                debug_assert_eq!(*b, block, "a fault template names one block");
                *sum += h;
            }
            if let Event::Msg { bytes, block } = *e {
                if block == NO_BLOCK {
                    self.unattributed_bytes += bytes * reps;
                }
            }
        }
        self.stats.accumulate_times(&stats, reps);
        if let Some((block, sum)) = heat {
            for b in block + 1..=block + reps as u32 {
                *self.heat.cell(b) += sum;
            }
        }
        for i in 1..=reps as usize {
            for e in template {
                if let Event::Fault { block, .. } = *e {
                    self.step_faults.push((block + i) as u32);
                }
            }
        }
        self.stamp(t_ns);
        self.dropped += template.len() as u64 * reps;
    }

    /// Folded aggregates (exact, even after ring wrap).
    pub(crate) fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The retained (most recent) entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter()
    }

    /// Per-block heat accumulators as `(block, heat)` pairs ascending by
    /// block (exact, even after ring wrap).
    pub fn heat(&self) -> Vec<(u32, BlockHeat)> {
        self.heat.sorted()
    }

    /// Payload bytes sent that no call site attributed to a block.
    pub(crate) fn unattributed_bytes(&self) -> u64 {
        self.unattributed_bytes
    }

    /// The blocks this node faulted on since the last
    /// [`NodeTrace::clear_step_faults`], in fault order, repeats included.
    pub(crate) fn step_faults(&self) -> &[u32] {
        &self.step_faults
    }

    /// Forget the faults recorded so far (capacity kept) — the cluster's
    /// false-sharing detector calls this at every superstep boundary.
    pub(crate) fn clear_step_faults(&mut self) {
        self.step_faults.clear();
    }

    /// Trace invariant: the node's virtual clock never ran backwards —
    /// every recorded event's timestamp was >= its predecessor's. Exact
    /// over the whole run, even after ring eviction.
    pub(crate) fn clock_monotone(&self) -> bool {
        self.monotone
    }

    /// Append this node's trace object (`{"node":…,"dropped":…,"events":[…]}`)
    /// to `out`. Hand-rolled — the trace must stay exportable in the
    /// dependency-free build. [`Cluster::trace_json`](crate::cluster::Cluster::trace_json)
    /// wraps the per-node objects into the full document.
    pub(crate) fn write_json(&self, node: usize, out: &mut String) {
        use std::fmt::Write;
        write!(
            out,
            "{{\"node\":{node},\"dropped\":{},\"events\":[",
            self.dropped
        )
        .unwrap();
        for (i, e) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{{\"t_ns\":{},", e.t_ns).unwrap();
            if e.step != NO_STEP {
                write!(out, "\"step\":{},\"loop\":{},", e.step, e.loop_id).unwrap();
            }
            match e.event {
                Event::Fault { block, kind } => write!(
                    out,
                    "\"type\":\"fault\",\"block\":{block},\"kind\":\"{kind:?}\""
                ),
                Event::Ctl { prim } => write!(out, "\"type\":\"ctl\",\"prim\":\"{prim:?}\""),
                Event::CtlSend {
                    blocks,
                    first_block,
                    array,
                } => {
                    write!(out, "\"type\":\"ctl_send\",\"blocks\":{blocks}").unwrap();
                    if first_block != NO_BLOCK {
                        write!(out, ",\"first_block\":{first_block}").unwrap();
                    }
                    if array != NO_ARRAY {
                        write!(out, ",\"array\":{array}").unwrap();
                    }
                    Ok(())
                }
                Event::Msg { bytes, block } => {
                    write!(out, "\"type\":\"msg\",\"bytes\":{bytes}").unwrap();
                    if block != NO_BLOCK {
                        write!(out, ",\"block\":{block}").unwrap();
                    }
                    Ok(())
                }
                Event::MsgRecv { bytes } => {
                    write!(out, "\"type\":\"msg_recv\",\"bytes\":{bytes}")
                }
                Event::Charge { kind, ns } => {
                    write!(out, "\"type\":\"charge\",\"kind\":\"{kind:?}\",\"ns\":{ns}")
                }
                Event::Handler { ns } => write!(out, "\"type\":\"handler\",\"ns\":{ns}"),
                Event::PageMap { pages } => {
                    write!(out, "\"type\":\"page_map\",\"pages\":{pages}")
                }
                Event::BarrierWait { ns } => {
                    write!(out, "\"type\":\"barrier_wait\",\"ns\":{ns}")
                }
                Event::Barrier => write!(out, "\"type\":\"barrier\""),
                Event::Reduction => write!(out, "\"type\":\"reduction\""),
                Event::Superstep { step, loop_id } => write!(
                    out,
                    "\"type\":\"superstep\",\"index\":{step},\"loop_id\":{loop_id}"
                ),
            }
            .unwrap();
            out.push('}');
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn heat_map(t: &NodeTrace) -> BTreeMap<u32, BlockHeat> {
        t.heat().into_iter().collect()
    }

    #[test]
    fn events_fold_into_stats() {
        let mut a = NodeTrace::new();
        let mut b = NodeTrace::new();
        a.record(
            10,
            Event::Fault {
                block: 3,
                kind: FaultKind::Read,
            },
        );
        a.record(
            20,
            Event::Fault {
                block: 4,
                kind: FaultKind::Upgrade,
            },
        );
        a.record(
            30,
            Event::Charge {
                kind: ChargeKind::Compute,
                ns: 500,
            },
        );
        a.record(
            40,
            Event::Msg {
                bytes: 128,
                block: 3,
            },
        );
        b.record(
            15,
            Event::Ctl {
                prim: CtlPrim::MkWritable,
            },
        );
        b.record(
            25,
            Event::CtlSend {
                blocks: 7,
                first_block: 10,
                array: 0,
            },
        );
        b.record(35, Event::Handler { ns: 42 });
        b.record(45, Event::Reduction);
        let s0 = a.stats();
        assert_eq!(s0.read_misses, 1);
        assert_eq!(s0.write_misses, 1);
        assert_eq!(s0.compute_ns, 500);
        assert_eq!(s0.msgs_sent, 1);
        assert_eq!(s0.bytes_sent, 128);
        let s1 = b.stats();
        assert_eq!(s1.mk_writable_calls, 1);
        assert_eq!(s1.blocks_pushed, 7);
        assert_eq!(s1.handler_ns, 42);
        assert_eq!(s1.reductions, 1);
        // Heat follows the same events: faults and attributed bytes on a,
        // pushed blocks on b.
        let ha = heat_map(&a);
        assert_eq!(ha[&3].read_misses, 1);
        assert_eq!(ha[&3].bytes_sent, 128);
        assert_eq!(ha[&4].write_misses, 1);
        assert_eq!(ha[&4].upgrades, 1);
        assert_eq!(a.unattributed_bytes(), 0);
        let hb = heat_map(&b);
        assert_eq!((10..17).map(|i| hb[&i].pushed).sum::<u64>(), 7);
    }

    #[test]
    fn unattributed_bytes_fold_separately() {
        let mut t = NodeTrace::new();
        t.record(
            1,
            Event::Msg {
                bytes: 8,
                block: NO_BLOCK,
            },
        );
        t.record(
            2,
            Event::Msg {
                bytes: 64,
                block: 5,
            },
        );
        assert_eq!(t.stats().bytes_sent, 72);
        assert_eq!(t.unattributed_bytes(), 8);
        assert_eq!(heat_map(&t)[&5].bytes_sent, 64);
        let total: u64 = heat_map(&t).values().map(|h| h.bytes_sent).sum();
        assert_eq!(total + t.unattributed_bytes(), t.stats().bytes_sent);
    }

    #[test]
    fn context_stamps_entries_and_step_faults_drain() {
        let mut t = NodeTrace::new();
        t.set_context(2, 1);
        t.record(
            5,
            Event::Fault {
                block: 9,
                kind: FaultKind::Read,
            },
        );
        t.set_context(NO_STEP, NO_LOOP);
        t.record(6, Event::Barrier);
        let entries: Vec<_> = t.entries().copied().collect();
        assert_eq!((entries[0].step, entries[0].loop_id), (2, 1));
        assert_eq!((entries[1].step, entries[1].loop_id), (NO_STEP, NO_LOOP));
        assert_eq!(t.step_faults(), [9]);
        t.clear_step_faults();
        assert!(t.step_faults().is_empty(), "drained");
        let mut j = String::new();
        t.write_json(0, &mut j);
        assert!(j.contains("\"step\":2,\"loop\":1,"), "got: {j}");
    }

    #[test]
    fn ring_bounds_entries_but_not_aggregates() {
        // (capacity, entries kept, drops, oldest kept t_ns) after 10 events.
        for (cap, kept, dropped, oldest) in [(4, 4, 6, Some(6)), (0, 0, 10, None)] {
            let mut t = NodeTrace::with_capacity(cap);
            for i in 0..10 {
                t.record(
                    i,
                    Event::Fault {
                        block: i as usize,
                        kind: FaultKind::Read,
                    },
                );
            }
            assert_eq!(t.stats().read_misses, 10, "aggregates stay exact");
            assert_eq!(
                t.entries().count(),
                kept,
                "ring holds the most recent {cap}"
            );
            assert_eq!(t.dropped, dropped);
            assert_eq!(t.entries().next().map(|e| e.t_ns), oldest);
        }
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut t = NodeTrace::with_capacity(8);
        for i in 0..6 {
            t.record(i, Event::Barrier);
        }
        t.set_capacity(2);
        assert_eq!(t.entries().count(), 2);
        assert_eq!(t.dropped, 4);
        assert_eq!(t.entries().next().unwrap().t_ns, 4);
    }

    #[test]
    fn msg_recv_folds_and_balances() {
        let mut snd = NodeTrace::new();
        let mut rcv = NodeTrace::new();
        snd.record(
            10,
            Event::Msg {
                bytes: 64,
                block: NO_BLOCK,
            },
        );
        rcv.record(5, Event::MsgRecv { bytes: 64 });
        assert_eq!(snd.stats().msgs_sent, 1);
        assert_eq!(snd.stats().bytes_sent, 64);
        assert_eq!(snd.stats().msgs_recv, 0);
        assert_eq!(rcv.stats().msgs_recv, 1);
        assert_eq!(rcv.stats().bytes_recv, 64);
        assert_eq!(rcv.stats().msgs_sent, 0);
        let mut j = String::new();
        rcv.write_json(1, &mut j);
        assert!(j.contains("\"type\":\"msg_recv\""), "got: {j}");
    }

    #[test]
    fn monotonicity_tracked_exactly() {
        let mut t = NodeTrace::with_capacity(2);
        for i in [3u64, 3, 7, 9] {
            t.record(i, Event::Barrier);
        }
        assert!(t.clock_monotone(), "equal timestamps are fine");
        assert_eq!(t.last_t_ns, 9);
        t.record(8, Event::Barrier); // clock ran backwards
        assert!(!t.clock_monotone());
        t.record(100, Event::Barrier);
        assert!(!t.clock_monotone(), "violations are sticky");
    }

    #[test]
    fn json_export_is_well_formed() {
        let mut t = NodeTrace::new();
        t.record(
            1,
            Event::Fault {
                block: 0,
                kind: FaultKind::Read,
            },
        );
        t.record(2, Event::Barrier);
        let mut j = String::new();
        t.write_json(0, &mut j);
        assert!(j.starts_with("{\"node\":0,"));
        assert!(j.contains("\"type\":\"fault\""));
        assert!(j.contains("\"kind\":\"Read\""));
        assert!(j.contains("\"type\":\"barrier\""));
        assert!(j.ends_with("]}"));
    }
}
