//! Per-node shards: the disjoint state one node owns, plus the shared
//! immutable cluster geometry.
//!
//! A [`NodeShard`] holds everything that belongs to exactly one node —
//! its full-size copy of the global segment, its page map, its per-block
//! access tags (as valid/writable bitsets), its virtual clock, its
//! outstanding eager-write count and its event trace ring. Nothing in a
//! shard references another shard, so
//! the executor's compute phase can hand each kernel a `&mut NodeShard`
//! and run the kernels on real threads (the run's
//! [`WorkerPool`](crate::pool::WorkerPool)) with zero cross-node access.
//! All cross-node work (block copies, diffs) goes through the
//! [`Cluster`](crate::cluster::Cluster) coordinator during the resolve
//! phase, which borrows one shard *pair* at a time
//! ([`Cluster::shard_pair_mut`](crate::cluster::Cluster::shard_pair_mut)).
//!
//! Shards share one immutable `Geometry` (via `Arc`): segment shape,
//! block/page sizes, the home map and the cost model. Sharing it keeps a
//! shard self-contained — it can map pages and charge costs without
//! asking the coordinator — while guaranteeing no shard can observe
//! another's mutable state.

use crate::cluster::{Access, ChargeKind, NodeId};
use crate::costs::{CostModel, CpuMode};
use crate::scratch::{BlockSet, DirtySet};
use crate::stats::NodeStats;
use crate::trace::{Event, NodeTrace};
use std::sync::Arc;

/// Immutable cluster-wide shape shared by every shard: sizes, the
/// page-home map and the cost model. Never mutated after construction.
#[derive(Debug)]
pub(crate) struct Geometry {
    pub(crate) nprocs: usize,
    pub(crate) cfg: CostModel,
    pub(crate) seg_words: usize,
    pub(crate) words_per_block: usize,
    pub(crate) words_per_page: usize,
    pub(crate) n_blocks: usize,
    pub(crate) n_pages: usize,
    pub(crate) home: Vec<NodeId>, // per page
}

impl Geometry {
    /// Block containing word offset `w`.
    pub(crate) fn block_of(&self, w: usize) -> usize {
        w / self.words_per_block
    }

    /// Word range `[start, end)` of block `b`.
    pub(crate) fn block_words(&self, b: usize) -> (usize, usize) {
        let s = b * self.words_per_block;
        (s, (s + self.words_per_block).min(self.seg_words))
    }

    /// Home node of block `b` (the home of its page).
    pub(crate) fn home_of_block(&self, b: usize) -> NodeId {
        self.home[b * self.words_per_block / self.words_per_page]
    }

    /// Home node of the page containing word `w`.
    pub(crate) fn home_of_word(&self, w: usize) -> NodeId {
        self.home[w / self.words_per_page]
    }

    /// The run of blocks from `b` up to `end` whose pages share `b`'s
    /// home: where it ends, and that home. Blocks never span pages (both
    /// are powers of two and block ≤ page), so runs end at page edges.
    pub(crate) fn home_run(&self, b: usize, end: usize) -> (usize, NodeId) {
        let bpp = self.words_per_page / self.words_per_block;
        let h = self.home[b / bpp];
        let mut page = b / bpp + 1;
        while page * bpp < end && self.home[page] == h {
            page += 1;
        }
        ((page * bpp).min(end), h)
    }

    /// Word `w` of the set of blocks homed at `p`: bit `i` is block
    /// `64 * w + i`. Built by home-page run, so it costs the word's
    /// pages.
    pub(crate) fn homed_word(&self, p: NodeId, w: usize) -> u64 {
        let (first, end) = (w * 64, ((w + 1) * 64).min(self.n_blocks));
        let (mut b, mut bits) = (first, 0);
        while b < end {
            let (run_end, h) = self.home_run(b, end);
            if h == p {
                bits |= (u64::MAX >> (64 - (run_end - b))) << (b - first);
            }
            b = run_end;
        }
        bits
    }
}

/// The write-hot scalar state of one shard, padded to its own cache
/// line: the virtual clock is bumped by every charge and the pending
/// eager-write count by every non-owner write. With several shards'
/// kernels running on distinct host threads, keeping each shard's hot
/// counters on a private line (instead of straddling the boundary to a
/// neighboring shard in the `Vec<NodeShard>`) is what stops the
/// compute phase from ping-ponging a shared line between cores — the
/// same false-sharing hazard the PR-5 detector flags in simulated apps,
/// fixed here in the simulator's own layout.
#[derive(Debug, Default)]
#[repr(align(64))]
struct HotState {
    clock_ns: u64,
    pending_writes: u64, // outstanding eager-write transactions
}

/// All mutable state owned by one node. See the module docs for the
/// ownership story; the short version is that two shards never alias,
/// so `&mut NodeShard` is safe to move to a worker thread.
///
/// Layout: the struct is cache-line aligned (via the embedded
/// `HotState`, which carries `#[repr(align(64))]`), so adjacent
/// shards in the cluster's `Vec<NodeShard>` never share a line. The
/// write-hot scalars lead the struct on their own line; the read-mostly
/// geometry handle and the buffer headers follow. `cluster.rs`'s
/// `shard_hot_state_does_not_false_share` test checks it.
#[derive(Debug)]
pub struct NodeShard {
    /// Write-hot scalars on their own leading cache line.
    hot: HotState,
    id: NodeId,
    /// Read-mostly: shared immutable cluster geometry.
    geom: Arc<Geometry>,
    mem: Vec<f64>,
    mapped: Vec<u64>, // page bitset
    /// The access tags, as the two bits a tag is: `valid` holds the
    /// blocks whose tag is not Invalid, `writable` those whose tag is
    /// ReadWrite (a subset). The range walk scans them 64 blocks at a
    /// time.
    valid: BlockSet,
    writable: BlockSet,
    /// Blocks whose tag currently differs from the initial assignment
    /// (home → ReadWrite, everyone else → Invalid). Resolve-phase scans
    /// iterate this instead of every block in the segment, so their cost
    /// follows traffic, not segment size; its word summary lets the walk
    /// find the blocks a home has lost a word at a time.
    dirty: DirtySet,
    trace: NodeTrace,
    /// While `capturing`, every recorded event is also kept here: the
    /// template a fault run replays ([`NodeShard::replay_run`]). Reused
    /// run after run, so a run allocates nothing.
    captured: Vec<Event>,
    capturing: bool,
    /// The clock when the capture began.
    capture_clock: u64,
}

impl NodeShard {
    pub(crate) fn new(id: NodeId, geom: Arc<Geometry>) -> Self {
        // The home node of each page starts with a mapped page and
        // ReadWrite tags for its blocks: homes always hold the initial
        // (zero-initialized) data. These are the *default* tags, so they
        // do not enter the dirty set. Set by home-page run, so building
        // costs the segment's pages, not its blocks.
        let mut mapped = vec![0u64; geom.n_pages.div_ceil(64)];
        let mut valid = BlockSet::new(geom.n_blocks);
        let bpp = geom.words_per_page / geom.words_per_block;
        let mut b = 0;
        while b < geom.n_blocks {
            let (end, h) = geom.home_run(b, geom.n_blocks);
            if h == id {
                valid.set_range(b, end, true);
                for page in b / bpp..end.div_ceil(bpp) {
                    mapped[page / 64] |= 1 << (page % 64);
                }
            }
            b = end;
        }
        NodeShard {
            hot: HotState::default(),
            id,
            mem: crate::arena::segment(geom.nprocs, id, geom.seg_words),
            mapped,
            writable: valid.clone(),
            valid,
            dirty: DirtySet::new(geom.n_blocks),
            trace: NodeTrace::new(),
            captured: Vec::new(),
            capturing: false,
            capture_clock: 0,
            geom,
        }
    }

    /// This shard's node index.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Word range `[start, end)` of block `b`.
    pub fn block_words(&self, b: usize) -> (usize, usize) {
        self.geom.block_words(b)
    }

    /// Block containing word offset `w`.
    pub fn block_of(&self, w: usize) -> usize {
        self.geom.block_of(w)
    }

    // ------------------------------------------------------------------
    // Access tags
    // ------------------------------------------------------------------

    /// The tag a block holds in a freshly constructed cluster: homes own
    /// their blocks writable, everyone else holds nothing.
    fn default_tag(&self, b: usize) -> Access {
        if self.geom.home_of_block(b) == self.id {
            Access::ReadWrite
        } else {
            Access::Invalid
        }
    }

    /// Current tag of block `b`.
    #[inline]
    pub(crate) fn tag(&self, b: usize) -> Access {
        if self.writable.contains(b) {
            Access::ReadWrite
        } else if self.valid.contains(b) {
            Access::ReadOnly
        } else {
            Access::Invalid
        }
    }

    /// Set the tag of block `b` (no cost charged; protocols charge
    /// `tag_change_ns` themselves where appropriate). Maintains the
    /// dirty-block set: a block is dirty while its tag differs from the
    /// initial assignment.
    #[inline]
    pub(crate) fn set_tag(&mut self, b: usize, a: Access) {
        self.valid.set(b, a != Access::Invalid);
        self.writable.set(b, a == Access::ReadWrite);
        self.dirty.set(b, a != self.default_tag(b));
    }

    /// `NodeShard::set_tag` for every block of `[first, end)`, a word
    /// at a time: the dirty bits by home-page run, over which the initial
    /// tag is constant.
    pub fn set_tag_range(&mut self, first: usize, end: usize, a: Access) {
        self.valid.set_range(first, end, a != Access::Invalid);
        self.writable.set_range(first, end, a == Access::ReadWrite);
        let mut b = first;
        while b < end {
            let (run_end, h) = self.geom.home_run(b, end);
            let default = match h == self.id {
                true => Access::ReadWrite,
                false => Access::Invalid,
            };
            self.dirty.set_range(b, run_end, a != default);
            b = run_end;
        }
    }

    /// Blocks this node holds a valid copy of (tag not Invalid) — range
    /// scans read it a word at a time.
    pub fn valid(&self) -> &BlockSet {
        &self.valid
    }

    /// Blocks this node holds writable (tag ReadWrite).
    pub fn writable(&self) -> &BlockSet {
        &self.writable
    }

    /// Blocks whose tag currently differs from the initial assignment.
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Immutable view of this node's segment copy.
    pub fn mem(&self) -> &[f64] {
        &self.mem
    }

    /// Mutable view of this node's segment copy.
    pub fn mem_mut(&mut self) -> &mut [f64] {
        &mut self.mem
    }

    /// Take this node's segment copy, all-zero again: every page this
    /// node mapped is cleared, the page bitset scanned a word at a time
    /// and each run of mapped pages filled at once. No execute writes
    /// outside a page its node has mapped, so nothing else needs it;
    /// debug builds check the whole segment. The shard keeps an empty
    /// segment.
    pub(crate) fn take_zeroed_mem(&mut self) -> Vec<f64> {
        let wpp = self.geom.words_per_page;
        let mut mem = std::mem::take(&mut self.mem);
        for (w, &word) in self.mapped.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let first = bits.trailing_zeros() as usize;
                let run = (bits >> first).trailing_ones() as usize;
                let page = w * 64 + first;
                let end = ((page + run) * wpp).min(mem.len());
                mem[page * wpp..end].fill(0.0);
                // Clear the lowest run of ones: adding its lowest bit
                // carries through it (and out of the word if it ends
                // there).
                bits &= bits.wrapping_add(bits & bits.wrapping_neg());
            }
        }
        debug_assert!(
            mem.iter().all(|x| x.to_bits() == 0),
            "node {}: a word outside every page it mapped was written",
            self.id
        );
        mem
    }

    /// Whether this node has mapped page `page`.
    pub fn is_mapped(&self, page: usize) -> bool {
        self.mapped[page / 64] >> (page % 64) & 1 == 1
    }

    /// Ensure all pages covering `[start, start+len)` words are mapped,
    /// charging the first-touch mapping cost as stall time. Returns the
    /// number of pages newly mapped.
    pub fn map_range(&mut self, start: usize, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let wpp = self.geom.words_per_page;
        let first = start / wpp;
        let last = (start + len - 1) / wpp;
        let mut newly = 0u64;
        for page in first..=last.min(self.geom.n_pages - 1) {
            let (w, bit) = (page / 64, page % 64);
            if self.mapped[w] & (1 << bit) == 0 {
                self.mapped[w] |= 1 << bit;
                newly += 1;
            }
        }
        if newly > 0 {
            self.record(Event::PageMap { pages: newly });
            self.charge(newly * self.geom.cfg.page_map_ns, ChargeKind::Stall);
        }
        newly
    }

    // ------------------------------------------------------------------
    // Virtual time and events
    // ------------------------------------------------------------------

    /// Current virtual clock in ns.
    pub fn clock_ns(&self) -> u64 {
        self.hot.clock_ns
    }

    /// Record a typed trace event, stamped with the current virtual
    /// clock. All statistics flow through here: the trace folds events
    /// into aggregates online, so the event log and the report can never
    /// disagree.
    #[inline]
    pub fn record(&mut self, event: Event) {
        if self.capturing {
            self.captured.push(event);
        }
        self.trace.record(self.hot.clock_ns, event);
    }

    /// Start capturing the events recorded here as a fault run's
    /// template (see [`NodeShard::replay_run`]).
    pub(crate) fn capture_begin(&mut self) {
        self.captured.clear();
        self.capturing = true;
        self.capture_clock = self.hot.clock_ns;
    }

    /// End the capture and fold its template again for each of the next
    /// `reps` blocks, in closed form ([`NodeTrace::record_run`]): the
    /// events the same fault of each would have recorded here, the clock
    /// moved by the template's advance times `reps`. Only for a trace
    /// that keeps no entries: a traced execute services its faults block
    /// by block.
    pub(crate) fn replay_run(&mut self, reps: usize) {
        self.capturing = false;
        if self.captured.is_empty() {
            return;
        }
        let advance = self.hot.clock_ns - self.capture_clock;
        self.hot.clock_ns += advance * reps as u64;
        self.trace
            .record_run(&self.captured, reps as u64, self.hot.clock_ns);
    }

    /// Charge `ns` to the clock under the given accounting category.
    #[inline]
    pub fn charge(&mut self, ns: u64, kind: ChargeKind) {
        self.hot.clock_ns += ns;
        self.record(Event::Charge { kind, ns });
    }

    /// Charge protocol-handler occupancy executed at this node on behalf
    /// of a remote request. In dual-cpu mode the dedicated protocol
    /// processor absorbs it (tracked but not added to the compute clock);
    /// in single-cpu mode it steals time from the compute CPU.
    #[inline]
    pub fn charge_handler(&mut self, ns: u64) {
        let scaled = self.geom.cfg.handler_cost(ns);
        if self.geom.cfg.cpu == CpuMode::Single {
            self.hot.clock_ns += scaled;
        }
        self.record(Event::Handler { ns: scaled });
    }

    /// Record a message of `payload_bytes` sent from this node (stats
    /// only; time is charged by the caller per the transaction shape).
    /// The bytes stay unattributed in the block heatmap; call sites that
    /// know which block the transfer services use
    /// [`NodeShard::note_msg_at`].
    pub(crate) fn note_msg(&mut self, payload_bytes: usize) {
        self.record(Event::Msg {
            bytes: payload_bytes as u64,
            block: crate::trace::NO_BLOCK,
        });
    }

    /// Record a message of `payload_bytes` sent from this node servicing
    /// cache block `block`, attributing the bytes to that block in the
    /// sender's heatmap.
    #[inline]
    pub fn note_msg_at(&mut self, payload_bytes: usize, block: usize) {
        self.record(Event::Msg {
            bytes: payload_bytes as u64,
            block: block as u32,
        });
    }

    /// Record a message of `payload_bytes` arriving at this node, the
    /// receiver-side twin of `NodeShard::note_msg`. Keeping both sides
    /// recorded lets the executors assert that cluster-wide send and
    /// receive counters balance at the end of every run.
    #[inline]
    pub fn note_msg_recv(&mut self, payload_bytes: usize) {
        self.record(Event::MsgRecv {
            bytes: payload_bytes as u64,
        });
    }

    /// Record an outstanding eager-write transaction (release
    /// consistency: the node does not stall for the ownership grant, but
    /// must drain at the next release point).
    pub(crate) fn note_pending_write(&mut self) {
        self.hot.pending_writes += 1;
    }

    /// Release point: stall for each outstanding eager-write transaction,
    /// then clear them.
    pub(crate) fn drain_pending_writes(&mut self) {
        let drain = self.hot.pending_writes * self.geom.cfg.release_drain_ns;
        if drain > 0 {
            self.charge(drain, ChargeKind::Stall);
            self.hot.pending_writes = 0;
        }
    }

    /// Advance the clock to the common completion time `to`, recording
    /// the wait (and a barrier crossing when `barrier` is set).
    pub(crate) fn align_clock(&mut self, to: u64, barrier: bool) {
        let wait = to - self.hot.clock_ns;
        self.hot.clock_ns = to;
        self.record(Event::BarrierWait { ns: wait });
        if barrier {
            self.record(Event::Barrier);
        }
    }

    /// Folded aggregates (exact, even after the trace ring wraps).
    pub(crate) fn stats(&self) -> &NodeStats {
        self.trace.stats()
    }

    /// This node's event trace.
    pub(crate) fn trace(&self) -> &NodeTrace {
        &self.trace
    }

    pub(crate) fn trace_mut(&mut self) -> &mut NodeTrace {
        &mut self.trace
    }
}
