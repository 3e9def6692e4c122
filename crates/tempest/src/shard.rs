//! Per-node shards: the disjoint state one node owns, plus the shared
//! immutable cluster geometry.
//!
//! A [`NodeShard`] holds everything that belongs to exactly one node —
//! its full-size copy of the global segment, its page map, its per-block
//! access tags, its virtual clock, its outstanding eager-write count and
//! its event trace ring. Nothing in a shard references another shard, so
//! the executor's compute phase can hand each kernel a `&mut NodeShard`
//! and run the kernels on real threads (the run's
//! [`WorkerPool`](crate::pool::WorkerPool)) with zero cross-node access.
//! All cross-node work (block copies, diffs) goes through the
//! [`Cluster`](crate::cluster::Cluster) coordinator during the resolve
//! phase, which borrows one shard *pair* at a time
//! ([`Cluster::shard_pair_mut`](crate::cluster::Cluster::shard_pair_mut)).
//!
//! Shards share one immutable [`Geometry`] (via `Arc`): segment shape,
//! block/page sizes, the home map and the cost model. Sharing it keeps a
//! shard self-contained — it can map pages and charge costs without
//! asking the coordinator — while guaranteeing no shard can observe
//! another's mutable state.

use crate::cluster::{Access, ChargeKind, NodeId};
use crate::costs::{CostModel, CpuMode};
use crate::scratch::BlockSet;
use crate::stats::NodeStats;
use crate::trace::{Event, NodeTrace};
use std::sync::Arc;

/// Immutable cluster-wide shape shared by every shard: sizes, the
/// page-home map and the cost model. Never mutated after construction.
#[derive(Debug)]
pub struct Geometry {
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
    pub fn block_of(&self, w: usize) -> usize {
        w / self.words_per_block
    }

    /// Word range `[start, end)` of block `b`.
    pub fn block_words(&self, b: usize) -> (usize, usize) {
        let s = b * self.words_per_block;
        (s, (s + self.words_per_block).min(self.seg_words))
    }

    /// Home node of block `b` (the home of its page).
    pub fn home_of_block(&self, b: usize) -> NodeId {
        self.home[b * self.words_per_block / self.words_per_page]
    }

    /// Home node of the page containing word `w`.
    pub fn home_of_word(&self, w: usize) -> NodeId {
        self.home[w / self.words_per_page]
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
/// [`HotState`], which carries `#[repr(align(64))]`), so adjacent
/// shards in the cluster's `Vec<NodeShard>` never share a line. The
/// write-hot scalars lead the struct on their own line; the read-mostly
/// geometry handle and the buffer headers follow. See
/// [`crate::cluster::Cluster::layout_report`] for the self-check.
#[derive(Debug)]
pub struct NodeShard {
    /// Write-hot scalars on their own leading cache line.
    hot: HotState,
    id: NodeId,
    /// Read-mostly: shared immutable cluster geometry.
    geom: Arc<Geometry>,
    mem: Vec<f64>,
    mapped: Vec<u64>, // page bitset
    tags: Vec<Access>,
    /// Blocks whose tag currently differs from the initial assignment
    /// (home → ReadWrite, everyone else → Invalid). Resolve-phase scans
    /// iterate this instead of every block in the segment, so their cost
    /// follows traffic, not segment size.
    dirty: BlockSet,
    trace: NodeTrace,
}

impl NodeShard {
    pub(crate) fn new(id: NodeId, geom: Arc<Geometry>) -> Self {
        let mut sh = NodeShard {
            hot: HotState::default(),
            id,
            mem: vec![0.0; geom.seg_words],
            mapped: vec![0u64; geom.n_pages.div_ceil(64)],
            tags: vec![Access::Invalid; geom.n_blocks],
            dirty: BlockSet::new(geom.n_blocks),
            trace: NodeTrace::new(),
            geom,
        };
        // The home node of each page starts with a mapped page and
        // ReadWrite tags for its blocks: homes always hold the initial
        // (zero-initialized) data. These are the *default* tags, so they
        // do not enter the dirty set.
        let g = Arc::clone(&sh.geom);
        for page in 0..g.n_pages {
            if g.home[page] != id {
                continue;
            }
            sh.mapped[page / 64] |= 1 << (page % 64);
            let first_block = page * g.words_per_page / g.words_per_block;
            let end_block =
                (((page + 1) * g.words_per_page).min(g.seg_words)).div_ceil(g.words_per_block);
            for b in first_block..end_block.min(g.n_blocks) {
                // Blocks never span pages (both are powers of two and
                // block ≤ page), so home-of-page is home-of-block.
                sh.tags[b] = Access::ReadWrite;
            }
        }
        sh
    }

    /// This shard's node index.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cluster-wide cost model (shared immutable geometry). Plan-apply
    /// closures run against shard pairs with no coordinator in scope, so
    /// shards expose the geometry they already carry.
    pub fn cfg(&self) -> &CostModel {
        &self.geom.cfg
    }

    /// Word range `[start, end)` of block `b`.
    pub fn block_words(&self, b: usize) -> (usize, usize) {
        self.geom.block_words(b)
    }

    /// Block containing word offset `w`.
    pub fn block_of(&self, w: usize) -> usize {
        self.geom.block_of(w)
    }

    /// Home node of block `b`.
    pub fn home_of_block(&self, b: usize) -> NodeId {
        self.geom.home_of_block(b)
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
    pub fn tag(&self, b: usize) -> Access {
        self.tags[b]
    }

    /// Set the tag of block `b` (no cost charged; protocols charge
    /// `tag_change_ns` themselves where appropriate). Maintains the
    /// dirty-block set: a block is dirty while its tag differs from the
    /// initial assignment.
    pub fn set_tag(&mut self, b: usize, a: Access) {
        self.tags[b] = a;
        self.dirty.set(b, a != self.default_tag(b));
    }

    /// Every block's tag, indexed by block — range-granular protocol
    /// scans read the slice directly instead of asking block by block.
    pub fn tags(&self) -> &[Access] {
        &self.tags
    }

    /// Blocks whose tag currently differs from the initial assignment
    /// (iterates ascending).
    pub fn dirty_blocks(&self) -> &BlockSet {
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

    /// True if this node has mapped the page containing word `w`.
    pub fn is_mapped(&self, w: usize) -> bool {
        let page = w / self.geom.words_per_page;
        self.mapped[page / 64] & (1 << (page % 64)) != 0
    }

    // ------------------------------------------------------------------
    // Virtual time and events
    // ------------------------------------------------------------------

    /// Current virtual clock in ns.
    pub fn clock_ns(&self) -> u64 {
        self.hot.clock_ns
    }

    /// Cache-line index of this shard's write-hot state — used by
    /// [`crate::cluster::Cluster::layout_report`] to prove adjacent
    /// shards never share a hot line.
    pub fn hot_line(&self) -> usize {
        (&self.hot as *const HotState as usize) / crate::scratch::CACHE_LINE_BYTES
    }

    /// Record a typed trace event, stamped with the current virtual
    /// clock. All statistics flow through here: the trace folds events
    /// into aggregates online, so the event log and the report can never
    /// disagree.
    pub fn record(&mut self, event: Event) {
        self.trace.record(self.hot.clock_ns, event);
    }

    /// Charge `ns` to the clock under the given accounting category.
    pub fn charge(&mut self, ns: u64, kind: ChargeKind) {
        self.hot.clock_ns += ns;
        self.record(Event::Charge { kind, ns });
    }

    /// Charge protocol-handler occupancy executed at this node on behalf
    /// of a remote request. In dual-cpu mode the dedicated protocol
    /// processor absorbs it (tracked but not added to the compute clock);
    /// in single-cpu mode it steals time from the compute CPU.
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
    pub fn note_msg(&mut self, payload_bytes: usize) {
        self.record(Event::Msg {
            bytes: payload_bytes as u64,
            block: crate::trace::NO_BLOCK,
        });
    }

    /// Record a message of `payload_bytes` sent from this node servicing
    /// cache block `block`, attributing the bytes to that block in the
    /// sender's heatmap.
    pub fn note_msg_at(&mut self, payload_bytes: usize, block: usize) {
        self.record(Event::Msg {
            bytes: payload_bytes as u64,
            block: block as u32,
        });
    }

    /// Record a message of `payload_bytes` arriving at this node, the
    /// receiver-side twin of [`NodeShard::note_msg`]. Keeping both sides
    /// recorded lets the executors assert that cluster-wide send and
    /// receive counters balance at the end of every run.
    pub fn note_msg_recv(&mut self, payload_bytes: usize) {
        self.record(Event::MsgRecv {
            bytes: payload_bytes as u64,
        });
    }

    /// Record an outstanding eager-write transaction (release
    /// consistency: the node does not stall for the ownership grant, but
    /// must drain at the next release point).
    pub fn note_pending_write(&mut self) {
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
    pub fn stats(&self) -> &NodeStats {
        self.trace.stats()
    }

    /// This node's event trace.
    pub fn trace(&self) -> &NodeTrace {
        &self.trace
    }

    pub(crate) fn trace_mut(&mut self) -> &mut NodeTrace {
        &mut self.trace
    }
}
