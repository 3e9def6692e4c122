//! The simulated cluster: a thin coordinator over per-node shards.
//!
//! A [`Cluster`] is a set of disjoint [`NodeShard`]s — each node's
//! full-size private copy of the global shared segment, per-block access
//! tags, virtual clock, pending-write count and event trace live in its
//! shard — plus the shared immutable [`Geometry`] (segment shape, home
//! map, cost model) and the run makespan. Coherence protocols (crate
//! `fgdsm-protocol`) drive state by copying block data between shard
//! pairs, flipping tags, and charging message and handler costs through
//! the methods here.
//!
//! The split exists so the executor can run supersteps in two phases:
//! a **resolve phase** that services all cross-node traffic through the
//! coordinator, one shard pair at a time in a fixed order
//! ([`Cluster::shard_pair_mut`]), and a **compute phase** where each
//! kernel gets `&mut` access to its own shard only
//! ([`Cluster::shards_mut`]) and may run on a real thread. All times are
//! nanoseconds of *virtual* time, charged per-shard, so serial and
//! parallel execution produce bit-identical reports.

use crate::costs::CostModel;
use crate::profile::{FalseSharingFlag, NodeHeatmap, ProfileState, StepInterval};
use crate::scratch::{BlockSet, CACHE_LINE_BYTES};
use crate::shard::{Geometry, NodeShard};
use crate::stats::{ClusterReport, NodeStats};
use crate::trace::{Event, NodeTrace, NO_ARRAY, NO_BLOCK, NO_LOOP, NO_STEP};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of a node in the cluster.
pub type NodeId = usize;

/// Fine-grain access tag of one block at one node (Tempest mechanism 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(u8)]
pub enum Access {
    /// No valid copy; any access faults.
    #[default]
    Invalid = 0,
    /// Valid read-only copy; stores fault.
    ReadOnly = 1,
    /// Valid writable copy.
    ReadWrite = 2,
}

/// What a virtual-time charge is accounted as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChargeKind {
    /// Kernel computation.
    Compute,
    /// Stall waiting for remote data.
    Stall,
    /// Compiler-inserted protocol call overhead.
    CtlCall,
}

/// How pages of the global segment are assigned home nodes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum HomePolicy {
    /// Pages round-robin across nodes. A block's home is usually *not*
    /// its owner, exercising the 3-hop protocol paths and the
    /// `mk_writable` reasoning of §4.2.
    #[default]
    RoundRobin,
    /// Pages divided into contiguous chunks, one per node.
    Blocked,
    /// Explicit per-page home assignment (the HPF runtime places pages to
    /// match the data distribution, so owners of BLOCK-distributed arrays
    /// are home to their own data; CYCLIC arrays still interleave).
    Explicit(Vec<NodeId>),
}

/// A fixed layout of the global segment: arrays allocated page-aligned.
#[derive(Clone, Debug)]
pub struct SegmentLayout {
    page_words: usize,
    words: usize,
}

impl SegmentLayout {
    /// Start a layout for a given page size (in f64 words).
    pub fn new(page_words: usize) -> Self {
        assert!(page_words.is_power_of_two());
        SegmentLayout {
            page_words,
            words: 0,
        }
    }

    /// Allocate `words` f64 elements, page-aligned; returns the word
    /// offset of the allocation in the global segment.
    pub fn alloc(&mut self, words: usize) -> usize {
        let off = self.words;
        let end = off + words;
        // Round the next allocation up to a page boundary so distinct
        // arrays never share a page (they may still share nothing smaller:
        // blocks never span arrays either).
        self.words = end.div_ceil(self.page_words) * self.page_words;
        off
    }

    /// Total words in the segment so far.
    pub fn total_words(&self) -> usize {
        self.words
    }
}

/// The simulated cluster: shared geometry + disjoint per-node shards.
pub struct Cluster {
    geom: Arc<Geometry>,
    shards: Vec<NodeShard>,
    makespan_ns: u64,
    /// Accumulating profile artifacts: superstep interval snapshots and
    /// false-sharing flags (see [`crate::profile`]).
    profile: ProfileState,
}

impl Cluster {
    /// Build a cluster of `nprocs` nodes over the given segment layout.
    pub fn new(nprocs: usize, cfg: CostModel, layout: &SegmentLayout, policy: HomePolicy) -> Self {
        assert!(nprocs >= 1);
        let words_per_block = cfg.words_per_block();
        let words_per_page = cfg.words_per_page();
        assert_eq!(
            layout.page_words, words_per_page,
            "layout/page size mismatch"
        );
        let seg_words = layout.total_words().max(words_per_page);
        let n_pages = seg_words.div_ceil(words_per_page);
        let n_blocks = seg_words.div_ceil(words_per_block);
        let home: Vec<NodeId> = match policy {
            HomePolicy::RoundRobin => (0..n_pages).map(|p| p % nprocs).collect(),
            HomePolicy::Blocked => {
                let per = n_pages.div_ceil(nprocs);
                (0..n_pages).map(|p| (p / per).min(nprocs - 1)).collect()
            }
            HomePolicy::Explicit(map) => {
                assert_eq!(map.len(), n_pages, "explicit home map length mismatch");
                assert!(map.iter().all(|&h| h < nprocs));
                map
            }
        };
        let geom = Arc::new(Geometry {
            nprocs,
            cfg,
            seg_words,
            words_per_block,
            words_per_page,
            n_blocks,
            n_pages,
            home,
        });
        let shards: Vec<NodeShard> = (0..nprocs)
            .map(|n| NodeShard::new(n, Arc::clone(&geom)))
            .collect();
        Cluster {
            geom,
            shards,
            makespan_ns: 0,
            profile: ProfileState::new(nprocs),
        }
    }

    // ------------------------------------------------------------------
    // Geometry
    // ------------------------------------------------------------------

    /// Number of nodes.
    pub fn nprocs(&self) -> usize {
        self.geom.nprocs
    }

    /// The cost model in force.
    pub fn cfg(&self) -> &CostModel {
        &self.geom.cfg
    }

    /// Words per coherence block.
    pub fn words_per_block(&self) -> usize {
        self.geom.words_per_block
    }

    /// Words per page.
    pub fn words_per_page(&self) -> usize {
        self.geom.words_per_page
    }

    /// Total segment words.
    pub fn seg_words(&self) -> usize {
        self.geom.seg_words
    }

    /// Total number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.geom.n_blocks
    }

    /// Block containing word offset `w`.
    pub fn block_of(&self, w: usize) -> usize {
        self.geom.block_of(w)
    }

    /// Word range `[start, end)` of block `b`.
    pub fn block_words(&self, b: usize) -> (usize, usize) {
        self.geom.block_words(b)
    }

    /// Home node of block `b` (the home of its page).
    pub fn home_of_block(&self, b: usize) -> NodeId {
        self.geom.home_of_block(b)
    }

    /// Home node of the page containing word `w`.
    pub fn home_of_word(&self, w: usize) -> NodeId {
        self.geom.home_of_word(w)
    }

    // ------------------------------------------------------------------
    // Shards
    // ------------------------------------------------------------------

    /// Immutable view of one node's shard.
    pub fn shard(&self, node: NodeId) -> &NodeShard {
        &self.shards[node]
    }

    /// Mutable access to one node's shard.
    pub fn shard_mut(&mut self, node: NodeId) -> &mut NodeShard {
        &mut self.shards[node]
    }

    /// All shards, mutably and simultaneously — the compute-phase entry
    /// point. The slice can be split across threads because shards are
    /// disjoint by construction.
    pub fn shards_mut(&mut self) -> &mut [NodeShard] {
        &mut self.shards
    }

    /// Disjoint mutable borrows of two distinct shards, in argument
    /// order. This is how the resolve phase services a cross-node
    /// transfer: one source shard, one destination shard, no view of the
    /// rest of the cluster.
    pub fn shard_pair_mut(&mut self, a: NodeId, b: NodeId) -> (&mut NodeShard, &mut NodeShard) {
        assert_ne!(a, b, "shard_pair_mut needs two distinct nodes");
        if a < b {
            let (lo, hi) = self.shards.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.shards.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }

    /// Union of every shard's dirty-block set: blocks whose tag differs
    /// anywhere from the initial home-owns-everything assignment.
    /// Invariant checks and gathers iterate this instead of the whole
    /// segment.
    pub fn dirty_blocks(&self) -> BlockSet {
        let mut out = BlockSet::new(self.geom.n_blocks);
        for sh in &self.shards {
            out.union_with(sh.dirty_blocks());
        }
        out
    }

    // ------------------------------------------------------------------
    // Access tags (Tempest fine-grain access control)
    // ------------------------------------------------------------------

    /// Current tag of block `b` at `node`.
    pub fn tag(&self, node: NodeId, b: usize) -> Access {
        self.shards[node].tag(b)
    }

    /// Set the tag of block `b` at `node` (no cost charged; protocols
    /// charge `tag_change_ns` themselves where appropriate).
    pub fn set_tag(&mut self, node: NodeId, b: usize, a: Access) {
        self.shards[node].set_tag(b, a);
    }

    // ------------------------------------------------------------------
    // Memory (per-node copies of the global segment)
    // ------------------------------------------------------------------

    /// Immutable view of a node's whole segment copy.
    pub fn node_mem(&self, node: NodeId) -> &[f64] {
        self.shards[node].mem()
    }

    /// Mutable view of a node's whole segment copy.
    pub fn node_mem_mut(&mut self, node: NodeId) -> &mut [f64] {
        self.shards[node].mem_mut()
    }

    /// Copy `len` words starting at `start` from `src` node's copy to
    /// `dst` node's copy. No cost charged (protocols charge transfer
    /// costs); data movement is exact.
    pub fn copy_words(&mut self, src: NodeId, dst: NodeId, start: usize, len: usize) {
        if src == dst || len == 0 {
            return;
        }
        let (s, d) = self.shard_pair_mut(src, dst);
        d.mem_mut()[start..start + len].copy_from_slice(&s.mem()[start..start + len]);
    }

    /// Merge the words of block `b` selected by `mask` (bit i = word i of
    /// the block) from `src`'s copy into `dst`'s copy — the multiple-writer
    /// diff application.
    pub fn merge_block_words(&mut self, src: NodeId, dst: NodeId, b: usize, mask: u64) {
        if src == dst || mask == 0 {
            return;
        }
        let (start, end) = self.geom.block_words(b);
        let (s, d) = self.shard_pair_mut(src, dst);
        let (sm, dm) = (s.mem(), d.mem_mut());
        for (i, w) in (start..end).enumerate() {
            if mask & (1 << i) != 0 {
                dm[w] = sm[w];
            }
        }
    }

    /// Ensure all pages covering `[start, start+len)` words are mapped at
    /// `node`, charging the first-touch mapping cost as stall time.
    /// Returns the number of pages newly mapped.
    pub fn map_range(&mut self, node: NodeId, start: usize, len: usize) -> u64 {
        self.shards[node].map_range(start, len)
    }

    /// True if `node` has mapped the page containing word `w`.
    pub fn is_mapped(&self, node: NodeId, w: usize) -> bool {
        self.shards[node].is_mapped(w)
    }

    // ------------------------------------------------------------------
    // Virtual time and events
    // ------------------------------------------------------------------

    /// Current virtual clock of `node` in ns.
    pub fn clock_ns(&self, node: NodeId) -> u64 {
        self.shards[node].clock_ns()
    }

    /// Record a typed trace event for `node`, stamped with the node's
    /// current virtual clock.
    pub fn record(&mut self, node: NodeId, event: Event) {
        self.shards[node].record(event);
    }

    /// One node's event trace (ring + folded aggregates).
    pub fn node_trace(&self, node: NodeId) -> &NodeTrace {
        self.shards[node].trace()
    }

    /// Change every node's trace-ring capacity (aggregates unaffected;
    /// shrinking evicts oldest entries as dropped).
    pub fn set_ring_capacity(&mut self, capacity: usize) {
        for sh in &mut self.shards {
            sh.trace_mut().set_capacity(capacity);
        }
    }

    /// Enter superstep `step` running IR loop `loop_id`: every event
    /// recorded on any shard until the matching
    /// [`Cluster::end_superstep`] is stamped with this context.
    pub fn begin_superstep(&mut self, step: u32, loop_id: u32) {
        for sh in &mut self.shards {
            sh.trace_mut().set_context(step, loop_id);
        }
    }

    /// Close superstep `step`: record the boundary marker on every
    /// shard, snapshot the per-node stats delta accrued since the
    /// previous boundary into the interval list, run the false-sharing
    /// detector over the blocks faulted this superstep, and reset the
    /// attribution context to the outside-any-superstep sentinels.
    pub fn end_superstep(&mut self, step: u32, loop_id: u32) {
        for sh in &mut self.shards {
            sh.record(Event::Superstep { step, loop_id });
        }
        // False sharing: a multi-word block faulted by ≥2 distinct nodes
        // within this superstep. Single-word blocks cannot be falsely
        // shared — there is no co-resident word to collide with — and
        // neither can anything when fewer than two nodes faulted at all
        // (the common superstep). Otherwise sort every shard's faults as
        // `(block, node)` pairs: equal blocks become adjacent, nodes
        // ascending within each.
        let faulted = |sh: &&NodeShard| !sh.trace().step_faults().is_empty();
        if self.shards.iter().filter(faulted).count() >= 2 {
            let pairs = &mut self.profile.fault_scratch;
            pairs.clear();
            for (n, sh) in self.shards.iter().enumerate() {
                pairs.extend(sh.trace().step_faults().iter().map(|&b| (b, n)));
            }
            pairs.sort_unstable();
            pairs.dedup();
            for group in pairs.chunk_by(|a, b| a.0 == b.0) {
                let block = group[0].0;
                let (s, e) = self.geom.block_words(block as usize);
                if group.len() >= 2 && e - s > 1 {
                    self.profile.false_sharing.push(FalseSharingFlag {
                        step,
                        loop_id,
                        block,
                        nodes: group.iter().map(|&(_, n)| n).collect(),
                    });
                }
            }
        }
        for sh in &mut self.shards {
            sh.trace_mut().clear_step_faults();
        }
        let nodes: Vec<NodeStats> = self
            .shards
            .iter()
            .zip(&self.profile.prev)
            .map(|(sh, prev)| sh.stats().delta(prev))
            .collect();
        // Refresh the boundary snapshot in place: `NodeStats` is plain
        // counters (no heap), so `clone_from` rewrites the existing slots
        // instead of reallocating a whole snapshot vector per superstep.
        for (prev, sh) in self.profile.prev.iter_mut().zip(&self.shards) {
            prev.clone_from(sh.stats());
        }
        self.profile.intervals.push(StepInterval {
            step,
            loop_id,
            nodes,
        });
        for sh in &mut self.shards {
            sh.trace_mut().set_context(NO_STEP, NO_LOOP);
        }
    }

    /// Charge `ns` to `node`'s clock under the given accounting category.
    pub fn charge(&mut self, node: NodeId, ns: u64, kind: ChargeKind) {
        self.shards[node].charge(ns, kind);
    }

    /// Charge protocol-handler occupancy executed at `node` on behalf of a
    /// remote request. In dual-cpu mode the dedicated protocol processor
    /// absorbs it (tracked but not added to the compute clock); in
    /// single-cpu mode it steals time from the compute CPU.
    pub fn charge_handler(&mut self, node: NodeId, ns: u64) {
        self.shards[node].charge_handler(ns);
    }

    /// Record a message of `payload_bytes` sent from `src` to `dst`
    /// (stats only; time is charged by the caller according to the
    /// transaction shape). The send is recorded on `src`'s trace and a
    /// matching receive on `dst`'s, each stamped with its own node's
    /// clock, so cluster-wide sent/received counters always balance.
    pub fn note_msg(&mut self, src: NodeId, dst: NodeId, payload_bytes: usize) {
        debug_assert_ne!(src, dst, "note_msg: self-send is not a message");
        self.shards[src].note_msg(payload_bytes);
        self.shards[dst].note_msg_recv(payload_bytes);
    }

    /// Like [`Cluster::note_msg`], additionally attributing the payload
    /// to the cache block whose coherence traffic it is — protocol call
    /// sites that know the block use this so the sender's heatmap can
    /// account the bytes.
    pub fn note_msg_at(&mut self, src: NodeId, dst: NodeId, payload_bytes: usize, block: usize) {
        debug_assert_ne!(src, dst, "note_msg_at: self-send is not a message");
        self.shards[src].note_msg_at(payload_bytes, block);
        self.shards[dst].note_msg_recv(payload_bytes);
    }

    /// Trace invariant: no node's virtual clock ever ran backwards.
    pub fn clocks_monotone(&self) -> bool {
        self.shards.iter().all(|s| s.trace().clock_monotone())
    }

    /// Record an outstanding eager-write transaction at `node` (release
    /// consistency: the node does not stall for the ownership grant, but
    /// must drain at the next release point).
    pub fn note_pending_write(&mut self, node: NodeId) {
        self.shards[node].note_pending_write();
    }

    /// Immutable per-node stats (aggregates folded from the trace).
    pub fn stats(&self, node: NodeId) -> &NodeStats {
        self.shards[node].stats()
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Global barrier: drain pending eager writes, advance every node to
    /// the common completion time and charge barrier wait.
    pub fn barrier(&mut self) {
        // Release point: wait for outstanding write transactions.
        for sh in &mut self.shards {
            sh.drain_pending_writes();
        }
        let max = self.shards.iter().map(|s| s.clock_ns()).max().unwrap_or(0);
        let done = max + self.geom.cfg.barrier_cost_ns(self.geom.nprocs);
        for sh in &mut self.shards {
            sh.align_clock(done, true);
        }
        self.makespan_ns = done;
    }

    /// All-reduce a per-node partial value with a combining tree; every
    /// node pays log₂(P) message rounds and the result is globally
    /// synchronizing (like a barrier).
    pub fn allreduce(&mut self, partials: &[f64], op: ReduceOp) -> f64 {
        assert_eq!(partials.len(), self.geom.nprocs);
        let rounds = (usize::BITS - (self.geom.nprocs - 1).leading_zeros()) as u64;
        let per_round = self.geom.cfg.one_way_ns(8)
            + self
                .geom
                .cfg
                .handler_cost(self.geom.cfg.handler_dispatch_ns);
        for sh in &mut self.shards {
            sh.charge(rounds * per_round, ChargeKind::Stall);
            sh.record(Event::Reduction);
            // In a combining tree every node both sends and receives one
            // 8-byte partial per round, so record both sides symmetrically
            // and the cluster-wide traffic counters stay balanced.
            for _ in 0..rounds {
                // Reduction partials are not block coherence traffic, so
                // the bytes stay unattributed in the heatmap.
                sh.record(Event::Msg {
                    bytes: 8,
                    block: NO_BLOCK,
                });
                sh.record(Event::MsgRecv { bytes: 8 });
            }
        }
        let max = self.shards.iter().map(|s| s.clock_ns()).max().unwrap_or(0);
        for sh in &mut self.shards {
            sh.align_clock(max, false);
        }
        self.makespan_ns = max;
        match op {
            ReduceOp::Sum => partials.iter().sum(),
            ReduceOp::Max => partials.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => partials.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// Snapshot a full report of the run so far, derived from the per-
    /// shard event traces (the traces' folded aggregates are the only
    /// statistics). `wall_ns` is stamped by the executor afterwards; it
    /// is host time, not part of the deterministic virtual-time state.
    pub fn report(&self) -> ClusterReport {
        let makespan = self
            .makespan_ns
            .max(self.shards.iter().map(|s| s.clock_ns()).max().unwrap_or(0));
        let mut intervals = self.profile.intervals.clone();
        // Whatever accrued after the last superstep boundary (final
        // gather, the run-ending barrier) goes in a trailing catch-all
        // interval so the intervals always decompose the whole run.
        let tail: Vec<NodeStats> = self
            .shards
            .iter()
            .zip(&self.profile.prev)
            .map(|(sh, prev)| sh.stats().delta(prev))
            .collect();
        if !tail.iter().all(|d| d.is_zero()) || intervals.is_empty() {
            intervals.push(StepInterval {
                step: NO_STEP,
                loop_id: NO_LOOP,
                nodes: tail,
            });
        }
        ClusterReport {
            nodes: self.shards.iter().map(|s| s.stats().clone()).collect(),
            handler_in_comm: self.geom.cfg.cpu == crate::costs::CpuMode::Single,
            makespan_ns: makespan,
            wall_ns: 0,
            host: Default::default(),
            wire_route_ns: 0,
            intervals,
            false_sharing: self.profile.false_sharing.clone(),
            heatmaps: self
                .shards
                .iter()
                .map(|sh| NodeHeatmap {
                    blocks: sh.trace().heat().iter().map(|(&b, &h)| (b, h)).collect(),
                    unattributed_bytes: sh.trace().unattributed_bytes(),
                })
                .collect(),
        }
    }

    /// Do the runtime's own hot structures falsely share cache lines?
    /// Every shard's write-hot counters must sit on a line no other
    /// shard's hot state occupies — the compute-phase analogue of the
    /// PR-5 detector's "≥2 nodes faulting one multi-word block" rule,
    /// applied to ourselves.
    pub fn hot_lines_disjoint(&self) -> bool {
        let mut lines = BTreeSet::new();
        self.shards.iter().all(|sh| lines.insert(sh.hot_line()))
    }

    /// Heatmap-style self-report on the *host* layout of the runtime's
    /// own hot structures: the PR-5 false-sharing detector's logic,
    /// pointed at the simulator itself. Reports shard size/alignment and
    /// each shard's hot-state cache-line index, and whether those lines
    /// are pairwise disjoint (no ping-ponging possible between
    /// compute-phase workers updating their own shard's clock).
    pub fn layout_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"cache_line_bytes\":{CACHE_LINE_BYTES},\"shard_size\":{},\"shard_align\":{},\"hot_lines_disjoint\":{},\"hot_lines\":[",
            std::mem::size_of::<NodeShard>(),
            std::mem::align_of::<NodeShard>(),
            self.hot_lines_disjoint(),
        ));
        for (n, sh) in self.shards.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&sh.hot_line().to_string());
        }
        out.push_str("]}");
        out
    }

    /// Render all retained trace entries as one JSON document (one object
    /// per node: drop count plus the entry list).
    pub fn trace_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"nodes\":[");
        for (n, sh) in self.shards.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            sh.trace().write_json(n, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Render the retained trace entries as Chrome trace-event JSON —
    /// one track (`tid`) per node, complete spans (`ph:"X"`) for the
    /// time-consuming events (compute/stall/ctl-call charges, barrier
    /// waits) and instants (`ph:"i"`) for the rest — loadable in
    /// Perfetto or `chrome://tracing`. Timestamps are virtual-time
    /// microseconds rendered with fixed-point integer math, so the
    /// output is a pure function of virtual-time state and byte-
    /// identical between serial and threaded runs.
    pub fn trace_chrome(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("[");
        let mut first = true;
        for (n, sh) in self.shards.iter().enumerate() {
            for e in sh.trace().entries() {
                let name = match e.event {
                    Event::Charge {
                        kind: ChargeKind::Compute,
                        ..
                    } => "compute",
                    Event::Charge {
                        kind: ChargeKind::Stall,
                        ..
                    } => "stall",
                    Event::Charge {
                        kind: ChargeKind::CtlCall,
                        ..
                    } => "ctl_call",
                    Event::BarrierWait { .. } => "barrier",
                    Event::Fault { .. } => "fault",
                    Event::Ctl { .. } => "ctl",
                    Event::CtlSend { .. } => "ctl_send",
                    Event::Msg { .. } => "msg",
                    Event::MsgRecv { .. } => "msg_recv",
                    Event::PageMap { .. } => "page_map",
                    Event::Handler { .. } => "handler",
                    Event::Barrier => "barrier_crossed",
                    Event::Reduction => "reduction",
                    Event::Superstep { .. } => "superstep",
                };
                let span_ns = match e.event {
                    Event::Charge { ns, .. } | Event::BarrierWait { ns } => Some(ns),
                    _ => None,
                };
                if !first {
                    out.push(',');
                }
                first = false;
                // Charges and waits are recorded at their *end* time, so
                // the span starts `ns` earlier.
                let start_ns = e.t_ns - span_ns.unwrap_or(0);
                write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"{}\",\"pid\":0,\"tid\":{n},\"ts\":{}.{:03}",
                    if span_ns.is_some() { 'X' } else { 'i' },
                    start_ns / 1000,
                    start_ns % 1000
                )
                .unwrap();
                if let Some(ns) = span_ns {
                    write!(out, ",\"dur\":{}.{:03}", ns / 1000, ns % 1000).unwrap();
                } else {
                    out.push_str(",\"s\":\"t\"");
                }
                let mut args: Vec<(&str, String)> = Vec::new();
                if e.step != NO_STEP {
                    args.push(("step", e.step.to_string()));
                    args.push(("loop", e.loop_id.to_string()));
                }
                match e.event {
                    Event::Fault { block, kind } => {
                        args.push(("block", block.to_string()));
                        args.push(("kind", format!("\"{kind:?}\"")));
                    }
                    Event::Ctl { prim } => args.push(("prim", format!("\"{prim:?}\""))),
                    Event::CtlSend {
                        blocks,
                        first_block,
                        array,
                    } => {
                        args.push(("blocks", blocks.to_string()));
                        if first_block != NO_BLOCK {
                            args.push(("first_block", first_block.to_string()));
                        }
                        if array != NO_ARRAY {
                            args.push(("array", array.to_string()));
                        }
                    }
                    Event::Msg { bytes, block } => {
                        args.push(("bytes", bytes.to_string()));
                        if block != NO_BLOCK {
                            args.push(("block", block.to_string()));
                        }
                    }
                    Event::MsgRecv { bytes } => args.push(("bytes", bytes.to_string())),
                    Event::PageMap { pages } => args.push(("pages", pages.to_string())),
                    Event::Handler { ns } => args.push(("ns", ns.to_string())),
                    Event::Superstep { step, loop_id } => {
                        args.push(("index", step.to_string()));
                        args.push(("loop_id", loop_id.to_string()));
                    }
                    _ => {}
                }
                out.push_str(",\"args\":{");
                for (i, (k, v)) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write!(out, "\"{k}\":{v}").unwrap();
                }
                out.push_str("}}");
            }
        }
        out.push(']');
        out
    }
}

/// Reduction operators supported by the runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(n: usize) -> Cluster {
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(2048);
        Cluster::new(n, cfg, &layout, HomePolicy::RoundRobin)
    }

    #[test]
    fn homes_round_robin_by_page() {
        let c = small_cluster(4);
        assert_eq!(c.home_of_word(0), 0);
        assert_eq!(c.home_of_word(512), 1);
        assert_eq!(c.home_of_word(1024), 2);
        assert_eq!(c.home_of_word(2047), 3);
    }

    #[test]
    fn home_starts_readwrite_others_invalid() {
        let c = small_cluster(4);
        let b = 0; // page 0, home node 0
        assert_eq!(c.tag(0, b), Access::ReadWrite);
        assert_eq!(c.tag(1, b), Access::Invalid);
    }

    #[test]
    fn copy_words_moves_data() {
        let mut c = small_cluster(2);
        c.node_mem_mut(0)[10] = 42.0;
        c.copy_words(0, 1, 8, 8);
        assert_eq!(c.node_mem(1)[10], 42.0);
        assert_eq!(c.node_mem(1)[7], 0.0);
    }

    #[test]
    fn merge_block_words_respects_mask() {
        let mut c = small_cluster(2);
        for w in 0..16 {
            c.node_mem_mut(0)[w] = w as f64 + 1.0;
        }
        c.merge_block_words(0, 1, 0, 0b101); // words 0 and 2 only
        assert_eq!(c.node_mem(1)[0], 1.0);
        assert_eq!(c.node_mem(1)[1], 0.0);
        assert_eq!(c.node_mem(1)[2], 3.0);
    }

    #[test]
    fn shard_pair_mut_is_disjoint_and_ordered() {
        let mut c = small_cluster(3);
        c.node_mem_mut(2)[0] = 7.0;
        {
            let (a, b) = c.shard_pair_mut(2, 0);
            assert_eq!(a.id(), 2);
            assert_eq!(b.id(), 0);
            b.mem_mut()[0] = a.mem()[0];
        }
        assert_eq!(c.node_mem(0)[0], 7.0);
    }

    #[test]
    fn dirty_blocks_track_tag_deviation() {
        let mut c = small_cluster(2);
        assert!(c.dirty_blocks().is_empty(), "initial tags are the default");
        // Node 1 gains a read-only copy of block 0 (home is node 0).
        c.set_tag(1, 0, Access::ReadOnly);
        // Node 0 loses write access to its own block 3.
        c.set_tag(0, 3, Access::ReadOnly);
        assert_eq!(c.dirty_blocks().iter().collect::<Vec<_>>(), [0, 3]);
        // Restoring the defaults empties the set.
        c.set_tag(1, 0, Access::Invalid);
        c.set_tag(0, 3, Access::ReadWrite);
        assert!(c.dirty_blocks().is_empty());
    }

    #[test]
    fn map_range_charges_once() {
        let mut c = small_cluster(2);
        // Node 1 touches page 0 (home is node 0): first touch maps.
        let n1 = c.map_range(1, 0, 512);
        assert_eq!(n1, 1);
        let n2 = c.map_range(1, 0, 512);
        assert_eq!(n2, 0);
        assert_eq!(c.stats(1).pages_mapped, 1);
        assert!(c.stats(1).stall_ns > 0);
        // Home already has its page mapped.
        assert_eq!(c.map_range(0, 0, 512), 0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut c = small_cluster(3);
        c.charge(0, 1000, ChargeKind::Compute);
        c.charge(1, 5000, ChargeKind::Compute);
        c.barrier();
        let done = c.clock_ns(0);
        assert_eq!(c.clock_ns(1), done);
        assert_eq!(c.clock_ns(2), done);
        assert!(done >= 5000 + c.cfg().barrier_cost_ns(3));
        // Slow node waited the least.
        assert!(c.stats(1).barrier_ns < c.stats(0).barrier_ns);
    }

    #[test]
    fn pending_writes_drain_at_barrier() {
        let mut c = small_cluster(2);
        c.note_pending_write(0);
        c.note_pending_write(0);
        c.barrier();
        assert_eq!(c.stats(0).stall_ns, 2 * c.cfg().release_drain_ns);
    }

    #[test]
    fn allreduce_sums_and_syncs() {
        let mut c = small_cluster(4);
        c.charge(2, 7777, ChargeKind::Compute);
        let v = c.allreduce(&[1.0, 2.0, 3.0, 4.0], ReduceOp::Sum);
        assert_eq!(v, 10.0);
        let t = c.clock_ns(0);
        assert!((0..4).all(|n| c.clock_ns(n) == t));
        assert_eq!(c.stats(0).reductions, 1);
    }

    #[test]
    fn handler_charging_depends_on_cpu_mode() {
        let mut c = small_cluster(2);
        let t0 = c.clock_ns(1);
        c.charge_handler(1, 1000);
        assert_eq!(
            c.clock_ns(1),
            t0,
            "dual-cpu: handler does not steal compute"
        );
        assert_eq!(c.stats(1).handler_ns, 1000);

        let cfg = CostModel::paper_single_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(512);
        let mut c1 = Cluster::new(2, cfg, &layout, HomePolicy::RoundRobin);
        c1.charge_handler(1, 1000);
        assert_eq!(c1.clock_ns(1), 1800, "single-cpu: scaled and charged");
    }

    #[test]
    fn ring_overflow_keeps_tail_but_counts_everything() {
        let mut c = small_cluster(2);
        c.set_ring_capacity(4);
        // Generate 10 charge events on node 0 (each `charge` records one
        // entry), well past the 4-entry ring.
        for _ in 0..10 {
            c.charge(0, 100, ChargeKind::Compute);
        }
        // The fold still counts every event...
        assert_eq!(c.stats(0).compute_ns, 1000, "aggregates stay exact");
        assert_eq!(c.clock_ns(0), 1000);
        // ...while the ring keeps only the most recent entries.
        let t = c.node_trace(0);
        assert_eq!(t.entries().count(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.entries().next().unwrap().t_ns, 700, "tail starts at 7th");
        // The JSON export reports the drop count.
        assert!(c.trace_json().contains("\"dropped\":6"));
    }

    /// The runtime's own layout must pass the false-sharing rule we
    /// apply to simulated apps: every shard's hot counters on a private
    /// cache line.
    #[test]
    fn shard_hot_state_does_not_false_share() {
        let c = small_cluster(8);
        assert!(c.hot_lines_disjoint(), "{}", c.layout_report());
        let report = c.layout_report();
        assert!(report.contains("\"hot_lines_disjoint\":true"));
        assert!(report.contains("\"cache_line_bytes\":64"));
        assert_eq!(std::mem::align_of::<NodeShard>() % 64, 0);
        assert_eq!(std::mem::size_of::<NodeShard>() % 64, 0);
    }

    #[test]
    fn superstep_boundaries_attribute_and_snapshot() {
        use crate::trace::FaultKind;
        let mut c = small_cluster(2);
        c.begin_superstep(0, 3);
        c.charge(0, 100, ChargeKind::Compute);
        // Both nodes fault the same multi-word block within the step.
        c.record(
            0,
            Event::Fault {
                block: 0,
                kind: FaultKind::Upgrade,
            },
        );
        c.record(
            1,
            Event::Fault {
                block: 0,
                kind: FaultKind::Read,
            },
        );
        c.end_superstep(0, 3);
        c.begin_superstep(1, 4);
        c.charge(1, 50, ChargeKind::Stall);
        // Same block faulted again, but by only one node: no flag.
        c.record(
            1,
            Event::Fault {
                block: 0,
                kind: FaultKind::Read,
            },
        );
        c.end_superstep(1, 4);
        c.charge(0, 25, ChargeKind::Compute); // after the last superstep
        let r = c.report();
        assert_eq!(r.intervals.len(), 3, "two supersteps + tail");
        assert_eq!((r.intervals[0].step, r.intervals[0].loop_id), (0, 3));
        assert_eq!(r.intervals[0].nodes[0].compute_ns, 100);
        assert_eq!(r.intervals[1].nodes[1].stall_ns, 50);
        assert_eq!(r.intervals[2].step, crate::trace::NO_STEP);
        assert_eq!(r.intervals[2].nodes[0].compute_ns, 25);
        r.check_profile_invariants().unwrap();
        assert_eq!(r.false_sharing.len(), 1);
        let f = &r.false_sharing[0];
        assert_eq!((f.step, f.loop_id, f.block), (0, 3, 0));
        assert_eq!(f.nodes, vec![0, 1]);
        // The per-loop fold covers the whole run.
        let rows = r.loop_table();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].loop_id, 3);
        assert_eq!(rows[0].total.compute_ns, 100);
    }

    #[test]
    fn chrome_export_is_deterministic_json() {
        use crate::trace::FaultKind;
        let mut c = small_cluster(2);
        c.begin_superstep(0, 0);
        c.charge(0, 1500, ChargeKind::Compute);
        c.record(
            0,
            Event::Fault {
                block: 2,
                kind: FaultKind::Read,
            },
        );
        c.end_superstep(0, 0);
        let j = c.trace_chrome();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(
            j.contains(
                "\"name\":\"compute\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"dur\":1.500"
            ),
            "got: {j}"
        );
        assert!(j.contains("\"name\":\"fault\",\"ph\":\"i\""));
        assert!(j.contains("\"step\":0,\"loop\":0"));
        assert!(j.contains("\"name\":\"superstep\""));
    }

    #[test]
    fn attributed_messages_heat_the_senders_blocks() {
        let mut c = small_cluster(2);
        c.note_msg_at(0, 1, 128, 3);
        c.note_msg(0, 1, 8);
        let r = c.report();
        assert_eq!(r.nodes[0].bytes_sent, 136);
        assert_eq!(r.heatmaps[0].unattributed_bytes, 8);
        assert_eq!(
            r.heatmaps[0].blocks,
            vec![(
                3,
                crate::trace::BlockHeat {
                    bytes_sent: 128,
                    ..Default::default()
                }
            )]
        );
        assert!(r.traffic_balanced());
        r.check_profile_invariants().unwrap();
    }

    #[test]
    fn segment_layout_page_aligns() {
        let mut l = SegmentLayout::new(512);
        let a = l.alloc(100);
        let b = l.alloc(513);
        assert_eq!(a, 0);
        assert_eq!(b, 512);
        assert_eq!(l.total_words(), 512 + 1024);
    }
}
