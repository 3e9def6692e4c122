//! The DSM facade and the [`Protocol`] plug-in interface.
//!
//! [`Dsm`] owns the Tempest cluster, the block directory, and the
//! protocol-neutral machinery every coherence protocol builds on (twins,
//! word diffs, home transfers). The *policy* — what happens on a fault and
//! at a release — lives behind the [`Protocol`] trait: the paper's
//! directory-based eager-invalidate multiple-writer release consistency
//! ([`crate::eager::EagerInvalidate`], §3/§5) and the §3 aside's
//! write-update alternative ([`crate::update::WriteUpdate`]) are the two
//! built-in implementations, and third-party protocols can plug in through
//! [`Dsm::with_protocol_impl`] using the same public building blocks.

use crate::dir::DirState;
use crate::eager::EagerInvalidate;
use crate::fault::{Fault, Faults};
use crate::node::WireTransport;
use crate::update::WriteUpdate;
use crate::wire::{encode_gathered, reconcile_stats, FrameBatch, Head, Shape, WireError, WireView};
use fgdsm_tempest::metrics::{MetricsRegistry, Stage, Telemetry, WireSpan};
use fgdsm_tempest::{Access, BlockMap, BlockSet, Cluster, DirtySet, NodeId, NO_ARRAY};
use std::collections::{hash_map, VecDeque};
use std::time::Instant;

/// Which built-in default coherence protocol the DSM runs.
///
/// The paper's system uses eager-invalidate multiple-writer release
/// consistency; §3 notes that "general update-based protocols have
/// analogous problems" — [`ProtocolKind::WriteUpdate`] lets the benchmarks
/// quantify that: copies stay valid (no re-fetch misses), but every
/// release propagates each writer's dirty words to *every* sharer,
/// whether or not it will read them again.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProtocolKind {
    /// Directory-based eager-invalidate MW release consistency (paper §5).
    #[default]
    EagerInvalidate,
    /// Write-update: writers keep sharers' copies current at each release.
    WriteUpdate,
}

/// A pluggable default coherence protocol.
///
/// Implementations receive the [`Dsm`] (cluster + directory + twin
/// machinery) and decide how faults are serviced and what a release point
/// does. The executor never sees this trait — it calls the [`Dsm`] facade
/// methods, which dispatch here.
pub trait Protocol {
    /// Short protocol name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Whether the §4.2 compiler-directed control contract (`mk_writable`
    /// / `implicit_writable` / `send_range` / …) is sound on top of this
    /// protocol. The optimized executor refuses `OptLevel::ctl` otherwise.
    fn supports_ctl(&self) -> bool;

    /// Whether a write access by `p` to a block it already holds writable
    /// and directory-exclusive does nothing — no event, charge or state
    /// change. Then a walk may leave out every block homed at `p` that
    /// `p` has not lost ([`Dsm::lost_homed`]). A capability, like
    /// [`Protocol::supports_ctl`]: by default a walk visits every block it
    /// writes.
    fn skips_held(&self) -> bool {
        false
    }

    /// Service a read fault: bring block `b` to at least `ReadOnly` at
    /// `p`. Only called when `p` has no valid copy.
    fn read_access(&mut self, d: &mut Dsm, p: NodeId, b: usize);

    /// Service a write fault where `p` is the interval's only writer of
    /// the block.
    fn write_access_excl(&mut self, d: &mut Dsm, p: NodeId, b: usize);

    /// Service a write fault on a block written by *multiple* nodes in
    /// the same interval (false sharing at column boundaries, §4.1).
    fn write_access_multi(&mut self, d: &mut Dsm, p: NodeId, b: usize);

    /// [`Protocol::write_access_excl`] for every block of
    /// `[first, end)`, ascending. A protocol that can tell cheaply which
    /// blocks of a range fault overrides this to skip the rest; the
    /// events it records must be exactly this loop's.
    fn write_access_range(&mut self, d: &mut Dsm, p: NodeId, first: usize, end: usize) {
        for b in first..end {
            self.write_access_excl(d, p, b);
        }
    }

    /// [`Protocol::read_access`] for every block of `[first, end)` that
    /// `p` holds no valid copy of, ascending. Overridable like
    /// [`Protocol::write_access_range`].
    fn read_access_range(&mut self, d: &mut Dsm, p: NodeId, first: usize, end: usize) {
        for b in first..end {
            if d.cluster.tag(p, b) == Access::Invalid {
                self.read_access(d, p, b);
            }
        }
    }

    /// Release point: propagate/merge interval writes. The facade runs
    /// the global barrier afterwards.
    fn release(&mut self, d: &mut Dsm);

    /// Verify protocol invariants (directory vs. tags vs. data); called
    /// by tests after barriers.
    fn check(&self, d: &Dsm) -> Result<(), String>;
}

/// A fine-grain DSM: the Tempest cluster plus the block directory, the
/// protocol-neutral twin/diff machinery, and the compiler-control runtime
/// state — with the coherence *policy* behind a [`Protocol`] object.
pub struct Dsm {
    /// The underlying simulated cluster (public: executors run kernels
    /// directly against node memory).
    pub cluster: Cluster,
    dir: Vec<DirState>,
    /// Per node: the blocks `dir` records as `Excl` at that node. Written
    /// only by [`Dsm::set_dir`], the only writer of `dir`, so it never
    /// disagrees with it (`EagerInvalidate::check` cross-checks); the
    /// range scans read ownership from it a word at a time.
    excl: Vec<BlockSet>,
    /// Blocks whose directory state differs from the initial
    /// home-owns-everything assignment (`Excl{owner: home}`). Together
    /// with the per-shard dirty tag sets this bounds every consistency
    /// scan by the traffic footprint instead of the segment size.
    dirty_dirs: DirtySet,
    /// Twins for multiple-writer blocks: (block, writer) → offset of its
    /// snapshot in `twin_words`. Every twin dies at the release that
    /// ends its interval, so the words are cleared, capacity kept, when
    /// the last one goes — no per-twin allocation, no free list.
    twin_at: BlockMap<(u32, u32), usize>,
    twin_words: Vec<f64>,
    /// Per-receiver compiler-directed transfer inbox: latest arrival time
    /// and pending payload/block counts (reset by `ready_to_recv`).
    pub(crate) inbox_arrival: Vec<u64>,
    pub(crate) inbox_payloads: Vec<u64>,
    pub(crate) inbox_blocks: Vec<u64>,
    /// Memo for run-time overhead elimination: ranges already made
    /// implicitly writable at a node (§4.3's "first time around" test).
    pub(crate) iw_memo: std::collections::BTreeSet<(NodeId, usize, usize)>,
    /// Strict wire mode: when present, every inter-node data movement is
    /// encoded into a frame (`crate::wire`), carried by the transport, and
    /// applied from the frame's bytes (`None` = zero-copy fast path).
    pub(crate) wire: Option<WireState>,
    /// The armed must-catch faults (none by default).
    pub faults: Faults,
    /// The active protocol; taken out during dispatch to avoid a double
    /// borrow, always put back (`None` only mid-call).
    proto: Option<Box<dyn Protocol>>,
}

/// The blocks whose tags are under compiler control, per node
/// ([`Dsm::ctl_blocks`]): `(first, reach)` in ascending `first`.
pub(crate) struct CtlBlocks(Vec<Vec<(usize, usize)>>);

impl CtlBlocks {
    /// Is block `b` inside one of `node`'s memoized ranges?
    pub(crate) fn contains(&self, node: NodeId, b: usize) -> bool {
        let ranges = &self.0[node];
        let started = ranges.partition_point(|&(first, _)| first <= b);
        started > 0 && ranges[started - 1].1 > b
    }
}

/// Everything strict wire mode needs: the batch buffer frames are
/// encoded into, the transport that carries them, and frame/byte
/// counters for reconciliation against `NodeStats`.
pub(crate) struct WireState {
    /// The frames of one delivery — a plan's payloads, or one fault-path
    /// message — posted toward `staged_dst` and not yet delivered, in
    /// posting order, each encoded in place straight from its source
    /// shard. Delivery applies them from these bytes and hands them to
    /// the transport, which keeps its own copy until their arrival is
    /// verified; the buffer is then cleared and reused.
    pub staged: FrameBatch,
    pub staged_dst: usize,
    pub transport: Box<dyn WireTransport>,
    /// Envelopes routed so far.
    pub frames: u64,
    /// Total on-wire payload bytes (`Shape::payload_bytes` of each frame).
    pub payload_bytes: u64,
    /// Host wall-clock the transport spent blocked on its links — writing
    /// each batch, then waiting for and verifying its echo — in ns: the
    /// sum of the [`WireSpan`]s its `sync` has reported. Real time (like
    /// `ClusterReport::wall_ns`), so it is kept out of every canonical
    /// artifact — it exists so the bench layer can put *measured*
    /// transport latency next to the *predicted* virtual comm clock.
    pub route_ns: u64,
    /// Link-level batches verified, and `sync` calls made, so far.
    pub batches: u64,
    pub syncs: u64,
    /// Coordinator-side double-entry book, per destination node: frames
    /// and payload bytes staged toward each peer. Always maintained (two
    /// adds per frame), reconciled against each remote's `ByeStats` at
    /// [`Dsm::wire_finish`].
    pub dst_frames: Vec<u64>,
    pub dst_payload: Vec<u64>,
    /// Wall-clock telemetry, present only when enabled — `None` costs
    /// nothing on the hot path and keeps canonical artifacts untouched.
    pub metrics: Option<WireMetrics>,
    /// The run's first failure ([`Dsm::wire_ok`]): once it is set,
    /// nothing more reaches the transport.
    pub err: Option<WireError>,
}

/// The coordinator's wall-clock telemetry state: its table of per-class
/// histograms and counters, the kind of every frame sent but not yet
/// reported verified (per destination, in send order — how a batch's time finds
/// its classes), and the batch spans for the merged Chrome trace.
pub(crate) struct WireMetrics {
    pub table: Box<Telemetry>,
    pub unverified: Vec<VecDeque<u8>>,
    pub spans: Vec<WireSpan>,
}

/// Start an encode/decode/apply stopwatch — `None` (no clock read at
/// all) when telemetry is off.
fn stopwatch(metrics: &Option<WireMetrics>) -> Option<Instant> {
    metrics.as_ref().map(|_| Instant::now())
}

/// Record a `stage` sample for a frame of `kind` from a started
/// stopwatch to now, and return now: where the next stage starts, so
/// each stage boundary costs one clock read (nothing when `None`).
fn lap(m: &mut Option<WireMetrics>, stage: Stage, kind: u8, t: Option<Instant>) -> Option<Instant> {
    let (m, now) = (m.as_mut()?, Instant::now());
    let ns = now.duration_since(t?).as_nanos() as u64;
    m.table.record(stage, kind, ns);
    Some(now)
}

impl WireState {
    fn new(nprocs: usize, transport: Box<dyn WireTransport>) -> Self {
        WireState {
            staged: FrameBatch::new(),
            staged_dst: 0,
            transport,
            frames: 0,
            payload_bytes: 0,
            route_ns: 0,
            batches: 0,
            syncs: 0,
            dst_frames: vec![0; nprocs],
            dst_payload: vec![0; nprocs],
            metrics: None,
            err: None,
        }
    }

    /// Book one staged envelope: the global and per-destination counters
    /// (always), plus the per-class counters and encode histogram when
    /// telemetry is on. `undercount` is [`Fault::UndercountMetrics`]
    /// firing: the per-class payload counter is skipped.
    fn note_encoded(
        &mut self,
        kind: u8,
        dst: usize,
        payload: u64,
        encode_ns: u64,
        undercount: bool,
    ) {
        self.frames += 1;
        self.payload_bytes += payload;
        self.dst_frames[dst] += 1;
        self.dst_payload[dst] += payload;
        if let Some(m) = self.metrics.as_mut() {
            m.table.count(kind, if undercount { 0 } else { payload });
            m.table.record(Stage::Encode, kind, encode_ns);
        }
    }

    /// Stage one envelope: encode `head` + `shape` onto the end of the
    /// batch buffer, its `nwords` payload words gathered straight from
    /// the source shard's memory, and book it. From here on the transfer
    /// no longer needs the source shard alive. Every frame of a delivery
    /// goes to one destination.
    fn post(
        &mut self,
        head: Head,
        shape: Shape,
        nwords: usize,
        src_mem: &[f64],
        wpb: usize,
        undercount: bool,
    ) {
        let runs = shape
            .runs(nwords, wpb, src_mem.len())
            .unwrap_or_else(|e| panic!("wire: cannot fill a kind-{} envelope: {e}", shape.kind()));
        let dst = head.dst as usize;
        assert!(
            self.staged.is_empty() || self.staged_dst == dst,
            "wire: a delivery has one destination"
        );
        self.staged_dst = dst;
        let t_enc = stopwatch(&self.metrics);
        self.staged
            .encode(|out| encode_gathered(out, &head, &shape, (runs, nwords), src_mem));
        let encode_ns = t_enc.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.note_encoded(
            shape.kind(),
            dst,
            shape.payload_bytes(nwords),
            encode_ns,
            undercount,
        );
    }

    /// Deliver everything staged into `mem`, the destination's shard:
    /// parse each frame of the batch buffer and apply it from its bytes,
    /// in posting order — the apply works from the very bytes that travel,
    /// on every transport — then hand the batch to the transport, which
    /// verifies its arrival by the next [`WireState::sync`], and clear
    /// the buffer for reuse. `corrupt` is [`Fault::CorruptEnvelope`]
    /// firing (damages the first frame). A frame the decoder or the
    /// shard's geometry rejects, or a send the transport fails (peer
    /// gone, …), becomes the run's error if it is the first; once one
    /// is kept, a delivery only clears the buffer.
    fn deliver(&mut self, mem: &mut [f64], wpb: usize, corrupt: bool) {
        if self.err.is_none() {
            self.err = self.apply(mem, wpb, corrupt).err();
        }
        self.staged.clear();
    }

    /// [`WireState::deliver`] up to its first failure.
    fn apply(&mut self, mem: &mut [f64], wpb: usize, corrupt: bool) -> Result<(), WireError> {
        let (staged, dst) = (&mut self.staged, self.staged_dst);
        if let Some(frame) = staged.frames_mut().next().filter(|_| corrupt) {
            corrupt_frame(frame);
        }
        for frame in staged.frames() {
            let t_dec = stopwatch(&self.metrics);
            let view = WireView::parse(frame)?;
            let t_apply = lap(&mut self.metrics, Stage::Decode, view.kind(), t_dec);
            view.scatter(mem, wpb)?;
            lap(&mut self.metrics, Stage::Apply, view.kind(), t_apply);
            if let Some(m) = self.metrics.as_mut() {
                m.unverified[dst].push_back(view.kind());
            }
        }
        self.transport.send(dst, staged)
    }

    /// Wait until the transport has verified everything delivered so far
    /// (its failure becomes the run's error if it is the first; with one
    /// kept there is nothing to wait for), and book the batches it
    /// reports: their blocked time into `route_ns`, and with telemetry on
    /// into the route histograms exactly once — an equal share per frame
    /// of the batch, the remainder to the first — so their sums add up to
    /// `route_ns` with one sample per frame.
    fn sync(&mut self) {
        if self.err.is_some() {
            return;
        }
        self.syncs += 1;
        let spans = match self.transport.sync() {
            Ok(spans) => spans,
            Err(e) => {
                self.err = Some(e);
                return;
            }
        };
        self.batches += spans.len() as u64;
        self.route_ns += spans.iter().map(|s| s.dur_ns).sum::<u64>();
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        for s in &spans {
            let kinds = &mut m.unverified[s.dst as usize];
            let n = u64::from(s.frames).max(1);
            let mut share = s.dur_ns / n + s.dur_ns % n;
            for kind in kinds.drain(..kinds.len().min(s.frames as usize)) {
                m.table.record(Stage::Route, kind, share);
                share = s.dur_ns / n;
            }
        }
        m.spans.extend(spans);
    }
}

/// Deliberately damage an encoded frame for [`Fault::CorruptEnvelope`]:
/// flipping a version bit leaves the payload intact, so only a decoder
/// that actually validates will notice.
fn corrupt_frame(buf: &mut [u8]) {
    if buf.len() > 2 {
        buf[2] ^= 0x40;
    }
}

impl Dsm {
    /// Wrap a cluster; every block starts exclusively owned by its home.
    /// Runs the paper's eager-invalidate protocol.
    pub fn new(cluster: Cluster) -> Self {
        Self::with_protocol(cluster, ProtocolKind::EagerInvalidate)
    }

    /// Wrap a cluster with one of the built-in protocols.
    pub fn with_protocol(cluster: Cluster, kind: ProtocolKind) -> Self {
        let proto: Box<dyn Protocol> = match kind {
            ProtocolKind::EagerInvalidate => Box::new(EagerInvalidate::new()),
            ProtocolKind::WriteUpdate => Box::new(WriteUpdate::new()),
        };
        Self::with_protocol_impl(cluster, proto)
    }

    /// Wrap a cluster with an arbitrary [`Protocol`] implementation.
    pub fn with_protocol_impl(cluster: Cluster, proto: Box<dyn Protocol>) -> Self {
        assert!(cluster.nprocs() <= 64, "directory masks support ≤64 nodes");
        let n_blocks = cluster.n_blocks();
        let nprocs = cluster.nprocs();
        let dir = (0..n_blocks)
            .map(|b| DirState::Excl {
                owner: cluster.home_of_block(b),
            })
            .collect();
        // Every block starts `Excl` at its home, and a home starts with
        // exactly its blocks writable.
        let excl = (0..nprocs)
            .map(|n| cluster.shard(n).writable().clone())
            .collect();
        Dsm {
            cluster,
            dir,
            excl,
            dirty_dirs: DirtySet::new(n_blocks),
            twin_at: BlockMap::default(),
            twin_words: Vec::new(),
            inbox_arrival: vec![0; nprocs],
            inbox_payloads: vec![0; nprocs],
            inbox_blocks: vec![0; nprocs],
            iw_memo: std::collections::BTreeSet::new(),
            wire: None,
            faults: Faults::default(),
            proto: Some(proto),
        }
    }

    /// Switch on strict wire mode: from here on, every inter-node data
    /// movement round-trips through an encoded frame carried by
    /// `transport`. Observable behavior (clocks, stats, traces, data)
    /// is byte-identical to the fast path — only the data path changes.
    /// A transfer that fails is kept, not thrown: the caller reads it
    /// with [`Dsm::wire_ok`] or [`Dsm::wire_finish`].
    pub fn set_wire(&mut self, transport: Box<dyn WireTransport>) {
        let nprocs = self.cluster.nprocs();
        self.wire = Some(WireState::new(nprocs, transport));
    }

    /// Whether strict wire mode is active.
    pub(crate) fn wire_strict(&self) -> bool {
        self.wire.is_some()
    }

    /// Switch on wall-clock telemetry for the active wire transport:
    /// per-class encode/route/decode/apply histograms and socket-batch
    /// spans. No-op on the fast path (no wire, nothing to time); costs
    /// nothing when never called.
    pub fn enable_wire_metrics(&mut self) {
        if let Some(w) = self.wire.as_mut() {
            w.metrics = Some(WireMetrics {
                table: Box::default(),
                unverified: vec![VecDeque::new(); w.dst_frames.len()],
                spans: Vec::new(),
            });
        }
    }

    /// End-of-run telemetry harvest: settle the last frames in flight,
    /// tear down the transport's remote peers, reconcile each node's
    /// `ByeStats` book against the coordinator's per-destination counters
    /// (a diverging counter is a [`WireError::StatsMismatch`] naming
    /// it), then decode every worker's table beside the coordinator's (a
    /// blob that does not decode is a [`WireError::BadReply`]). Returns
    /// the registry (None when telemetry was off) and the recorded
    /// socket-batch spans, or the first error: the one the run kept
    /// ([`Dsm::wire_ok`]), else the first teardown meets.
    pub fn wire_finish(&mut self) -> Result<(Option<MetricsRegistry>, Vec<WireSpan>), WireError> {
        let Some(w) = self.wire.as_mut() else {
            return Ok((None, Vec::new()));
        };
        w.sync();
        w.err.clone().map_or(Ok(()), Err)?;
        let mut nodes = Vec::new();
        for r in w.transport.finish() {
            let node = r.node as usize;
            let local_frames = w.dst_frames.get(node).copied().unwrap_or(0);
            let local_payload = w.dst_payload.get(node).copied().unwrap_or(0);
            reconcile_stats(r.node, local_frames, local_payload, &r)?;
            if !r.metrics.is_empty() {
                let t = Telemetry::from_bytes(&r.metrics).map_err(|what| WireError::BadReply {
                    node: r.node,
                    what: format!("bad metrics blob: {what}"),
                })?;
                nodes.push((r.node, t));
            }
        }
        let Some(m) = w.metrics.take() else {
            return Ok((None, Vec::new()));
        };
        Ok((Some(MetricsRegistry::new(m.table, nodes)), m.spans))
    }

    /// `Err` with the run's first wire failure — a frame refused at
    /// delivery, a transport that could not send or settle — once one is
    /// kept (it stays; nothing more is sent), `Ok` until then and always
    /// on the fast path.
    pub fn wire_ok(&self) -> Result<(), WireError> {
        let err = self.wire.as_ref().and_then(|w| w.err.clone());
        err.map_or(Ok(()), Err)
    }

    /// `(frames routed, payload bytes)` so far; `(0, 0)` on the fast
    /// path. Exposed outside the report so wire accounting can be
    /// reconciled against `NodeStats` without perturbing byte-identity.
    pub fn wire_stats(&self) -> (u64, u64) {
        self.wire
            .as_ref()
            .map_or((0, 0), |w| (w.frames, w.payload_bytes))
    }

    /// Measured host wall-clock the transport spent blocked on its links
    /// (writing batches, waiting for and verifying their echoes), in ns,
    /// as of the last barrier — `0` on the fast path and over the
    /// in-process loopback, which has no link. Real time, never part of
    /// canonical artifacts — the bench layer reads it to compare measured
    /// transport latency against the virtual cost model.
    pub fn wire_route_ns(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.route_ns)
    }

    /// `(link-level batches verified, syncs)` as of the last barrier: how
    /// often the coordinator had to wait on a link, against
    /// [`Dsm::wire_stats`]' frames. `(0, 0)` on the fast path.
    pub fn wire_batches(&self) -> (u64, u64) {
        self.wire.as_ref().map_or((0, 0), |w| (w.batches, w.syncs))
    }

    // ------------------------------------------------------------------
    // Strict wire mode: envelope encode / route / decode / apply
    // ------------------------------------------------------------------

    /// Header for an envelope `src → dst` covering blocks
    /// `[first, first + n)`, attributed to the source's current
    /// (superstep, loop) trace context.
    pub(crate) fn wire_head(
        &self,
        src: NodeId,
        dst: NodeId,
        array: u32,
        first: usize,
        n: usize,
    ) -> Head {
        Head {
            src: src as u32,
            dst: dst as u32,
            ctx: self.cluster.node_trace(src).context(),
            array,
            first: first as u32,
            n: n as u32,
        }
    }

    /// Post an envelope toward its destination: `head` + `shape` with
    /// `nwords` payload words, encoded straight from the source shard
    /// into the batch buffer ([`WireState::post`]). [`Dsm::wire_deliver`]
    /// sends it off with the rest of its delivery.
    pub(crate) fn wire_post(&mut self, head: Head, shape: Shape, nwords: usize) {
        // One-shot: the first posted envelope, when telemetry is recording.
        let metered = self.wire.as_ref().is_some_and(|w| w.metrics.is_some());
        let undercount = metered && self.faults.take(Fault::UndercountMetrics);
        let wpb = self.cluster.words_per_block();
        let src_mem = self.cluster.node_mem(head.src as usize);
        let w = self.wire.as_mut().expect("wire_post: strict mode off");
        w.post(head, shape, nwords, src_mem, wpb, undercount);
    }

    /// Apply the posted frames at their destination and send them off
    /// ([`WireState::deliver`]), in posting order. Every delivery — a
    /// plan's payloads, or one fault-path message — lands before the next
    /// is posted, in the order the fast path copies its data.
    pub(crate) fn wire_deliver(&mut self) {
        // One-shot: the first delivered batch of the run.
        let corrupt = self.faults.take(Fault::CorruptEnvelope);
        let wpb = self.cluster.words_per_block();
        let w = self.wire.as_mut().expect("wire_deliver: strict mode off");
        w.deliver(self.cluster.node_mem_mut(w.staged_dst), wpb, corrupt);
    }

    /// The single-message path: post the envelope and deliver it, which
    /// stores its payload at the destination from the frame's bytes. A
    /// frame the decoder or the destination's geometry rejects is kept
    /// as the run's error ([`Dsm::wire_ok`]).
    pub(crate) fn wire_route(&mut self, head: Head, shape: Shape, nwords: usize) {
        self.wire_post(head, shape, nwords);
        self.wire_deliver();
    }

    /// Move `len` words `src → dst` starting at word `start`. Fast path:
    /// a direct shard-to-shard copy. Strict wire mode: the words travel
    /// as an encoded `Copy` envelope through the transport and land
    /// from the frame's bytes — behaviorally identical, bit for bit.
    /// Charges and message accounting stay at the call sites.
    pub(crate) fn wire_copy(&mut self, src: NodeId, dst: NodeId, start: usize, len: usize) {
        if src == dst || len == 0 {
            return;
        }
        if self.wire.is_none() {
            self.cluster.copy_words(src, dst, start, len);
            return;
        }
        let b0 = self.cluster.block_of(start);
        let b1 = self.cluster.block_of(start + len - 1);
        let head = self.wire_head(src, dst, NO_ARRAY, b0, b1 - b0 + 1);
        let shape = Shape::Copy {
            start_word: start as u64,
        };
        self.wire_route(head, shape, len);
    }

    /// The single home of (array, block) diff attribution: account the
    /// word-diff message `src → dst` for block `b` (the mask word plus
    /// one word per dirty bit, [`crate::wire::diff_bytes`]) and move the
    /// masked words — enveloped as a `Diff` in strict wire mode. Returns
    /// the on-wire bytes for the caller's latency charge.
    pub(crate) fn wire_diff(&mut self, src: NodeId, dst: NodeId, b: usize, mask: u64) -> usize {
        let bytes = crate::wire::diff_bytes(mask);
        self.cluster.note_msg_at(src, dst, bytes, b);
        if self.wire.is_none() {
            self.cluster.merge_block_words(src, dst, b, mask);
            return bytes;
        }
        let head = self.wire_head(src, dst, NO_ARRAY, b, 1);
        let shape = Shape::Diff {
            block: b as u64,
            mask,
        };
        self.wire_route(head, shape, mask.count_ones() as usize);
        bytes
    }

    fn proto(&self) -> &dyn Protocol {
        self.proto.as_deref().expect("protocol re-entered")
    }

    /// Name of the protocol in force.
    pub fn protocol_name(&self) -> &'static str {
        self.proto().name()
    }

    /// Whether the active protocol supports the §4.2 ctl contract.
    pub fn supports_ctl(&self) -> bool {
        self.proto().supports_ctl()
    }

    /// Directory state of a block (inspection/testing).
    pub fn dir_state(&self, b: usize) -> DirState {
        self.dir[b]
    }

    /// Overwrite a block's directory state (protocol transitions and
    /// compiler-control state changes). Maintains the per-node exclusive
    /// sets and the dirty-directory set: a block is dirty while its state
    /// differs from the initial `Excl{owner: home}`.
    pub fn set_dir(&mut self, b: usize, s: DirState) {
        if let DirState::Excl { owner } = self.dir[b] {
            self.excl[owner].set(b, false);
        }
        if let DirState::Excl { owner } = s {
            self.excl[owner].set(b, true);
        }
        self.dir[b] = s;
        self.dirty_dirs
            .set(b, !s.is_excl_by(self.cluster.home_of_block(b)));
    }

    /// [`Dsm::set_dir`] to state `s` for every block of the non-empty
    /// `[first, end)`, whose blocks all hold one state (a like-run's): the
    /// exclusive sets and the dirty-directory set a word at a time, the
    /// latter by home-page run.
    pub(crate) fn set_dir_range(&mut self, first: usize, end: usize, s: DirState) {
        let old = self.dir[first];
        debug_assert!(self.dir[first..end].iter().all(|&d| d == old));
        if let DirState::Excl { owner } = old {
            self.excl[owner].set_range(first, end, false);
        }
        if let DirState::Excl { owner } = s {
            self.excl[owner].set_range(first, end, true);
        }
        self.dir[first..end].fill(s);
        let mut b = first;
        while b < end {
            let (run_end, h) = self.cluster.home_run(b, end);
            self.dirty_dirs.set_range(b, run_end, !s.is_excl_by(h));
            b = run_end;
        }
    }

    /// Where the like-run of faults that starts at block `b`, which `p`
    /// faults on, ends: the blocks after `b`, up to `end`, that share its
    /// home, its directory state and `p`'s tag of it, on `b`'s page or a
    /// page `p` has mapped. `p`'s fault on each of them records the
    /// events of its fault on `b`, shifted by block, and moves its tags,
    /// directory entry and data alike. A `Multi` block, every block in
    /// strict wire mode (whose frames are per block) and every block of a
    /// traced execute (whose ring keeps each event) is a run of one.
    pub(crate) fn like_run(&self, p: NodeId, b: usize, end: usize) -> usize {
        let cur = self.dir[b];
        if self.wire.is_some()
            || matches!(cur, DirState::Multi { .. })
            || self.cluster.node_trace(p).keeps_entries()
        {
            return b + 1;
        }
        let (shard, tag) = (self.cluster.shard(p), self.cluster.tag(p, b));
        let h = self.cluster.home_of_block(b);
        let crosses = self.faults.has(Fault::RunCrossesHome);
        let bpp = self.cluster.words_per_page() / self.cluster.words_per_block();
        let mut e = b + 1;
        while e < end && self.dir[e] == cur && self.cluster.tag(p, e) == tag {
            // A page edge: the run goes on only on a mapped page of `h`.
            if e.is_multiple_of(bpp)
                && (!shard.is_mapped(e / bpp) || !crosses && self.cluster.home_of_block(e) != h)
            {
                break;
            }
            e += 1;
        }
        e
    }

    /// The blocks the directory records as `Excl` at `node`, as a bitset
    /// a scan reads a word at a time (`dir_state(b).is_excl_by(node)`
    /// for every block).
    pub fn excl_blocks(&self, node: NodeId) -> &BlockSet {
        &self.excl[node]
    }

    /// Blocks whose directory state deviates from the initial
    /// home-exclusive assignment (ascending order).
    pub fn dirty_dir_blocks(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty_dirs.blocks().iter()
    }

    /// Every block that any protocol state — the directory or any node's
    /// access tag — has moved off the initial assignment. Untouched
    /// blocks provably satisfy the protocol invariants (home holds the
    /// only, writable, zero-initialized copy), so consistency checks and
    /// gathers iterate this set (ascending) instead of the whole segment.
    pub(crate) fn touched_blocks(&self) -> BlockSet {
        let mut out = self.cluster.dirty_blocks();
        out.union_with(self.dirty_dirs.blocks());
        out
    }

    /// The first block of `[first, end)` that `p` does not hold writable
    /// and directory-exclusive — the first a single-writer access to the
    /// range faults on: the first zero of `p`'s writable tags ∧ its
    /// exclusive set, 64 blocks a word.
    pub fn first_not_exclusive(&self, p: NodeId, first: usize, end: usize) -> Option<usize> {
        let writable = self.cluster.shard(p).writable();
        writable.first_not_in_both(&self.excl[p], first, end)
    }

    /// The first block of `[first, end)` that `p` holds no valid copy of
    /// — the first a read of the range faults on: the first zero of its
    /// valid tags.
    pub fn first_invalid(&self, p: NodeId, first: usize, end: usize) -> Option<usize> {
        self.cluster.shard(p).valid().first_absent(first, end)
    }

    /// The blocks of `[first, end)` homed at `p` that a write by `p`
    /// (`write`) or a read would fault on, as maximal ascending runs
    /// `[s, t)` handed to `emit`. A block homed at `p` starts writable at
    /// `p` and `Excl{p}` in the directory, so it is lost for a write —
    /// not writable ∧ exclusive — only if it is dirty in `p`'s tags or in
    /// the directory, and for a read — not valid — only if it is dirty in
    /// `p`'s tags: the scan reads only the words where those dirty sets
    /// have a member.
    pub fn lost_homed(
        &self,
        p: NodeId,
        first: usize,
        end: usize,
        write: bool,
        emit: impl FnMut(usize, usize),
    ) {
        let shard = self.cluster.shard(p);
        let (valid, writable, excl) = (shard.valid(), shard.writable(), &self.excl[p]);
        let homed = |w: usize| self.cluster.homed_word(p, w);
        let lost = |w: usize| match write {
            true => homed(w) & !(writable.word(w) & excl.word(w)),
            false => homed(w) & !valid.word(w),
        };
        let dirs = write.then_some(&self.dirty_dirs);
        shard.dirty().runs_where(dirs, first, end, lost, emit);
    }

    /// Whether the protocol in force may leave out the blocks a writer
    /// holds ([`Protocol::skips_held`]).
    pub fn skips_held(&self) -> bool {
        self.proto().skips_held()
    }

    /// Handler-occupancy cost scaled for the cpu configuration.
    #[inline]
    pub(crate) fn hc(&self, ns: u64) -> u64 {
        self.cluster.cfg().handler_cost(ns)
    }

    // ------------------------------------------------------------------
    // Protocol-neutral building blocks (public: protocols — including
    // external ones — compose these)
    // ------------------------------------------------------------------

    /// Snapshot a block's current contents at `node` into a twin buffer
    /// (overwriting `node`'s existing twin of `b` in place).
    pub(crate) fn make_twin(&mut self, node: NodeId, b: usize) {
        let (s, e) = self.cluster.block_words(b);
        let words = &self.cluster.node_mem(node)[s..e];
        match self.twin_at.entry((b as u32, node as u32)) {
            hash_map::Entry::Occupied(at) => {
                let at = *at.get();
                self.twin_words[at..at + words.len()].copy_from_slice(words);
            }
            hash_map::Entry::Vacant(slot) => {
                slot.insert(self.twin_words.len());
                self.twin_words.extend_from_slice(words);
            }
        }
    }

    /// Whether `node` currently holds a twin of block `b`.
    pub(crate) fn has_twin(&self, node: NodeId, b: usize) -> bool {
        self.twin_at.contains_key(&(b as u32, node as u32))
    }

    /// Drop `node`'s twin of block `b` (end of a write interval).
    pub(crate) fn remove_twin(&mut self, node: NodeId, b: usize) {
        self.twin_at.remove(&(b as u32, node as u32));
        if self.twin_at.is_empty() {
            self.twin_words.clear();
        }
    }

    /// Word-diff a writer's block against its twin; returns the dirty mask.
    pub(crate) fn diff_mask(&self, node: NodeId, b: usize) -> u64 {
        let at = self.twin_at[&(b as u32, node as u32)];
        let (s, e) = self.cluster.block_words(b);
        let twin = &self.twin_words[at..at + (e - s)];
        crate::wire::diff_mask(&self.cluster.node_mem(node)[s..e], twin)
    }

    /// Cost and data movement for the home shipping its (current) copy of
    /// block `b` to `p`. Returns the stall to charge at `p`.
    pub(crate) fn data_home_to(&mut self, p: NodeId, h: NodeId, b: usize) -> u64 {
        let cfg = *self.cluster.cfg();
        let (s, e) = self.cluster.block_words(b);
        if p == h {
            // Local: the data is already in the home's copy.
            return cfg.tag_change_ns;
        }
        self.cluster.charge_handler(h, cfg.block_copy_ns);
        self.cluster.note_msg_at(h, p, cfg.block_bytes, b);
        self.wire_copy(h, p, s, e - s);
        self.hc(cfg.block_copy_ns)
            + cfg.one_way_ns(cfg.block_bytes)
            + self.hc(cfg.handler_dispatch_ns)
            + cfg.block_copy_ns
            + cfg.tag_change_ns
    }

    /// During compiler control a reader may legitimately hold ReadWrite on
    /// a block the directory believes exclusive elsewhere (Figure 2C/2D).
    /// Under run-time-overhead elimination those windows extend across
    /// supersteps: `implicit_writable(.., memoize=true)` leaves the range
    /// in `iw_memo` and the matching `implicit_invalidate` is skipped, so
    /// the memo is exactly the record of blocks whose tags are under
    /// compiler control. `check_consistency` excuses those pairs — once
    /// per (reader, block) after every run, so the memo is flattened once
    /// into [`CtlBlocks`], whose query is a binary search: the check's
    /// cost must not hang on how a set walk happens to be inlined.
    pub(crate) fn ctl_blocks(&self) -> CtlBlocks {
        let mut per_node = vec![Vec::new(); self.cluster.nprocs()];
        // Node-major, then ascending `first`: each entry's reach is the
        // furthest end of any of the node's ranges starting at or before.
        for &(node, first, end) in &self.iw_memo {
            let ranges: &mut Vec<(usize, usize)> = &mut per_node[node];
            let reach = ranges.last().map_or(end, |&(_, reach)| reach.max(end));
            ranges.push((first, reach));
        }
        CtlBlocks(per_node)
    }

    /// Drop every memoized `implicit_writable` range, forcing the next
    /// calls back onto the slow (re-tagging) path. The memo records which
    /// tags are under compiler control, so dropping an entry also drops
    /// the tags it covers (a free `implicit_invalidate`) — afterwards the
    /// state is exactly "as if run-time-overhead elimination had not
    /// kicked in yet". The contract must survive this at any superstep
    /// boundary, which is what the fuzz harness checks.
    pub fn clear_iw_memo(&mut self) {
        let memo = std::mem::take(&mut self.iw_memo);
        for (n, first, end) in memo {
            self.cluster.set_tag_range(n, first, end, Access::Invalid);
        }
    }

    // ------------------------------------------------------------------
    // Facade: default-protocol transactions (dispatch to the Protocol)
    // ------------------------------------------------------------------

    /// Run `f` against the active protocol, which is temporarily taken
    /// out of `self` so it can borrow the whole [`Dsm`] mutably.
    fn with_proto<R>(&mut self, f: impl FnOnce(&mut dyn Protocol, &mut Dsm) -> R) -> R {
        let mut proto = self.proto.take().expect("protocol re-entered");
        let r = f(proto.as_mut(), self);
        self.proto = Some(proto);
        r
    }

    /// Service a read fault: bring block `b` to at least `ReadOnly` at
    /// `p`. No-op (and no cost) if `p` already has a valid copy — "inner
    /// cache blocks are brought once and for ever into the local memory
    /// and pay no further overhead" (§2).
    pub fn read_access(&mut self, p: NodeId, b: usize) {
        if self.cluster.tag(p, b) != Access::Invalid {
            return;
        }
        self.with_proto(|proto, d| proto.read_access(d, p, b));
    }

    /// Service a write fault where `p` is the interval's single writer.
    pub fn write_access_excl(&mut self, p: NodeId, b: usize) {
        self.with_proto(|proto, d| proto.write_access_excl(d, p, b));
    }

    /// Service a write fault on a block that *multiple* nodes write in
    /// the same interval.
    pub fn write_access_multi(&mut self, p: NodeId, b: usize) {
        self.with_proto(|proto, d| proto.write_access_multi(d, p, b));
    }

    /// [`Dsm::write_access_excl`] over the block range `[first, end)`
    /// in one dispatch.
    pub fn write_access_range(&mut self, p: NodeId, first: usize, end: usize) {
        self.with_proto(|proto, d| proto.write_access_range(d, p, first, end));
    }

    /// [`Dsm::read_access`] over the block range `[first, end)` in one
    /// dispatch.
    pub fn read_access_range(&mut self, p: NodeId, first: usize, end: usize) {
        self.with_proto(|proto, d| proto.read_access_range(d, p, first, end));
    }

    /// Release point: let the protocol propagate interval writes, settle
    /// strict wire mode, then execute the global barrier. Settling means
    /// every frame delivered since the last barrier has reached its node
    /// and come back byte for byte, or the transport's error is kept as
    /// the run's ([`Dsm::wire_ok`]) — a dead, wedged or lying node is
    /// caught here at the latest.
    pub fn release_barrier(&mut self) {
        self.with_proto(|proto, d| proto.release(d));
        debug_assert!(
            self.twin_at.is_empty(),
            "a twin outlived its interval: {} left after release",
            self.twin_at.len()
        );
        if let Some(w) = self.wire.as_mut() {
            w.sync();
        }
        self.cluster.barrier();
    }

    /// Check internal consistency between directory state, tags and data;
    /// used by tests after barriers ("a final barrier assures that things
    /// are consistent again with the information at the directory").
    pub fn check_consistency(&self) -> Result<(), String> {
        self.proto().check(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_tempest::{ChargeKind, CostModel, HomePolicy, SegmentLayout};

    fn dsm(nprocs: usize, cfg: CostModel) -> Dsm {
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(4096);
        Dsm::new(Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin))
    }

    /// A worker's metrics blob came off a socket: one that does not
    /// decode is a typed wire error naming the node, like every other
    /// peer fault at teardown, not a stringly panic.
    #[test]
    fn a_bad_worker_metrics_blob_is_a_typed_wire_error() {
        struct GarbageBlob;
        impl WireTransport for GarbageBlob {
            fn name(&self) -> &'static str {
                "garbage-blob"
            }
            fn send(&mut self, _dst: usize, _batch: &FrameBatch) -> Result<(), WireError> {
                Ok(())
            }
            fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
                Ok(Vec::new())
            }
            fn finish(&mut self) -> Vec<crate::wire::RemoteReport> {
                vec![crate::wire::RemoteReport {
                    node: 1,
                    frames: 0,
                    payload_bytes: 0,
                    metrics: vec![0xAA; 5],
                }]
            }
        }
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.set_wire(Box::new(GarbageBlob));
        d.enable_wire_metrics();
        match d.wire_finish() {
            Err(WireError::BadReply { node: 1, what }) => {
                assert!(what.contains("bad metrics blob"), "{what}")
            }
            other => panic!("expected BadReply from node 1, got {other:?}"),
        }
    }

    /// A transport whose first `send` fails with `PeerGone(1)`, counting
    /// every call it gets.
    struct DeadPeer(std::rc::Rc<std::cell::Cell<u32>>);

    impl WireTransport for DeadPeer {
        fn name(&self) -> &'static str {
            "dead-peer"
        }
        fn send(&mut self, _dst: usize, _batch: &FrameBatch) -> Result<(), WireError> {
            self.0.set(self.0.get() + 1);
            Err(WireError::PeerGone(1))
        }
        fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
            self.0.set(self.0.get() + 1);
            Err(WireError::Timeout(1))
        }
        fn finish(&mut self) -> Vec<crate::wire::RemoteReport> {
            self.0.set(self.0.get() + 1);
            Vec::new()
        }
    }

    /// A failed send is the run's first error and its last call to the
    /// transport: the rest of the superstep's deliveries still apply
    /// nothing and send nothing, the barrier waits on nothing, and
    /// `wire_finish` returns that first error, not a later one.
    #[test]
    fn the_first_wire_error_is_kept_and_nothing_more_is_sent() {
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.set_wire(Box::new(DeadPeer(calls.clone())));
        let wpb = d.cluster.words_per_block();
        assert_eq!(d.wire_ok(), Ok(()));
        for i in 0..4 {
            d.cluster.node_mem_mut(0)[wpb * i] = 7.0;
            d.wire_copy(0, 1, wpb * i, wpb);
        }
        assert_eq!(
            calls.get(),
            1,
            "only the first delivery reached the transport"
        );
        assert_eq!(d.wire_ok(), Err(WireError::PeerGone(1)));
        assert_eq!(
            d.cluster.node_mem(1)[wpb * 3],
            0.0,
            "a later delivery applied"
        );
        d.release_barrier();
        assert_eq!(d.wire_finish().err(), Some(WireError::PeerGone(1)));
        assert_eq!(
            calls.get(),
            1,
            "the barrier or teardown waited on a dead link"
        );
    }

    #[test]
    fn protocol_identity_is_queryable() {
        let d = dsm(2, CostModel::paper_dual_cpu());
        assert_eq!(d.protocol_name(), "eager-invalidate");
        assert!(d.supports_ctl());
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(512);
        let u = Dsm::with_protocol(
            Cluster::new(2, cfg, &layout, HomePolicy::RoundRobin),
            ProtocolKind::WriteUpdate,
        );
        assert_eq!(u.protocol_name(), "write-update");
        assert!(!u.supports_ctl());
    }

    #[test]
    fn third_party_protocols_plug_in() {
        /// A deliberately naive protocol: every fault is a full home
        /// fetch, releases do nothing but the barrier. Exists to prove
        /// the trait boundary is sufficient for external policies.
        struct AlwaysFetch;
        impl Protocol for AlwaysFetch {
            fn name(&self) -> &'static str {
                "always-fetch"
            }
            fn supports_ctl(&self) -> bool {
                false
            }
            fn read_access(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
                let h = d.cluster.home_of_block(b);
                let (s, e) = d.cluster.block_words(b);
                d.cluster.map_range(p, s, e - s);
                let stall = d.data_home_to(p, h, b);
                d.cluster.set_tag(p, b, Access::ReadOnly);
                d.cluster.charge(p, stall, ChargeKind::Stall);
            }
            fn write_access_excl(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
                self.read_access(d, p, b);
                d.cluster.set_tag(p, b, Access::ReadWrite);
                d.set_dir(b, DirState::Excl { owner: p });
            }
            fn write_access_multi(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
                self.write_access_excl(d, p, b);
            }
            fn release(&mut self, _d: &mut Dsm) {}
            fn check(&self, _d: &Dsm) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(1024);
        let mut d = Dsm::with_protocol_impl(
            Cluster::new(2, cfg, &layout, HomePolicy::RoundRobin),
            Box::new(AlwaysFetch),
        );
        assert_eq!(d.protocol_name(), "always-fetch");
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[0] = 3.5;
        d.release_barrier();
        assert!(d.dir_state(0).is_excl_by(1));
        assert_eq!(d.cluster.node_mem(1)[0], 3.5);
    }

    #[test]
    fn clean_read_miss_costs_table1() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        // Block 0 homes on node 0; node 1 reads it. Pre-map the page so the
        // measured cost is the miss itself, not the one-time mapping.
        d.cluster.map_range(1, 0, 16);
        let before = d.cluster.clock_ns(1);
        d.read_access(1, 0);
        let delta = d.cluster.clock_ns(1) - before;
        let expect = d.cluster.cfg().read_miss_ns();
        assert_eq!(delta, expect, "clean read miss must match Table 1 model");
        assert_eq!(d.cluster.stats(1).read_misses, 1);
        assert_eq!(d.cluster.tag(1, 0), Access::ReadOnly);
        // The home (initial exclusive owner) downgrades and joins the set.
        assert_eq!(
            d.dir_state(0),
            DirState::Shared {
                readers: DirState::bit(1) | DirState::bit(0)
            }
        );
    }

    #[test]
    fn second_read_is_free() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        d.read_access(1, 0);
        let t = d.cluster.clock_ns(1);
        d.read_access(1, 0);
        assert_eq!(d.cluster.clock_ns(1), t);
        assert_eq!(d.cluster.stats(1).read_misses, 1);
    }

    #[test]
    fn four_hop_read_through_owner() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        // Node 1 takes block 0 (home 0) exclusively, writes, then node 2 reads.
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[0] = 7.5;
        let before = d.cluster.clock_ns(2);
        d.read_access(2, 0);
        assert!(d.cluster.clock_ns(2) - before > d.cluster.cfg().read_miss_ns());
        // Data travelled owner → home → reader.
        assert_eq!(d.cluster.node_mem(2)[0], 7.5);
        assert_eq!(d.cluster.node_mem(0)[0], 7.5);
        assert_eq!(d.cluster.tag(1, 0), Access::ReadOnly);
        match d.dir_state(0) {
            DirState::Shared { readers } => {
                assert_ne!(readers & DirState::bit(1), 0);
                assert_ne!(readers & DirState::bit(2), 0);
            }
            s => panic!("expected Shared, got {s:?}"),
        }
    }

    #[test]
    fn write_upgrade_invalidates_readers_eagerly() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        d.read_access(1, 0);
        d.read_access(2, 0);
        // Node 3 writes: both readers and home lose their copies.
        d.cluster.map_range(3, 0, 16); // exclude one-time mapping from stall
        let stall_before = d.cluster.stats(3).stall_ns;
        d.write_access_excl(3, 0);
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(2, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(0, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(3, 0), Access::ReadWrite);
        assert!(d.dir_state(0).is_excl_by(3));
        // Eager: the writer's stall is far below a full read miss.
        let stall = d.cluster.stats(3).stall_ns - stall_before;
        assert!(stall < d.cluster.cfg().read_miss_ns());
    }

    #[test]
    fn producer_consumer_roundtrip_moves_data() {
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[3] = 42.0;
        d.release_barrier();
        d.read_access(0, 0);
        assert_eq!(d.cluster.node_mem(0)[3], 42.0);
        d.check_consistency().unwrap();
    }

    #[test]
    fn multi_writer_merges_diffs_at_release() {
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        // Both nodes write disjoint words of block 0 (home node 0).
        d.write_access_multi(0, 0);
        d.write_access_multi(1, 0);
        d.cluster.node_mem_mut(0)[0] = 1.0;
        d.cluster.node_mem_mut(1)[1] = 2.0;
        d.release_barrier();
        // Home (node 0) holds the merge.
        assert_eq!(d.cluster.node_mem(0)[0], 1.0);
        assert_eq!(d.cluster.node_mem(0)[1], 2.0);
        assert!(d.dir_state(0).is_excl_by(0));
        assert_eq!(d.cluster.tag(0, 0), Access::ReadWrite);
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
        d.check_consistency().unwrap();
    }

    #[test]
    fn multi_writer_remote_home_merge() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        // Block 0 homes at node 0; writers are 2 and 3.
        d.write_access_multi(2, 0);
        d.write_access_multi(3, 0);
        d.cluster.node_mem_mut(2)[4] = 4.0;
        d.cluster.node_mem_mut(3)[5] = 5.0;
        d.release_barrier();
        assert_eq!(d.cluster.node_mem(0)[4], 4.0);
        assert_eq!(d.cluster.node_mem(0)[5], 5.0);
        d.check_consistency().unwrap();
        // A later reader sees both writes.
        d.read_access(1, 0);
        assert_eq!(d.cluster.node_mem(1)[4], 4.0);
        assert_eq!(d.cluster.node_mem(1)[5], 5.0);
    }

    #[test]
    fn exclusive_survives_release() {
        // RTOE's precondition: owners keep blocks writable across barriers.
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.write_access_excl(1, 0);
        d.release_barrier();
        assert!(d.dir_state(0).is_excl_by(1));
        assert_eq!(d.cluster.tag(1, 0), Access::ReadWrite);
        let misses = d.cluster.stats(1).write_misses;
        d.write_access_excl(1, 0); // no-op
        assert_eq!(d.cluster.stats(1).write_misses, misses);
    }

    #[test]
    fn single_cpu_misses_cost_more() {
        let mut dd = dsm(2, CostModel::paper_dual_cpu());
        let mut ds = dsm(2, CostModel::paper_single_cpu());
        dd.read_access(1, 0);
        ds.read_access(1, 0);
        assert!(ds.cluster.stats(1).stall_ns > dd.cluster.stats(1).stall_ns);
        // Single-cpu: home's handler occupancy also advanced home's clock.
        assert!(ds.cluster.clock_ns(0) > 0);
        assert_eq!(dd.cluster.clock_ns(0), 0);
    }

    #[test]
    fn faults_appear_in_the_trace() {
        use fgdsm_tempest::{Event, FaultKind};
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.read_access(1, 0);
        d.write_access_excl(1, 1);
        let read_faults = d
            .cluster
            .node_trace(1)
            .entries()
            .filter(|e| {
                matches!(
                    e.event,
                    Event::Fault {
                        block: 0,
                        kind: FaultKind::Read
                    }
                )
            })
            .count();
        assert_eq!(read_faults, 1, "read fault must be a typed trace event");
        assert!(
            d.cluster.node_trace(1).entries().any(|e| matches!(
                e.event,
                Event::Fault {
                    block: 1,
                    kind: FaultKind::Write
                }
            )),
            "write fault must be a typed trace event"
        );
    }

    fn dsm_update(nprocs: usize) -> Dsm {
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(4096);
        Dsm::with_protocol(
            Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin),
            ProtocolKind::WriteUpdate,
        )
    }

    #[test]
    fn update_protocol_keeps_reader_copies_fresh() {
        let mut d = dsm_update(4);
        // Reader 2 fetches block 0 once …
        d.read_access(2, 0);
        assert_eq!(d.cluster.stats(2).read_misses, 1);
        // … then writer 1 updates it across three intervals; the reader
        // never faults again but always sees current data.
        for step in 0..3 {
            d.write_access_excl(1, 0);
            d.cluster.node_mem_mut(1)[5] = step as f64 + 1.0;
            d.release_barrier();
            d.check_consistency().unwrap();
            d.read_access(2, 0); // no-op: copy still valid
            assert_eq!(d.cluster.node_mem(2)[5], step as f64 + 1.0);
        }
        assert_eq!(
            d.cluster.stats(2).read_misses,
            1,
            "no re-fetch under update"
        );
    }

    #[test]
    fn update_protocol_pays_per_sharer_traffic() {
        // The §3 trade-off: with three sharers, every release carries the
        // writer's dirty words to each of them, read or not.
        let mut d = dsm_update(4);
        for r in [0usize, 2, 3] {
            d.read_access(r, 0);
        }
        let msgs_before = d.cluster.stats(1).msgs_sent;
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[0] = 9.0;
        d.release_barrier();
        let update_msgs = d.cluster.stats(1).msgs_sent - msgs_before;
        assert!(
            update_msgs >= 3,
            "writer must update home and every sharer, sent {update_msgs}"
        );
        d.check_consistency().unwrap();
    }

    #[test]
    fn update_protocol_multi_writer_merges() {
        let mut d = dsm_update(2);
        d.write_access_excl(0, 0);
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(0)[0] = 1.0;
        d.cluster.node_mem_mut(1)[1] = 2.0;
        d.release_barrier();
        d.check_consistency().unwrap();
        for n in 0..2 {
            assert_eq!(d.cluster.node_mem(n)[0], 1.0, "node {n} word 0");
            assert_eq!(d.cluster.node_mem(n)[1], 2.0, "node {n} word 1");
        }
    }

    /// Three writers of one block, a mid-interval reader that refreshes
    /// their twins in place, then the release: the home merges every
    /// word, and the twin store is empty with its capacity kept.
    #[test]
    fn eager_twins_refresh_in_place_and_die_at_release() {
        let mut d = dsm(5, CostModel::paper_dual_cpu());
        let (s, e) = d.cluster.block_words(0);
        let words = e - s;
        for w in 1..=3 {
            d.write_access_multi(w, 0);
            d.cluster.node_mem_mut(w)[w] = w as f64;
        }
        // The home owned the block when it entered Multi, so it is twinned
        // as a writer too.
        assert_eq!(d.twin_words.len(), 4 * words, "one twin per writer");
        // Node 4 reads mid-interval: each writer flushes its diff home and
        // refreshes its twin against the new merge base.
        d.read_access(4, 0);
        assert_eq!(&d.cluster.node_mem(4)[1..4], [1.0, 2.0, 3.0]);
        assert_eq!(d.twin_words.len(), 4 * words, "refreshed in place");
        for w in 1..=3 {
            assert!(d.has_twin(w, 0));
            d.cluster.node_mem_mut(w)[3 + w] = 10.0 * w as f64;
        }
        d.release_barrier();
        assert_eq!(
            &d.cluster.node_mem(0)[1..7],
            [1.0, 2.0, 3.0, 10.0, 20.0, 30.0]
        );
        assert!(d.twin_at.is_empty() && d.twin_words.is_empty());
        assert!(d.twin_words.capacity() >= 4 * words, "capacity kept");
        d.check_consistency().unwrap();
    }

    /// Under write-update a standing writer re-twins in each new
    /// interval, and every release empties the twin store.
    #[test]
    fn update_standing_writer_twins_each_interval() {
        let mut d = dsm_update(3);
        d.read_access(2, 0);
        for step in 0..3 {
            d.write_access_excl(1, 0);
            assert!(d.has_twin(1, 0), "interval {step} twins the writer");
            d.cluster.node_mem_mut(1)[2] = step as f64 + 0.5;
            d.release_barrier();
            assert!(d.twin_at.is_empty() && d.twin_words.is_empty());
            for n in [0, 2] {
                assert_eq!(d.cluster.node_mem(n)[2], step as f64 + 0.5, "node {n}");
            }
        }
        d.check_consistency().unwrap();
    }

    #[test]
    fn write_fault_after_invalidation_refetches_data() {
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[2] = 9.0;
        d.release_barrier();
        // Node 0 (home) steals the block back for writing.
        d.write_access_excl(0, 0);
        assert_eq!(d.cluster.node_mem(0)[2], 9.0);
        assert!(d.dir_state(0).is_excl_by(0));
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
    }

    /// Strict wire mode keeps one batch buffer however many envelopes
    /// travel: after 200 strict `wire_copy`s and a bulk plan the buffer
    /// is empty again and about as large as the largest delivery it held
    /// — the plan's two frames of the bulk cap — not the sum of
    /// everything that went through it.
    #[test]
    fn strict_mode_retains_one_batch_buffer() {
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.set_wire(Box::new(crate::Loopback));
        let wpb = d.cluster.words_per_block();
        for i in 0..200 {
            d.cluster.node_mem_mut(0)[wpb * (i % 64)] = i as f64;
            d.wire_copy(0, 1, wpb * (i % 64), wpb);
        }
        assert_eq!(d.cluster.node_mem(1)[wpb * 7], 199.0);
        let largest = d.cluster.cfg().bulk_max_bytes / 8;
        d.send_range(0, &[1], 0, 2 * largest / wpb, true);
        let w = d.wire.as_ref().expect("strict mode on");
        assert_eq!(w.frames, 200 + 2, "every transfer was enveloped");
        assert!(w.staged.is_empty());
        // Two frames of `largest` words, each behind its header, block
        // list and length prefix, after the batch marker.
        let frame = 4 + 45 + 4 * (largest / wpb) + 8 * largest;
        let batch = 13 + 2 * frame;
        let kept = w.staged.capacity();
        assert!(
            (batch..=2 * batch + 64).contains(&kept),
            "{kept} bytes retained for deliveries of at most {batch}"
        );
    }
}
