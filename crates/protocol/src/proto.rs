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
use crate::node::WireTransport;
use crate::update::WriteUpdate;
use crate::wire::{reconcile_stats, WireHeader, WireMsg};
use fgdsm_tempest::metrics::{ClassKeys, MetricsRegistry, WireSpan};
use fgdsm_tempest::{Access, BlockSet, Cluster, NodeId, NO_ARRAY};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

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
    /// Blocks whose directory state differs from the initial
    /// home-owns-everything assignment (`Excl{owner: home}`). Together
    /// with the per-shard dirty tag sets this bounds every consistency
    /// scan by the traffic footprint instead of the segment size.
    dirty_dirs: BlockSet,
    /// Twins for multiple-writer blocks: (block, writer) → snapshot.
    twins: BTreeMap<(usize, NodeId), Box<[f64]>>,
    /// Per-receiver compiler-directed transfer inbox: latest arrival time
    /// and pending payload/block counts (reset by `ready_to_recv`).
    pub(crate) inbox_arrival: Vec<u64>,
    pub(crate) inbox_payloads: Vec<u64>,
    pub(crate) inbox_blocks: Vec<u64>,
    /// Memo for run-time overhead elimination: ranges already made
    /// implicitly writable at a node (§4.3's "first time around" test).
    pub(crate) iw_memo: std::collections::BTreeSet<(NodeId, usize, usize)>,
    /// Strict wire mode: when present, every inter-node data movement is
    /// encoded into a [`WireMsg`] envelope, carried by the transport, and
    /// applied from the decoded payload (`None` = zero-copy fast path).
    pub(crate) wire: Option<WireState>,
    /// Active contract mutations (fuzzer teeth; all off by default).
    injection: Injection,
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

/// Everything strict wire mode needs: the per-node inboxes staging
/// encoded frames, the transport that carries them, the encode side's
/// payload buffer, and frame/byte counters for reconciliation against
/// `NodeStats`.
pub(crate) struct WireState {
    /// Encoded frames posted to each destination node and not yet
    /// delivered, in posting order. The frames are opaque here; a
    /// delivered frame belongs to the transport, which keeps it until its
    /// arrival is verified.
    pub inboxes: Vec<Vec<Vec<u8>>>,
    pub transport: Box<dyn WireTransport>,
    /// The encode side's one payload buffer: [`Dsm::wire_words`] lends it
    /// to the envelope being built and [`WireState::post`] takes it back
    /// once the frame is encoded. (A decoded payload is dropped after its
    /// apply.)
    pub payload_buf: Vec<u64>,
    /// Envelopes routed so far.
    pub frames: u64,
    /// Total on-wire payload bytes ([`WireMsg::payload_bytes`]).
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
}

/// The coordinator's wall-clock telemetry state: per-class histograms
/// and counters, the kind of every frame sent but not yet reported
/// verified (per destination, in send order — how a batch's time finds
/// its classes), and the batch spans for the merged Chrome trace.
pub(crate) struct WireMetrics {
    pub reg: MetricsRegistry,
    pub unverified: Vec<VecDeque<u8>>,
    pub spans: Vec<WireSpan>,
}

impl WireState {
    fn new(nprocs: usize, transport: Box<dyn WireTransport>) -> Self {
        WireState {
            inboxes: vec![Vec::new(); nprocs],
            transport,
            payload_buf: Vec::new(),
            frames: 0,
            payload_bytes: 0,
            route_ns: 0,
            batches: 0,
            syncs: 0,
            dst_frames: vec![0; nprocs],
            dst_payload: vec![0; nprocs],
            metrics: None,
        }
    }

    /// Book one staged envelope: the global and per-destination counters
    /// (always), plus the per-class counters and encode histogram when
    /// telemetry is on. `undercount` is the armed `undercount_metrics`
    /// injection token — it skips the per-class payload counter exactly
    /// once, which the fuzz oracle's conservation invariant must catch.
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
            m.reg.counter_add(ClassKeys::FRAMES.of(kind), 1);
            if !undercount {
                m.reg
                    .counter_add(ClassKeys::PAYLOAD_BYTES.of(kind), payload);
            }
            m.reg.record_ns(ClassKeys::ENCODE.of(kind), encode_ns);
        }
    }

    /// Stage one envelope: fill its payload from the source shard's
    /// memory, encode it into a frame of its own (the transport keeps it
    /// until its echo is verified), book it, post the frame to the
    /// destination's inbox and keep the payload buffer for the next
    /// envelope. From here on the transfer no longer needs the source
    /// shard alive.
    fn post(&mut self, mut msg: WireMsg, src_mem: &[f64], wpb: usize, undercount: bool) {
        if let Err(e) = msg.gather(src_mem, wpb) {
            panic!("wire: cannot fill a kind-{} envelope: {e}", msg.kind());
        }
        let dst = msg.hdr().dst as usize;
        let t_enc = self.stopwatch();
        let buf = msg.to_bytes();
        let encode_ns = t_enc.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.note_encoded(msg.kind(), dst, msg.payload_bytes(), encode_ns, undercount);
        self.payload_buf = msg.into_words();
        self.inboxes[dst].push(buf);
    }

    /// Deliver everything posted to `dst`: drain its inbox, decode the
    /// frames back into envelopes in posting order — the apply stage works
    /// from this decode of the very bytes that travel, on every transport
    /// — and hand the frames to the transport, which verifies their
    /// arrival by the next [`WireState::sync`]. `corrupt` is the armed
    /// `corrupt_envelope` injection token (damages the first frame). A
    /// frame the decoder rejects, or a transport failure (peer gone,
    /// timeout, rejection, bad echo), unwinds with the typed
    /// [`crate::wire::WireError`] itself as the panic payload, so
    /// executors can `catch_unwind` + downcast it back into a typed
    /// result instead of scraping a message string.
    fn deliver(&mut self, dst: usize, corrupt: bool) -> Vec<WireMsg> {
        let mut frames = std::mem::take(&mut self.inboxes[dst]);
        if corrupt {
            if let Some(f) = frames.first_mut() {
                corrupt_frame(f);
            }
        }
        let mut msgs = Vec::with_capacity(frames.len());
        for frame in &frames {
            let t_dec = self.stopwatch();
            match WireMsg::from_bytes(frame) {
                Ok(m) => {
                    self.lap(&ClassKeys::DECODE, m.kind(), t_dec);
                    msgs.push(m);
                }
                Err(e) => std::panic::panic_any(e),
            }
        }
        if let Some(m) = self.metrics.as_mut() {
            m.unverified[dst].extend(msgs.iter().map(WireMsg::kind));
        }
        if let Err(e) = self.transport.send(dst, frames) {
            std::panic::panic_any(e);
        }
        msgs
    }

    /// Start an encode/decode stopwatch — `None` (no clock read at all)
    /// when telemetry is off.
    fn stopwatch(&self) -> Option<std::time::Instant> {
        self.metrics.as_ref().map(|_| std::time::Instant::now())
    }

    /// Record a `<stage>.<class of kind>` histogram sample against a
    /// started stopwatch (nothing when it is `None`).
    fn lap(&mut self, stage: &ClassKeys, kind: u8, t0: Option<std::time::Instant>) {
        if let (Some(m), Some(t0)) = (self.metrics.as_mut(), t0) {
            m.reg
                .record_ns(stage.of(kind), t0.elapsed().as_nanos() as u64);
        }
    }

    /// Wait until the transport has verified everything delivered so far
    /// (a typed unwind, like [`WireState::deliver`]'s, if it cannot), and
    /// book the batches it reports: their blocked time into `route_ns`,
    /// and with telemetry on into `route.<class>` exactly once — an equal
    /// share per frame of the batch, the remainder to the first — so the
    /// `route.*` sums add up to `route_ns` with one sample per frame.
    fn sync(&mut self) {
        self.syncs += 1;
        let spans = match self.transport.sync() {
            Ok(spans) => spans,
            Err(e) => std::panic::panic_any(e),
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
                m.reg.record_ns(ClassKeys::ROUTE.of(kind), share);
                share = s.dur_ns / n;
            }
        }
        m.spans.extend(spans);
    }
}

/// Deliberately damage an encoded frame for the `corrupt_envelope`
/// must-catch injection: flipping a version bit leaves the payload
/// intact, so only a decoder that actually validates will notice.
fn corrupt_frame(buf: &mut [u8]) {
    if buf.len() > 2 {
        buf[2] ^= 0x40;
    }
}

/// Deliberate contract violations for the differential fuzzer's
/// *must-catch* suite: each knob silently corrupts one §4.2 primitive so
/// the harness can assert the cross-backend oracle actually detects the
/// resulting incoherence. All off unless [`Dsm::set_injection`] arms one.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Off-by-one section bound: `send_range` delivers one block fewer
    /// than the contract promised, leaving the readers' last block tagged
    /// ReadWrite over stale data — the §3 a(513,1)/a(1,2) failure mode.
    pub skew_send_range: bool,
    /// Skip `flush_range` entirely: a non-owner writer's modifications
    /// never reach the owner, so later owner-side sends push stale data.
    pub skip_flush_range: bool,
    /// Redirect every `send_range` push to read from the range's *home*
    /// node instead of the recorded exclusive owner whenever the home is
    /// a third party: the §4.3 RTOE hazard — a stale owner memo pushing
    /// a copy that was never flushed home.
    pub stale_owner_push: bool,
    /// Flip a byte inside the first envelope routed in strict wire mode:
    /// `WireMsg::from_bytes` must reject the frame and fail the run
    /// loudly, proving decode validation has teeth (a vacuous decoder
    /// would apply the payload anyway and diverge from nothing).
    pub corrupt_envelope: bool,
    /// Skip the telemetry registry's per-class `payload_bytes` counter
    /// for the first staged envelope (the double-entry counters and the
    /// run itself stay correct): the fuzz oracle's metrics-conservation
    /// invariant — Σ per-class payload counters == `wire_payload_bytes`
    /// — must catch the shortfall, proving the invariant has teeth.
    pub undercount_metrics: bool,
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
        Dsm {
            cluster,
            dir,
            dirty_dirs: BlockSet::new(n_blocks),
            twins: BTreeMap::new(),
            inbox_arrival: vec![0; nprocs],
            inbox_payloads: vec![0; nprocs],
            inbox_blocks: vec![0; nprocs],
            iw_memo: std::collections::BTreeSet::new(),
            wire: None,
            injection: Injection::default(),
            proto: Some(proto),
        }
    }

    /// Switch on strict wire mode: from here on, every inter-node data
    /// movement round-trips through an encoded [`WireMsg`] carried by
    /// `transport`. Observable behavior (clocks, stats, traces, data)
    /// is byte-identical to the fast path — only the data path changes.
    pub fn set_wire(&mut self, transport: Box<dyn WireTransport>) {
        let nprocs = self.cluster.nprocs();
        self.wire = Some(WireState::new(nprocs, transport));
    }

    /// Whether strict wire mode is active.
    pub fn wire_strict(&self) -> bool {
        self.wire.is_some()
    }

    /// Switch on wall-clock telemetry for the active wire transport:
    /// per-class encode/route/decode/apply histograms and socket-batch
    /// spans. No-op on the fast path (no wire, nothing to time); costs
    /// nothing when never called.
    pub fn enable_wire_metrics(&mut self) {
        if let Some(w) = self.wire.as_mut() {
            w.metrics = Some(WireMetrics {
                reg: MetricsRegistry::new(),
                unverified: vec![VecDeque::new(); w.dst_frames.len()],
                spans: Vec::new(),
            });
        }
    }

    /// Whether wall-clock telemetry is recording.
    pub fn wire_metrics_on(&self) -> bool {
        self.wire.as_ref().is_some_and(|w| w.metrics.is_some())
    }

    /// End-of-run telemetry harvest: settle the last frames in flight,
    /// tear down the transport's remote
    /// peers, reconcile each node's `ByeStats` book against the
    /// coordinator's per-destination counters (panicking with a typed
    /// [`crate::wire::WireError::StatsMismatch`] naming the diverging
    /// counter), then merge every process's registry under node-tagged
    /// keys (`coord.*`, `node<i>.*`). Returns the merged registry (None
    /// when telemetry was off) and the recorded socket-batch spans.
    pub fn wire_finish(&mut self) -> (Option<MetricsRegistry>, Vec<WireSpan>) {
        let Some(w) = self.wire.as_mut() else {
            return (None, Vec::new());
        };
        w.sync();
        let reports = w.transport.finish();
        for r in &reports {
            let node = r.node as usize;
            let local_frames = w.dst_frames.get(node).copied().unwrap_or(0);
            let local_payload = w.dst_payload.get(node).copied().unwrap_or(0);
            if let Err(e) = reconcile_stats(r.node, local_frames, local_payload, r) {
                std::panic::panic_any(e);
            }
        }
        let Some(m) = w.metrics.take() else {
            return (None, Vec::new());
        };
        let mut merged = MetricsRegistry::new();
        merged.merge_tagged("coord", &m.reg);
        for r in &reports {
            if r.metrics.is_empty() {
                continue;
            }
            match MetricsRegistry::from_bytes(&r.metrics) {
                Ok(reg) => merged.merge_tagged(&format!("node{}", r.node), &reg),
                Err(e) => panic!("wire: node {} shipped a bad metrics blob: {e}", r.node),
            }
        }
        (Some(merged), m.spans)
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

    /// Arm (or disarm) the must-catch contract mutations.
    pub fn set_injection(&mut self, injection: Injection) {
        self.injection = injection;
    }

    /// The armed contract mutations.
    pub fn injection(&self) -> Injection {
        self.injection
    }

    // ------------------------------------------------------------------
    // Strict wire mode: envelope encode / route / decode / apply
    // ------------------------------------------------------------------

    /// Header for an envelope `src → dst` covering blocks
    /// `[first, first + n)`, attributed to the source's current
    /// (superstep, loop) trace context.
    pub(crate) fn wire_hdr(
        &self,
        src: NodeId,
        dst: NodeId,
        array: u32,
        first: usize,
        n: usize,
    ) -> WireHeader {
        let ctx = self.cluster.node_trace(src).context();
        WireHeader::for_blocks(src, dst, ctx, array, first, n)
    }

    /// The payload buffer, `len` words long, for an envelope about to be
    /// posted ([`Dsm::wire_post`] fills it from the source shard and
    /// takes it back).
    pub(crate) fn wire_words(&mut self, len: usize) -> Vec<u64> {
        let w = self.wire.as_mut().expect("wire_words: strict mode off");
        let mut words = std::mem::take(&mut w.payload_buf);
        words.resize(len, 0);
        words
    }

    /// Post `msg` toward its destination: payload copied out of the
    /// source shard, encoded, staged in its inbox ([`WireState::post`]).
    pub(crate) fn wire_post(&mut self, msg: WireMsg) {
        // One-shot: the first posted envelope, when telemetry is recording.
        let undercount =
            self.wire_metrics_on() && std::mem::take(&mut self.injection.undercount_metrics);
        let wpb = self.cluster.words_per_block();
        let src_mem = self.cluster.node_mem(msg.hdr().src as usize);
        let w = self.wire.as_mut().expect("wire_post: strict mode off");
        w.post(msg, src_mem, wpb, undercount);
    }

    /// Decode and send off everything posted to `dst`
    /// ([`WireState::deliver`]), in posting order.
    fn wire_deliver(&mut self, dst: NodeId) -> Vec<WireMsg> {
        // One-shot: the first delivered batch of the run.
        let corrupt = std::mem::take(&mut self.injection.corrupt_envelope);
        let w = self.wire.as_mut().expect("wire_deliver: strict mode off");
        w.deliver(dst, corrupt)
    }

    /// Strict wire mode's delivery stage for a plan batch: one delivered
    /// batch per destination (in first-appearance order), decoded back
    /// into one envelope list per plan. `plans` yields each plan's
    /// `(dst, frames posted)` in plan order; per-destination FIFO order
    /// matches posting order, so the split is positional. Returns `None`
    /// on the fast path.
    pub(crate) fn wire_deliver_plans(
        &mut self,
        plans: impl Iterator<Item = (NodeId, usize)> + Clone,
    ) -> Option<Vec<Vec<WireMsg>>> {
        self.wire.as_ref()?;
        let mut routed: BTreeMap<NodeId, VecDeque<WireMsg>> = BTreeMap::new();
        for (dst, _) in plans.clone() {
            if let Entry::Vacant(slot) = routed.entry(dst) {
                slot.insert(self.wire_deliver(dst).into());
            }
        }
        let decoded = plans
            .map(|(dst, n)| {
                let q = routed.get_mut(&dst).expect("routed batch per dst");
                assert!(q.len() >= n, "wire: fewer frames posted than planned");
                q.drain(..n).collect()
            })
            .collect();
        debug_assert!(routed.values().all(|q| q.is_empty()));
        debug_assert!(
            self.wire
                .as_ref()
                .is_some_and(|w| w.inboxes.iter().all(Vec::is_empty)),
            "an undelivered frame is a lost transfer"
        );
        Some(decoded)
    }

    /// The single-message path: post `msg`, deliver it, and store the
    /// decoded payload at the destination. A frame the decoder or the
    /// destination's geometry rejects unwinds with the typed error.
    pub(crate) fn wire_route_one(&mut self, msg: WireMsg) {
        let dst = msg.hdr().dst as usize;
        self.wire_post(msg);
        let msg = self
            .wire_deliver(dst)
            .pop()
            .expect("the inbox holds the frame just posted");
        let wpb = self.cluster.words_per_block();
        let w = self.wire.as_mut().expect("wire state present when strict");
        let t_apply = w.stopwatch();
        if let Err(e) = msg.scatter(self.cluster.node_mem_mut(dst), wpb) {
            std::panic::panic_any(e);
        }
        w.lap(&ClassKeys::APPLY, msg.kind(), t_apply);
    }

    /// Move `len` words `src → dst` starting at word `start`. Fast path:
    /// a direct shard-to-shard copy. Strict wire mode: the words travel
    /// as an encoded [`WireMsg::Copy`] through the transport and land
    /// from the decoded payload — behaviorally identical, bit for bit.
    /// Charges and message accounting stay at the call sites.
    pub fn wire_copy(&mut self, src: NodeId, dst: NodeId, start: usize, len: usize) {
        if src == dst || len == 0 {
            return;
        }
        if self.wire.is_none() {
            self.cluster.copy_words(src, dst, start, len);
            return;
        }
        let b0 = self.cluster.block_of(start);
        let b1 = self.cluster.block_of(start + len - 1);
        let msg = WireMsg::Copy {
            hdr: self.wire_hdr(src, dst, NO_ARRAY, b0, b1 - b0 + 1),
            start_word: start as u64,
            words: self.wire_words(len),
        };
        self.wire_route_one(msg);
    }

    /// The single home of (array, block) diff attribution: account the
    /// word-diff message `src → dst` for block `b` (the mask word plus
    /// one word per dirty bit, [`crate::wire::diff_bytes`]) and move the
    /// masked words — enveloped as [`WireMsg::Diff`] in strict wire
    /// mode. Returns the on-wire bytes for the caller's latency charge.
    pub fn wire_diff(&mut self, src: NodeId, dst: NodeId, b: usize, mask: u64) -> usize {
        let bytes = crate::wire::diff_bytes(mask);
        self.cluster.note_msg_at(src, dst, bytes, b);
        if self.wire.is_none() {
            self.cluster.merge_block_words(src, dst, b, mask);
            return bytes;
        }
        let msg = WireMsg::Diff {
            hdr: self.wire_hdr(src, dst, NO_ARRAY, b, 1),
            block: b as u64,
            mask,
            words: self.wire_words(mask.count_ones() as usize),
        };
        self.wire_route_one(msg);
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
    /// compiler-control state changes). Maintains the dirty-directory
    /// set: a block is dirty while its state differs from the initial
    /// `Excl{owner: home}`.
    pub fn set_dir(&mut self, b: usize, s: DirState) {
        self.dir[b] = s;
        self.dirty_dirs
            .set(b, !s.is_excl_by(self.cluster.home_of_block(b)));
    }

    /// Blocks whose directory state deviates from the initial
    /// home-exclusive assignment (ascending order).
    pub fn dirty_dir_blocks(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty_dirs.iter()
    }

    /// Every block that any protocol state — the directory or any node's
    /// access tag — has moved off the initial assignment. Untouched
    /// blocks provably satisfy the protocol invariants (home holds the
    /// only, writable, zero-initialized copy), so consistency checks and
    /// gathers iterate this set (ascending) instead of the whole segment.
    pub fn touched_blocks(&self) -> BlockSet {
        let mut out = self.cluster.dirty_blocks();
        out.union_with(&self.dirty_dirs);
        out
    }

    /// The first block of `[first, end)` that `p` does not hold writable
    /// and directory-exclusive — the first a single-writer access to the
    /// range faults on — scanning `p`'s tag slice against the directory
    /// slice.
    pub fn first_not_exclusive(&self, p: NodeId, first: usize, end: usize) -> Option<usize> {
        let tags = &self.cluster.shard(p).tags()[first..end];
        tags.iter()
            .zip(&self.dir[first..end])
            .position(|(&t, s)| t != Access::ReadWrite || !s.is_excl_by(p))
            .map(|i| first + i)
    }

    /// The first block of `[first, end)` that `p` holds no valid copy of
    /// — the first a read of the range faults on.
    pub fn first_invalid(&self, p: NodeId, first: usize, end: usize) -> Option<usize> {
        let tags = &self.cluster.shard(p).tags()[first..end];
        tags.iter()
            .position(|&t| t == Access::Invalid)
            .map(|i| first + i)
    }

    /// Handler-occupancy cost scaled for the cpu configuration.
    #[inline]
    pub fn hc(&self, ns: u64) -> u64 {
        self.cluster.cfg().handler_cost(ns)
    }

    // ------------------------------------------------------------------
    // Protocol-neutral building blocks (public: protocols — including
    // external ones — compose these)
    // ------------------------------------------------------------------

    /// Snapshot a block's current contents at `node` into a twin buffer.
    pub fn make_twin(&mut self, node: NodeId, b: usize) {
        let (s, e) = self.cluster.block_words(b);
        let data: Box<[f64]> = self.cluster.node_mem(node)[s..e].into();
        self.twins.insert((b, node), data);
    }

    /// Whether `node` currently holds a twin of block `b`.
    pub fn has_twin(&self, node: NodeId, b: usize) -> bool {
        self.twins.contains_key(&(b, node))
    }

    /// Drop `node`'s twin of block `b` (end of a write interval).
    pub fn remove_twin(&mut self, node: NodeId, b: usize) {
        self.twins.remove(&(b, node));
    }

    /// Word-diff a writer's block against its twin; returns the dirty mask.
    pub fn diff_mask(&self, node: NodeId, b: usize) -> u64 {
        let twin = &self.twins[&(b, node)];
        let (s, e) = self.cluster.block_words(b);
        crate::wire::diff_mask(&self.cluster.node_mem(node)[s..e], twin)
    }

    /// Cost and data movement for the home shipping its (current) copy of
    /// block `b` to `p`. Returns the stall to charge at `p`.
    pub fn data_home_to(&mut self, p: NodeId, h: NodeId, b: usize) -> u64 {
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
            for b in first..end {
                self.cluster.set_tag(n, b, Access::Invalid);
            }
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
    /// and come back byte for byte, or the run unwinds with the
    /// transport's typed error — a dead, wedged or lying node is caught
    /// here at the latest.
    pub fn release_barrier(&mut self) {
        self.with_proto(|proto, d| proto.release(d));
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

    /// Strict wire mode retains one payload buffer however many
    /// envelopes travel: after 200 strict `wire_copy`s and a bulk plan
    /// batch nothing is shelved per frame — the encode buffer is as large
    /// as the largest payload it carried, and the decoded payloads died
    /// with their apply.
    #[test]
    fn strict_mode_retains_one_payload_buffer() {
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
        assert!(w.inboxes.iter().all(Vec::is_empty));
        let kept = w.payload_buf.capacity();
        assert!(
            (largest..=2 * largest).contains(&kept),
            "{kept} words retained for payloads of at most {largest}"
        );
    }
}
