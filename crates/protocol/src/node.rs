//! The node runtime, written once: a worker loop ([`serve`]), the
//! coordinator's side of the conversation ([`Coordinator`]) and the fault
//! model ([`NodeFault`]), all over a narrow [`Link`] of messages.
//!
//! A carrier is only a link plus a way to start workers: [`ChanTransport`]
//! is N threads running [`serve`] over in-memory `MemLink`s;
//! `fgdsm_net::SocketTransport` is N `fgdsm-node` processes running the
//! same [`serve`] over socket links. Handshake, batches, rejection,
//! double-entry books, worker telemetry, faults and teardown therefore
//! behave identically on both (conversation shape: `CtrlMsg`).
//!
//! Delivery is **split-phase**. [`Coordinator::post`] copies frames into
//! a node's queue, one [`FrameBatch`] buffer; `Coordinator::flush`
//! writes that buffer as it stands — the `Batch{n}` marker and the
//! frames, one `write` per flush on a socket — and keeps it untouched;
//! `Coordinator::collect` reads that batch's echo and compares it byte
//! for byte with the kept buffer, then clears it for reuse;
//! [`Coordinator::sync`] flushes and collects every node. The sender
//! applies from the very bytes it encoded and goes on — the echo is the
//! worker's proof of what its memory now holds, checked no later than
//! the next barrier. One rule keeps this deadlock-free for any batch
//! size: **at most one batch is in flight per node** (`flush` collects
//! the previous echo before it writes), so on every link only one side
//! writes at a time, exactly as in a blocking round trip.
//!
//! What the layers above assume of a link — and what the echo check
//! turns from an assumption into a verified fact — is **reliable,
//! in-order, exactly-once delivery**: the bounded model checker
//! (`crates/model`) explores the protocol under that assumption only. A
//! link that flips a bit, drops, duplicates or reorders a frame is a
//! typed error out of `collect`/`sync` ([`WireError::BadReply`], or
//! [`WireError::Timeout`] for a message that never becomes whole), and
//! the coordinator hangs up on that node (`tests` below).

use crate::fault::{Fault, Faults};
use crate::wire::{
    write_frame, CtrlMsg, FrameBatch, MessageBuf, Records, RemoteReport, WireError, WireView,
    DEFAULT_RECV_TIMEOUT, MARKER_LEN, WIRE_VERSION,
};
use fgdsm_tempest::metrics::{Stage, Telemetry, WireSpan};
use fgdsm_tempest::{Cluster, CostModel};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Carries encoded frames to their destination node. Implementations
/// must deliver each node's frames in order, exactly once; they never
/// interpret payloads (the sender applies from its own bytes).
/// Every failure is a typed `Err`: the peer died
/// ([`WireError::PeerGone`]), went silent past the deadline
/// ([`WireError::Timeout`]), refused a frame ([`WireError::Rejected`])
/// or broke the conversation ([`WireError::BadReply`]).
pub trait WireTransport {
    fn name(&self) -> &'static str;
    /// Hand the frames of `batch` to `dst` without waiting for them to
    /// arrive: the transport keeps its own copy until it has verified
    /// their delivery, so the caller may clear and refill `batch` at
    /// once. An error may belong to frames sent earlier to the same node.
    fn send(&mut self, dst: usize, batch: &FrameBatch) -> Result<(), WireError>;
    /// Wait until every frame sent so far has been delivered and
    /// verified. Returns one [`WireSpan`] per link-level batch verified
    /// since the previous `sync` (none for a transport without links).
    fn sync(&mut self) -> Result<Vec<WireSpan>, WireError>;
    /// The blocking round trip of the frozen surface (`crate::compat`),
    /// which no run takes: send `frames` to `dst` as one batch, `sync`,
    /// and hand them back as delivered. An empty list touches nothing.
    fn route(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, WireError> {
        if frames.is_empty() {
            return Ok(frames);
        }
        let mut batch = FrameBatch::new();
        frames.iter().for_each(|f| batch.push(f));
        self.send(dst, &batch)?;
        self.sync()?;
        Ok(frames)
    }
    /// Orderly end-of-run: tear down remote peers and collect their
    /// final accounting ([`RemoteReport`]). `sync` first — teardown does
    /// not wait for echoes. A transport with no peers has no remote
    /// book, so the default returns nothing.
    fn finish(&mut self) -> Vec<RemoteReport> {
        Vec::new()
    }
}

/// In-process delivery: frames arrive exactly as posted. This is the
/// strict-mode transport of every backend without a carrier (`sm_*` and
/// `mp`) — the bytes are still encoded, parsed and applied from, only the
/// carry is a no-op.
pub struct Loopback;

impl WireTransport for Loopback {
    fn name(&self) -> &'static str {
        "loopback"
    }
    fn send(&mut self, _dst: usize, _batch: &FrameBatch) -> Result<(), WireError> {
        Ok(())
    }
    fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
        Ok(Vec::new())
    }
}

// ----------------------------------------------------------------------
// Links
// ----------------------------------------------------------------------

/// One end of an ordered link carrying whole messages ([`MessageBuf`]).
/// `peer` names the far end in the errors: a closed link is
/// [`WireError::PeerGone`], a recv past the link's deadline
/// [`WireError::Timeout`]. Dropping the link hangs up.
pub trait Link {
    /// Write `image` — one message, such as a [`FrameBatch`] — with one
    /// flush.
    fn send(&mut self, image: &[u8], peer: u32) -> Result<(), WireError>;
    /// The next message, whole, lent mutably until the next call.
    fn recv(&mut self, peer: u32) -> Result<&mut [u8], WireError>;
    /// Write the message received last back, as it now stands.
    fn echo(&mut self, peer: u32) -> Result<(), WireError>;
}

/// The in-memory link: an `mpsc` pair moving message images, checked by
/// the [`MessageBuf`] a socket link reads with. A received image is read
/// and echoed in place; a write is a copy into the last one's buffer.
pub(crate) struct MemLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    inbox: MessageBuf,
    deadline: Option<Duration>,
}

/// A connected pair of [`MemLink`]s: the coordinator's end, whose recvs
/// give up after `timeout`, and the node's end, which waits until the
/// coordinator hangs up.
pub(crate) fn mem_pair(timeout: Duration) -> (MemLink, MemLink) {
    let ((tx_a, rx_b), (tx_b, rx_a)) = (channel(), channel());
    let end = |tx, rx, deadline| MemLink {
        tx,
        rx,
        inbox: MessageBuf::default(),
        deadline,
    };
    (end(tx_a, rx_a, Some(timeout)), end(tx_b, rx_b, None))
}

impl Link for MemLink {
    fn send(&mut self, image: &[u8], peer: u32) -> Result<(), WireError> {
        let mut bytes = self.inbox.take_message();
        bytes.clear();
        bytes.extend_from_slice(image);
        self.tx.send(bytes).map_err(|_| WireError::PeerGone(peer))
    }

    fn recv(&mut self, peer: u32) -> Result<&mut [u8], WireError> {
        let image = match self.deadline {
            Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                RecvTimeoutError::Timeout => WireError::Timeout(peer),
                RecvTimeoutError::Disconnected => WireError::PeerGone(peer),
            })?,
            None => self.rx.recv().map_err(|_| WireError::PeerGone(peer))?,
        };
        self.inbox.adopt(image, peer)
    }

    fn echo(&mut self, peer: u32) -> Result<(), WireError> {
        self.tx
            .send(self.inbox.take_message())
            .map_err(|_| WireError::PeerGone(peer))
    }
}

/// Send one control frame on its own.
fn send_ctrl(link: &mut impl Link, msg: &CtrlMsg, peer: u32) -> Result<(), WireError> {
    let mut image = Vec::new();
    write_frame(&mut image, &msg.to_bytes());
    link.send(&image, peer)
}

fn recv_ctrl(link: &mut impl Link, peer: u32) -> Result<CtrlMsg, WireError> {
    let frame = Records(link.recv(peer)?).next().unwrap_or_default();
    CtrlMsg::from_bytes(frame).map_err(|e| WireError::BadReply {
        node: peer,
        what: format!("bad control frame: {e}"),
    })
}

// ----------------------------------------------------------------------
// Node side: the worker loop
// ----------------------------------------------------------------------

/// Shard geometry shipped to every node in `HelloAck`, sizing its mirror.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    pub nprocs: usize,
    /// Words per coherence block.
    pub wpb: u32,
    /// Segment size in words (every node's window spans the segment).
    pub seg_words: u64,
}

impl Geometry {
    /// The geometry `cluster`'s shards really have.
    pub fn of(cluster: &Cluster) -> Self {
        Geometry {
            nprocs: cluster.nprocs(),
            wpb: cluster.words_per_block() as u32,
            seg_words: cluster.seg_words() as u64,
        }
    }
}

/// A deliberate node misbehaviour, armed on one worker — the
/// fault-tolerance tests' way of killing or wedging a node mid-superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// After serving this many batches, return from [`serve`] (dropping
    /// the link): the coordinator's next read finds the peer gone.
    ExitAfterBatches(u32),
    /// After serving this many batches, stop replying and discard input
    /// until the coordinator hangs up: its recv deadline must fire.
    WedgeAfterBatches(u32),
}

/// The worker loop. Introduce ourselves, learn the geometry, then serve
/// batches until `Bye` (or until the coordinator disappears, which ends
/// the loop quietly). Each frame of a batch is parsed where it arrived,
/// scattered from its bytes into the node's mirror of the segment, and
/// its payload re-gathered *from the mirror* into those same bytes; then
/// the batch is echoed as it now stands — what the coordinator gets back
/// is what this node's memory now holds, not the bytes it sent. The
/// mirror is exactly the `HelloAck` segment and never grows: a message
/// the link refuses, a frame the decoder rejects or one naming memory
/// outside the segment is answered with `CtrlMsg::Err` and ends the loop
/// with that error. With `metrics` the node keeps per-class `recv`
/// (frame in hand → parsed), `apply` and `reencode` (the re-gather in
/// place) histograms and ships them home in `ByeStats`.
pub fn serve(
    mut link: impl Link,
    node: u32,
    metrics: bool,
    fault: Option<NodeFault>,
) -> Result<(), WireError> {
    let hello = CtrlMsg::Hello {
        node,
        version: WIRE_VERSION,
    };
    send_ctrl(&mut link, &hello, node)?;
    let (wpb, seg_words) = match recv_ctrl(&mut link, node)? {
        CtrlMsg::HelloAck { wpb, seg_words, .. } => (wpb as usize, seg_words as usize),
        other => return reject(&mut link, node, unexpected(node, "HelloAck", &other)),
    };
    let mut mirror = vec![0.0; seg_words];
    let (mut frames, mut payload_bytes, mut batches) = (0u64, 0u64, 0u32);
    let mut table = metrics.then(Box::<Telemetry>::default);
    loop {
        let msg = match link.recv(node) {
            Ok(msg) => msg,
            // The coordinator is gone (or idle past the link's deadline):
            // we are the orphan backstop, not the reporter.
            Err(WireError::PeerGone(_) | WireError::Timeout(_)) => return Ok(()),
            Err(e) => return reject(&mut link, node, e),
        };
        let mut records = Records(msg);
        match CtrlMsg::from_bytes(records.next().unwrap_or_default()) {
            Ok(CtrlMsg::Batch { .. }) => {}
            Ok(CtrlMsg::Bye) => {
                let stats = CtrlMsg::ByeStats {
                    frames,
                    payload_bytes,
                    metrics: table.map(|t| t.to_bytes()).unwrap_or_default(),
                };
                let _ = send_ctrl(&mut link, &stats, node);
                return Ok(());
            }
            Ok(other) => return reject(&mut link, node, unexpected(node, "Batch or Bye", &other)),
            Err(e) => return reject(&mut link, node, e),
        };
        batches += 1;
        match fault {
            Some(NodeFault::ExitAfterBatches(k)) if batches > k => return Ok(()),
            Some(NodeFault::WedgeAfterBatches(k)) if batches > k => {
                while link.recv(node).is_ok() {}
                return Ok(());
            }
            _ => {}
        }
        for frame in records {
            match apply_frame(frame, &mut mirror, wpb, table.as_deref_mut()) {
                Ok(payload) => payload_bytes += payload,
                Err(e) => return reject(&mut link, node, e),
            }
            frames += 1;
        }
        if link.echo(node).is_err() {
            return Ok(());
        }
    }
}

/// One frame through the node, in place: parse it, scatter its payload
/// into the mirror, and gather the mirror's words back over the payload
/// bytes. Returns its payload bytes. The worker side's only decode.
fn apply_frame(
    frame: &mut [u8],
    mirror: &mut [f64],
    wpb: usize,
    mut table: Option<&mut Telemetry>,
) -> Result<u64, WireError> {
    // One clock read per stage boundary: a stage ends where the next
    // begins, so the three samples tile the frame's time.
    let mut t = table.as_ref().map(|_| Instant::now());
    let mut lap = |stage: Stage, kind: u8| {
        if let (Some(table), Some(t)) = (table.as_deref_mut(), t.as_mut()) {
            let now = Instant::now();
            table.record(stage, kind, now.duration_since(*t).as_nanos() as u64);
            *t = now;
        }
    };
    let view = WireView::parse(frame)?;
    let (kind, payload, at) = (view.kind(), view.payload_bytes(), view.words_at(frame));
    lap(Stage::Recv, kind);
    let runs = view.runs(wpb, mirror.len())?;
    view.scatter(mirror, wpb)?;
    lap(Stage::Apply, kind);
    crate::wire::gather_into(&mut frame[at..], runs, mirror);
    lap(Stage::Reencode, kind);
    if let Some(table) = table {
        table.count(kind, payload);
    }
    Ok(payload)
}

fn unexpected(node: u32, want: &str, got: &CtrlMsg) -> WireError {
    WireError::BadReply {
        node,
        what: format!("expected {want}, got {got:?}"),
    }
}

/// Tell the coordinator why this node is giving up, then give up.
fn reject(link: &mut impl Link, node: u32, e: WireError) -> Result<(), WireError> {
    let detail = format!("node {node}: {e}");
    let _ = send_ctrl(link, &CtrlMsg::Err { detail }, node);
    Err(e)
}

// ----------------------------------------------------------------------
// Coordinator side: handshake, split-phase batches, teardown
// ----------------------------------------------------------------------

/// A node's queue is written out once it holds this many bytes: a few
/// hundred block-sized frames per write, yet far below a socket buffer.
/// A constant, not a knob — no caller has ever wanted another value.
pub const FLUSH_WINDOW_BYTES: usize = 64 * 1024;

/// Up to this size a peer's two batch buffers grow by doubling — a
/// window's frames with room for their prefixes. Past it a buffer grows
/// to exactly what its batch needs: a batch is flushed as soon as its
/// frames reach the window, so neither buffer ever holds more than this
/// or one window plus the frame that crossed it (and their prefixes),
/// and a node whose batches stay small holds no more than they need.
const BATCH_DOUBLING_BYTES: usize = FLUSH_WINDOW_BYTES + FLUSH_WINDOW_BYTES / 8;

/// One admitted node: its link and the two batch buffers its frames
/// pass through on the way to being verified. The buffers swap roles at
/// every flush; neither is reallocated once it has grown to a batch.
struct Peer<L> {
    link: L,
    /// Posted, not yet written.
    queue: FrameBatch,
    /// The one batch in flight, exactly as written — the bytes its echo
    /// must equal — kept untouched until `collect` has compared them.
    in_flight: FrameBatch,
    /// The in-flight batch's span (`None`: nothing in flight) — until the
    /// echo is in, `dur_ns` is the time the write took.
    span: Option<WireSpan>,
}

/// When the coordinator started, the batches verified since the last
/// [`Coordinator::sync`], and the faults armed on the coordinator.
struct BatchLog {
    epoch: Instant,
    verified: Vec<WireSpan>,
    faults: Faults,
}

impl<L: Link> Peer<L> {
    /// Queue one frame; a queue past [`FLUSH_WINDOW_BYTES`] flushes.
    fn post(&mut self, frame: &[u8], node: u32, log: &mut BatchLog) -> Result<(), WireError> {
        self.queue.reserve_frame(frame.len(), BATCH_DOUBLING_BYTES);
        self.queue.push(frame);
        if self.queue.frame_bytes() < FLUSH_WINDOW_BYTES {
            return Ok(());
        }
        self.flush(node, log)
    }

    /// Write the queue as one `Batch{n}` — after collecting the previous
    /// batch's echo, so only one side of the link writes at a time.
    fn flush(&mut self, node: u32, log: &mut BatchLog) -> Result<(), WireError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        self.collect(node, log)?;
        let t0 = Instant::now();
        let image = self.queue.image();
        if log.faults.take(Fault::CorruptFrameLen) {
            // A copy, its first data frame's length prefix oversized: the
            // buffer in flight stays the bytes the echo must equal.
            let mut bad = image.to_vec();
            bad[MARKER_LEN..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
            self.link.send(&bad, node)?;
        } else {
            self.link.send(image, node)?;
        }
        let span = WireSpan {
            dst: node,
            start_ns: t0.duration_since(log.epoch).as_nanos() as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
            frames: self.queue.len() as u32,
            bytes: self.queue.frame_bytes() as u64,
        };
        // The verified, cleared buffer becomes the next queue.
        std::mem::swap(&mut self.queue, &mut self.in_flight);
        self.span = Some(span);
        Ok(())
    }

    /// Read the echo of the batch in flight and compare it byte for byte
    /// with the buffer that was written (a mismatch names the first frame
    /// that differs); once verified, the buffer is cleared for reuse.
    /// Nothing in flight: nothing to do.
    fn collect(&mut self, node: u32, log: &mut BatchLog) -> Result<(), WireError> {
        let Some(mut span) = self.span.take() else {
            return Ok(());
        };
        let t0 = Instant::now();
        let sent = &self.in_flight;
        let echo = self.link.recv(node)?;
        if *echo == *sent.image() {
            span.dur_ns += t0.elapsed().as_nanos() as u64;
            log.verified.push(span);
            self.in_flight.clear();
            return Ok(());
        }
        let mut records = Records(echo);
        let what = match CtrlMsg::from_bytes(records.next().unwrap_or_default()) {
            Ok(CtrlMsg::Batch { n }) if n as usize == sent.len() => {
                let i = records.zip(sent.frames()).position(|(e, s)| e != s);
                format!(
                    "echo of frame {} of {n} is not the frame sent",
                    i.unwrap_or(0)
                )
            }
            Ok(CtrlMsg::Err { detail }) => return Err(WireError::Rejected { node, detail }),
            Ok(CtrlMsg::Batch { n }) => {
                format!("returned {n} frames for a batch of {}", sent.len())
            }
            Ok(other) => format!("unexpected control reply {other:?}"),
            Err(e) => format!("bad control frame: {e}"),
        };
        Err(WireError::BadReply { node, what })
    }
}

/// The coordinator's end of every node's conversation, over links `L`.
pub struct Coordinator<L> {
    geom: Geometry,
    peers: Vec<Option<Peer<L>>>,
    log: BatchLog,
}

impl<L: Link> Coordinator<L> {
    /// No node admitted yet; `faults` armed on the coordinator's side of
    /// the links ([`Fault::CorruptFrameLen`]).
    pub fn new(geom: Geometry, faults: Faults) -> Self {
        Coordinator {
            geom,
            peers: (0..geom.nprocs).map(|_| None).collect(),
            log: BatchLog {
                epoch: Instant::now(),
                verified: Vec::new(),
                faults,
            },
        }
    }

    /// Handshake a freshly connected link: read the node's `Hello`, check
    /// its version and id, answer `HelloAck` with the geometry. On any
    /// error the link is dropped — the peer sees the hang-up.
    pub fn admit(&mut self, mut link: L) -> Result<u32, WireError> {
        let node = match recv_ctrl(&mut link, u32::MAX)? {
            CtrlMsg::Hello { node, version } if version == WIRE_VERSION => node,
            CtrlMsg::Hello { version, .. } => return Err(WireError::BadVersion(version)),
            other => return Err(unexpected(u32::MAX, "Hello", &other)),
        };
        let Some(slot @ None) = self.peers.get_mut(node as usize) else {
            return Err(WireError::BadReply {
                node,
                what: "node id out of range or already connected".into(),
            });
        };
        let ack = CtrlMsg::HelloAck {
            nprocs: self.geom.nprocs as u32,
            wpb: self.geom.wpb,
            seg_words: self.geom.seg_words,
        };
        send_ctrl(&mut link, &ack, node)?;
        *slot = Some(Peer {
            link,
            queue: FrameBatch::new(),
            in_flight: FrameBatch::new(),
            span: None,
        });
        Ok(node)
    }

    /// Has `node` completed its handshake (and not failed since)?
    pub fn is_connected(&self, node: usize) -> bool {
        self.peers.get(node).is_some_and(Option::is_some)
    }

    /// Heap bytes `node`'s two batch buffers hold (0 once it is gone):
    /// one batch filling and one in flight, each about a window
    /// (`BATCH_DOUBLING_BYTES`) whatever the traffic.
    pub fn held_bytes(&self, node: usize) -> usize {
        match self.peers.get(node) {
            Some(Some(p)) => p.queue.capacity() + p.in_flight.capacity(),
            _ => 0,
        }
    }

    /// Run one step of `dst`'s conversation. Any failure hangs up on the
    /// node — the conversation is out of step — so whatever is asked of
    /// it later reports `PeerGone`.
    fn with_peer<T>(
        &mut self,
        dst: usize,
        step: impl FnOnce(&mut Peer<L>, u32, &mut BatchLog) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let node = dst as u32;
        let slot = self.peers.get_mut(dst).ok_or(WireError::PeerGone(node))?;
        let peer = slot.as_mut().ok_or(WireError::PeerGone(node))?;
        let done = step(peer, node, &mut self.log);
        if done.is_err() {
            *slot = None;
        }
        done
    }

    /// Queue the frames of `batch` for `dst`, keeping a copy of each
    /// until its echo has been verified; the queue flushes itself each
    /// time it passes [`FLUSH_WINDOW_BYTES`].
    pub fn post(&mut self, dst: usize, batch: &FrameBatch) -> Result<(), WireError> {
        self.with_peer(dst, |peer, node, log| {
            batch.frames().try_for_each(|f| peer.post(f, node, log))
        })
    }

    /// Flush every node, then collect every node: on return each frame
    /// posted so far has been echoed back byte for byte. Returns the
    /// batches verified since the previous `sync`.
    pub fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
        for step in [Peer::flush, Peer::collect] {
            // A node that failed earlier has reported its error: skipped.
            for dst in 0..self.peers.len() {
                if self.is_connected(dst) {
                    self.with_peer(dst, step)?;
                }
            }
        }
        Ok(std::mem::take(&mut self.log.verified))
    }

    /// Orderly teardown: `Bye` to every live node, collect its `ByeStats`,
    /// hang up. A node that does not answer is skipped. Idempotent.
    pub fn finish(&mut self) -> Vec<RemoteReport> {
        let mut reports = Vec::new();
        for (node, slot) in self.peers.iter_mut().enumerate() {
            let Some(Peer { mut link, .. }) = slot.take() else {
                continue;
            };
            let node = node as u32;
            if send_ctrl(&mut link, &CtrlMsg::Bye, node).is_err() {
                continue;
            }
            if let Ok(CtrlMsg::ByeStats {
                frames,
                payload_bytes,
                metrics,
            }) = recv_ctrl(&mut link, node)
            {
                reports.push(RemoteReport {
                    node,
                    frames,
                    payload_bytes,
                    metrics,
                });
            }
        }
        reports
    }
}

// ----------------------------------------------------------------------
// The `chan` carrier: worker threads over memory links
// ----------------------------------------------------------------------

/// The `chan` backend's transport: one thread per node running [`serve`]
/// over an in-memory link. Workers share *no* shard memory — each owns
/// its mirror and sees only the batch images copied onto its channel.
pub struct ChanTransport {
    nodes: Coordinator<MemLink>,
    workers: Vec<JoinHandle<()>>,
}

impl ChanTransport {
    /// `nprocs` workers over the one-page segment `Cluster::new` gives an
    /// empty layout, with the [`DEFAULT_RECV_TIMEOUT`].
    pub fn new(nprocs: usize) -> Self {
        let cost = CostModel::paper_dual_cpu();
        let geom = Geometry {
            nprocs,
            wpb: cost.words_per_block() as u32,
            seg_words: cost.words_per_page() as u64,
        };
        Self::spawn(geom, DEFAULT_RECV_TIMEOUT, false, None, Faults::default())
    }

    /// One worker per node of `geom`; the coordinator's recvs give up
    /// after `timeout`, workers keep telemetry when `metrics`, `fault`
    /// arms one node with a [`NodeFault`] and `faults` the coordinator.
    pub fn spawn(
        geom: Geometry,
        timeout: Duration,
        metrics: bool,
        fault: Option<(u32, NodeFault)>,
        faults: Faults,
    ) -> Self {
        // Start every worker before the first (blocking) handshake.
        let (mut links, mut workers) = (Vec::new(), Vec::new());
        for node in 0..geom.nprocs as u32 {
            let (ours, theirs) = mem_pair(timeout);
            links.push(ours);
            let fault = fault.and_then(|(n, f)| (n == node).then_some(f));
            let worker = std::thread::Builder::new()
                .name(format!("fgdsm-chan-{node}"))
                // An error was already reported over the link.
                .spawn(move || drop(serve(theirs, node, metrics, fault)))
                .expect("spawn chan worker");
            workers.push(worker);
        }
        let mut nodes = Coordinator::new(geom, faults);
        for link in links {
            nodes.admit(link).expect("chan worker handshake");
        }
        ChanTransport { nodes, workers }
    }

    /// Tear down the worker threads. The order keeps this deadlock-free:
    /// [`Coordinator::finish`] drops every link *before* any join, so a
    /// worker parked in `recv` — idle, wedged, or holding undrained
    /// requests during a panic unwind — sees the hang-up and returns.
    /// Idempotent, so an explicit call followed by `Drop` is fine.
    pub fn shutdown(&mut self) {
        self.finish();
    }
}

impl WireTransport for ChanTransport {
    fn name(&self) -> &'static str {
        "chan"
    }
    fn send(&mut self, dst: usize, batch: &FrameBatch) -> Result<(), WireError> {
        self.nodes.post(dst, batch)
    }
    fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
        self.nodes.sync()
    }
    fn finish(&mut self) -> Vec<RemoteReport> {
        let reports = self.nodes.finish();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        reports
    }
}

impl Drop for ChanTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{WireHeader, WireMsg};
    use crate::wire::MAX_MESSAGE_BYTES;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn copy_frame(start_word: u64, words: Vec<u64>) -> Vec<u8> {
        WireMsg::Copy {
            hdr: WireHeader::for_blocks(0, 1, (3, 4), u32::MAX, 0, 1),
            start_word,
            words,
        }
        .to_bytes()
    }

    fn batch_of(frames: &[Vec<u8>]) -> FrameBatch {
        let mut batch = FrameBatch::new();
        frames.iter().for_each(|f| batch.push(f));
        batch
    }

    /// `records` length-prefixed into one link image, as written.
    fn image(records: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        records.iter().for_each(|r| write_frame(&mut out, r));
        out
    }

    /// The records of a link image, in order (a batch's marker first).
    fn records(image: &[u8]) -> Vec<Vec<u8>> {
        Records(image).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn chan_transport_round_trips_rejects_and_keeps_books() {
        let mut t = ChanTransport::new(2);
        let frames = vec![copy_frame(5, vec![1, 2, 3]), copy_frame(0, vec![9])];
        let back = t.route(1, frames.clone()).unwrap();
        assert_eq!(back, frames, "scatter + gather in place is the identity");
        assert!(t.route(0, Vec::new()).unwrap().is_empty());
        // A frame the worker's decoder refuses is a typed rejection naming
        // the node, and the coordinator hangs up on it.
        let r = t.route(0, vec![vec![0u8; 4]]);
        assert!(
            matches!(r, Err(WireError::Rejected { node: 0, .. })),
            "{r:?}"
        );
        assert_eq!(t.route(0, frames), Err(WireError::PeerGone(0)));
        // Teardown hands back the surviving node's double-entry book.
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!((r.node, r.frames, r.payload_bytes), (1, 2, 32));
        assert!(r.metrics.is_empty(), "telemetry was off");
        assert!(t.finish().is_empty(), "finish is idempotent");
        assert!(Loopback.finish().is_empty());
    }

    /// The provided `route`, over a transport that has nothing but `name`,
    /// `send` and `sync`: the frames go out as one batch, `sync` follows,
    /// and the frames come back after it; a failing `sync` is that error;
    /// an empty list neither sends nor syncs.
    #[test]
    fn the_provided_route_is_one_send_then_a_sync() {
        /// Logs `send`, the frames sent and `sync`; `sync` fails once
        /// with the error it holds.
        struct Probe(Vec<Vec<u8>>, Option<WireError>);
        impl WireTransport for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn send(&mut self, _dst: usize, batch: &FrameBatch) -> Result<(), WireError> {
                self.0.push(b"send".to_vec());
                self.0.extend(batch.frames().map(<[u8]>::to_vec));
                Ok(())
            }
            fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
                self.0.push(b"sync".to_vec());
                self.1.take().map_or(Ok(Vec::new()), Err)
            }
        }
        let frames = vec![copy_frame(0, vec![1, 2]), copy_frame(8, vec![3])];
        let mut t = Probe(Vec::new(), None);
        assert_eq!(t.route(1, frames.clone()), Ok(frames.clone()));
        let log = [&[b"send".to_vec()], &frames[..], &[b"sync".to_vec()]].concat();
        assert_eq!(t.0, log, "one batch, then a sync");
        let mut t = Probe(Vec::new(), Some(WireError::Timeout(1)));
        assert_eq!(t.route(1, frames), Err(WireError::Timeout(1)));
        t.0.clear();
        assert_eq!(t.route(1, Vec::new()), Ok(Vec::new()));
        assert!(t.0.is_empty(), "an empty list touches nothing");
    }

    /// A coordinator and the raw far end of node 0's admitted link, for a
    /// hand-written peer; the coordinator's recvs give up after 100 ms.
    fn admitted_pair() -> (Coordinator<MemLink>, MemLink) {
        let geom = Geometry {
            nprocs: 1,
            wpb: 4,
            seg_words: 64,
        };
        let (ours, mut peer) = mem_pair(Duration::from_millis(100));
        let hello = CtrlMsg::Hello {
            node: 0,
            version: WIRE_VERSION,
        };
        send_ctrl(&mut peer, &hello, 0).unwrap();
        let mut coord = Coordinator::new(geom, Faults::default());
        assert_eq!(coord.admit(ours), Ok(0));
        assert!(matches!(
            recv_ctrl(&mut peer, 0),
            Ok(CtrlMsg::HelloAck { .. })
        ));
        (coord, peer)
    }

    /// What the model checker assumes of a link — reliable, in-order,
    /// exactly-once — checked at the transport: a peer whose echo has one
    /// bit flipped, one frame dropped, one duplicated or two swapped is a
    /// typed error out of `sync`, the coordinator hangs up on it, and
    /// whatever is sent to it later is `PeerGone`.
    #[test]
    fn a_lying_echo_is_a_typed_error_and_hangs_up_on_the_peer() {
        let frames: Vec<Vec<u8>> = (0..4u64).map(|i| copy_frame(8 * i, vec![i; 3])).collect();
        type Lie = fn(&mut Vec<Vec<u8>>);
        // Index 0 of the echo is the `Batch{n}` marker.
        // `None`: a `BadReply` naming node 0.
        let cases: [(&str, Lie, Option<WireError>); 7] = [
            ("honest", |_| {}, None),
            (
                "bit flipped",
                |echo| *echo[2].last_mut().unwrap() ^= 1,
                None,
            ),
            // A message short of the frames its marker names: a memory
            // link's image is one whole write, so it is short at once (a
            // socket would wait out its deadline for the rest)...
            ("dropped", |echo| drop(echo.remove(2)), None),
            ("last dropped", |echo| drop(echo.pop()), None),
            // ... and so is one whose marker owns up to the count.
            (
                "dropped and recounted",
                |echo| {
                    echo.remove(2);
                    echo[0] = CtrlMsg::Batch { n: 3 }.to_bytes();
                },
                None,
            ),
            // A frame more than the marker names is bytes past the message.
            ("duplicated", |echo| echo.insert(2, echo[1].clone()), None),
            ("swapped", |echo| echo.swap(2, 3), None),
        ];
        for (what, lie, want) in cases {
            let (mut coord, mut peer) = admitted_pair();
            coord.post(0, &batch_of(&frames)).unwrap();
            coord.with_peer(0, Peer::flush).unwrap();
            let mut echo = records(peer.recv(0).expect("the batch as written"));
            assert_eq!(
                echo[1..],
                frames[..],
                "{what}: sent in order, after the marker"
            );
            lie(&mut echo);
            peer.send(&image(&echo), 0).unwrap();
            let synced = coord.sync();
            if what == "honest" {
                let spans = synced.expect("an honest echo verifies");
                assert_eq!(spans.len(), 1, "one batch, one span");
                assert_eq!((spans[0].dst, spans[0].frames), (0, 4));
                assert!(coord.is_connected(0));
                continue;
            }
            match (synced, want) {
                (Err(WireError::BadReply { node: 0, .. }), None) => {}
                (Err(got), Some(want)) if got == want => {}
                (other, _) => panic!("{what}: got {other:?}"),
            }
            assert!(!coord.is_connected(0), "{what}: must hang up");
            assert_eq!(
                coord.post(0, &batch_of(&frames)),
                Err(WireError::PeerGone(0))
            );
            assert_eq!(peer.recv(0), Err(WireError::PeerGone(0)), "{what}");
        }
    }

    /// The echo is checked against the buffer that was written, and that
    /// buffer is left alone until it has been: a full window's batch goes
    /// out, more frames are queued behind it, and only then does its echo
    /// arrive. Honest, it verifies; with one byte of the window's *last*
    /// frame changed, it is a `BadReply` naming that frame.
    #[test]
    fn a_lie_in_the_last_frame_of_a_full_window_is_caught() {
        for lie in [false, true] {
            let (mut coord, peer) = admitted_pair();
            // Distinct frames, so a buffer reused too early shows.
            let mut next = 0u64;
            let mut frame = || {
                next += 1;
                copy_frame(next % 48, vec![next; 16])
            };
            let written = loop {
                coord.post(0, &batch_of(&[frame()])).unwrap();
                if let Ok(image) = peer.rx.try_recv() {
                    break records(&image);
                }
            };
            let n = written.len() - 1;
            assert!(
                written[1..].iter().map(Vec::len).sum::<usize>() >= FLUSH_WINDOW_BYTES,
                "a full window's batch"
            );
            for _ in 0..16 {
                coord.post(0, &batch_of(&[frame()])).unwrap();
            }
            let mut echo = written;
            if lie {
                let last = echo.last_mut().unwrap();
                let at = last.len() - 3;
                last[at] ^= 0x10;
            }
            let mut peer = peer;
            peer.send(&image(&echo), 0).unwrap();
            match (coord.with_peer(0, Peer::collect), lie) {
                (Ok(()), false) => assert!(coord.is_connected(0)),
                (Err(WireError::BadReply { node: 0, what }), true) => {
                    assert!(what.contains(&format!("frame {} of {n}", n - 1)), "{what}");
                    assert!(!coord.is_connected(0), "must hang up");
                }
                (other, _) => panic!("lie {lie}: got {other:?}"),
            }
        }
    }

    /// The one-in-flight rule and the self-flushing window, seen from the
    /// far end: nothing is written below the window, a queue past it goes
    /// out as one batch, and the next batch is not written before the
    /// previous echo has been read.
    #[test]
    fn queues_flush_past_the_window_with_one_batch_in_flight() {
        let (mut coord, peer) = admitted_pair();
        let frame = batch_of(&[copy_frame(0, vec![7; 16])]);
        let per_window = FLUSH_WINDOW_BYTES.div_ceil(frame.frame_bytes());
        for _ in 0..per_window - 1 {
            coord.post(0, &frame).unwrap();
        }
        assert!(
            matches!(
                peer.rx.try_recv(),
                Err(std::sync::mpsc::TryRecvError::Empty)
            ),
            "below the window nothing is written"
        );
        coord.post(0, &frame).unwrap();
        let batch = peer
            .rx
            .try_recv()
            .expect("the window's worth, as one batch");
        assert_eq!(records(&batch).len(), 1 + per_window);
        // A second window's worth must wait for the first echo: with none
        // coming, the flush gives up at the deadline instead of writing.
        for _ in 0..per_window - 1 {
            coord.post(0, &frame).unwrap();
        }
        assert_eq!(coord.post(0, &frame), Err(WireError::Timeout(0)));
        assert!(peer.rx.try_recv().is_err(), "no second batch was written");
    }

    /// A worker's end that reads like a socket: the far end's images come
    /// in as one byte stream, through the reader a socket link uses, and
    /// `held` keeps the largest buffer a read has been lent.
    struct Streamed {
        link: MemLink,
        inbox: MessageBuf,
        pending: (Vec<u8>, usize),
        held: Arc<AtomicUsize>,
    }

    impl Link for Streamed {
        fn send(&mut self, image: &[u8], peer: u32) -> Result<(), WireError> {
            self.link.send(image, peer)
        }
        fn recv(&mut self, peer: u32) -> Result<&mut [u8], WireError> {
            let (rx, (bytes, at), held) = (&self.link.rx, &mut self.pending, &self.held);
            let mut read = 0;
            self.inbox.read(peer, |room| {
                if *at == bytes.len() {
                    (*bytes, *at) = (rx.recv().map_err(|_| WireError::PeerGone(peer))?, 0);
                }
                held.fetch_max(read + room.len(), Ordering::Relaxed);
                let n = room.len().min(bytes.len() - *at);
                room[..n].copy_from_slice(&bytes[*at..*at + n]);
                (*at, read) = (*at + n, read + n);
                Ok(n)
            })
        }
        fn echo(&mut self, peer: u32) -> Result<(), WireError> {
            let message = self.inbox.message().to_vec();
            self.link.send(&message, peer)
        }
    }

    /// A coordinator's end after the handshake with a worker running
    /// [`serve`] (telemetry on) over `theirs`.
    fn serving(
        theirs: impl Link + Send + 'static,
        mut ours: MemLink,
    ) -> (MemLink, JoinHandle<Result<(), WireError>>) {
        let worker = std::thread::spawn(move || serve(theirs, 0, true, None));
        assert!(matches!(recv_ctrl(&mut ours, 0), Ok(CtrlMsg::Hello { .. })));
        let ack = CtrlMsg::HelloAck {
            nprocs: 1,
            wpb: 4,
            seg_words: 64,
        };
        send_ctrl(&mut ours, &ack, 0).unwrap();
        (ours, worker)
    }

    /// The worker against hostile batches, written by hand over a memory
    /// link after a well-formed frame: a lying payload length or block
    /// count, a length prefix past the cap, a truncated frame, an address
    /// outside the segment, a wrong kind byte or magic — and a marker
    /// claiming `u32::MAX` frames, streamed past the message cap. Each one
    /// ends with the worker's `CtrlMsg::Err` naming the fault and the
    /// typed error out of `serve` — never a panic, never a grown mirror,
    /// never a buffer past the cap.
    #[test]
    fn hostile_batches_into_the_worker_end_in_a_typed_rejection() {
        let good = copy_frame(8, vec![1, 2, 3]);
        // A one-block `Copy`: block list at 29, `start_word` at 33, the
        // payload length at 41.
        let with = |at: usize, bytes: &[u8]| {
            let mut f = good.clone();
            f[at..at + bytes.len()].copy_from_slice(bytes);
            f
        };
        let frame_then = |bad: Vec<u8>| image(&[good.clone(), bad]);
        let cases: [(&str, Vec<u8>, WireError); 7] = [
            (
                "lying payload length",
                frame_then(with(41, &4u64.to_le_bytes())),
                WireError::Truncated,
            ),
            (
                "lying block count",
                frame_then(with(25, &1000u32.to_le_bytes())),
                WireError::Truncated,
            ),
            (
                "truncated",
                frame_then(good[..good.len() - 1].to_vec()),
                WireError::Truncated,
            ),
            (
                "outside the segment",
                frame_then(copy_frame(62, vec![1, 2, 3])),
                WireError::OutOfSegment("last run ends past the segment"),
            ),
            (
                "wrong kind",
                frame_then(with(4, &[9])),
                WireError::BadKind(9),
            ),
            (
                "bad magic",
                frame_then(with(0, &[0, 0])),
                WireError::BadMagic(0),
            ),
            (
                "length prefix past the cap",
                {
                    let mut img = image(&[good.clone()]);
                    img.extend_from_slice(&u32::MAX.to_le_bytes());
                    img
                },
                WireError::FrameTooBig((MARKER_LEN + 8 + good.len()) as u64 + u32::MAX as u64),
            ),
        ];
        for (what, frames, want) in cases {
            let (ours, theirs) = mem_pair(Duration::from_secs(5));
            let (mut ours, worker) = serving(theirs, ours);
            let mut batch = image(&[CtrlMsg::Batch { n: 2 }.to_bytes()]);
            batch.extend_from_slice(&frames);
            ours.send(&batch, 0).unwrap();
            match recv_ctrl(&mut ours, 0) {
                Ok(CtrlMsg::Err { detail }) => {
                    assert!(detail.contains(&want.to_string()), "{what}: {detail}")
                }
                other => panic!("{what}: want the worker's Err reply, got {other:?}"),
            }
            let served = worker
                .join()
                .unwrap_or_else(|_| panic!("{what}: serve panicked"));
            assert_eq!(served, Err(want), "{what}");
        }
        // A marker claiming `u32::MAX` frames, then well-formed 1 MiB
        // records streamed until the worker hangs up: the message cap
        // stops it.
        let (ours, link) = mem_pair(Duration::from_secs(30));
        let held = Arc::default();
        let theirs = Streamed {
            link,
            inbox: MessageBuf::default(),
            pending: (Vec::new(), 0),
            held: Arc::clone(&held),
        };
        let (mut ours, worker) = serving(theirs, ours);
        ours.send(&image(&[CtrlMsg::Batch { n: u32::MAX }.to_bytes()]), 0)
            .unwrap();
        let record = image(&[vec![0; 1 << 20]]);
        let mut streamed = 0;
        while streamed <= MAX_MESSAGE_BYTES + record.len() && ours.send(&record, 0).is_ok() {
            streamed += record.len();
        }
        match recv_ctrl(&mut ours, 0) {
            Ok(CtrlMsg::Err { detail }) => assert!(detail.contains("exceeds cap"), "{detail}"),
            other => panic!("want the worker's Err reply, got {other:?}"),
        }
        let served = worker.join().expect("serve must not panic");
        assert!(
            matches!(served, Err(WireError::FrameTooBig(_))),
            "{served:?}"
        );
        let held = held.load(Ordering::Relaxed);
        assert!(
            held > MAX_MESSAGE_BYTES / 2 && held <= MAX_MESSAGE_BYTES,
            "the worker held {held} bytes against a cap of {MAX_MESSAGE_BYTES}"
        );
        // Through a coordinator the same rejection is a typed error out of
        // `collect`, and the coordinator hangs up on the node.
        let geom = Geometry {
            nprocs: 1,
            wpb: 4,
            seg_words: 64,
        };
        let mut t =
            ChanTransport::spawn(geom, Duration::from_secs(5), false, None, Faults::default());
        t.send(0, &batch_of(&[good.clone(), with(4, &[9])]))
            .unwrap();
        match t
            .nodes
            .with_peer(0, Peer::collect)
            .and_then(|()| t.nodes.with_peer(0, Peer::flush))
            .and_then(|()| t.nodes.with_peer(0, Peer::collect))
        {
            Err(WireError::Rejected { node: 0, detail }) => {
                assert!(detail.contains("unknown kind byte 9"), "{detail}")
            }
            other => panic!("want node 0's typed rejection, got {other:?}"),
        }
        assert!(!t.nodes.is_connected(0));
        // An oversized length prefix (`CorruptFrameLen`, patched into a
        // copy of the first batch written) meets the memory link's framing
        // cap before any allocation; it fires once, so node 1 is served.
        let geom = Geometry { nprocs: 2, ..geom };
        let faults = Faults::default().with(Fault::CorruptFrameLen);
        let mut t = ChanTransport::spawn(geom, Duration::from_secs(5), false, None, faults);
        t.send(0, &batch_of(std::slice::from_ref(&good))).unwrap();
        match t.sync() {
            Err(WireError::Rejected { node: 0, detail }) => {
                assert!(detail.contains("exceeds cap"), "{detail}")
            }
            other => panic!("want the framing cap's rejection, got {other:?}"),
        }
        t.send(1, &batch_of(std::slice::from_ref(&good))).unwrap();
        assert!(t.sync().is_ok(), "a one-shot fault fires once");
    }

    /// An echo whose marker claims `u32::MAX` frames, then a length prefix
    /// that takes it past the message cap: `collect` refuses it before the
    /// declared bytes are read, and hangs up on the node.
    #[test]
    fn a_lying_echo_past_the_cap_is_refused_by_collect() {
        let (mut coord, mut peer) = admitted_pair();
        let frame = copy_frame(0, vec![1, 2]);
        coord
            .post(0, &batch_of(std::slice::from_ref(&frame)))
            .unwrap();
        coord.with_peer(0, Peer::flush).unwrap();
        peer.recv(0).expect("the batch as written");
        let mut echo = image(&[CtrlMsg::Batch { n: u32::MAX }.to_bytes(), frame.clone()]);
        let at = echo.len() + 4;
        echo.extend_from_slice(&((MAX_MESSAGE_BYTES - at + 1) as u32).to_le_bytes());
        peer.send(&echo, 0).unwrap();
        assert_eq!(
            coord.with_peer(0, Peer::collect),
            Err(WireError::FrameTooBig(MAX_MESSAGE_BYTES as u64 + 1))
        );
        assert!(!coord.is_connected(0), "must hang up");
    }

    /// The handshake every carrier shares, against misbehaving peers over
    /// a memory link: each failure is a typed error, and the coordinator
    /// drops the link — the peer observes the hang-up instead of waiting
    /// out a deadline (over sockets that hang-up is also what lets
    /// `SocketTransport::spawn` fail without leaking its children).
    #[test]
    fn failed_handshakes_are_typed_and_hang_up_on_the_peer() {
        let geom = Geometry {
            nprocs: 2,
            wpb: 4,
            seg_words: 64,
        };
        let hello = |node, version| CtrlMsg::Hello { node, version }.to_bytes();
        // (the peer's opening frame, the node a `BadReply` must name)
        let cases = [
            (vec![0xde, 0xad, 0xbe, 0xef], Some(u32::MAX)), // garbage
            (CtrlMsg::Bye.to_bytes(), Some(u32::MAX)),      // not a Hello
            (hello(0, WIRE_VERSION + 1), None),             // BadVersion instead
            (hello(2, WIRE_VERSION), Some(2)),              // id out of range
            (hello(1, WIRE_VERSION), Some(1)),              // duplicate id
        ];
        let mut coord = Coordinator::new(geom, Faults::default());
        let (ours, mut first) = mem_pair(Duration::from_secs(5));
        first.send(&image(&[hello(1, WIRE_VERSION)]), 0).unwrap();
        assert_eq!(coord.admit(ours), Ok(1));
        assert!(matches!(
            recv_ctrl(&mut first, 0),
            Ok(CtrlMsg::HelloAck { seg_words: 64, .. })
        ));
        for (opening, names) in cases {
            let (ours, mut peer) = mem_pair(Duration::from_secs(5));
            peer.send(&image(&[opening.clone()]), 0).unwrap();
            match (coord.admit(ours), names) {
                (Err(WireError::BadReply { node, .. }), Some(n)) if node == n => {}
                (Err(WireError::BadVersion(v)), None) if v == WIRE_VERSION + 1 => {}
                (other, _) => panic!("{opening:?}: got {other:?}"),
            }
            assert_eq!(peer.recv(0), Err(WireError::PeerGone(0)), "{opening:?}");
        }
        assert!(coord.is_connected(1) && !coord.is_connected(0));
        // A peer that hangs up before saying anything is `PeerGone`.
        let (ours, peer) = mem_pair(Duration::from_secs(5));
        drop(peer);
        assert_eq!(coord.admit(ours), Err(WireError::PeerGone(u32::MAX)));
    }
}
