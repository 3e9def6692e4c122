//! The node runtime, written once: a worker loop ([`serve`]), the
//! coordinator's side of the conversation ([`Coordinator`]) and the fault
//! model ([`NodeFault`]), all over a narrow byte [`Link`].
//!
//! A carrier is only a link plus a way to start workers: [`ChanTransport`]
//! is N threads running [`serve`] over in-memory [`MemLink`]s;
//! `fgdsm_net::SocketTransport` is N `fgdsm-node` processes running the
//! same [`serve`] over socket links. Handshake, batches, rejection,
//! double-entry books, worker telemetry, faults and teardown therefore
//! behave identically on both (conversation shape: [`CtrlMsg`]).
//!
//! Delivery is **split-phase**. [`Coordinator::post`] queues frames for a
//! node and keeps them; [`Coordinator::flush`] writes a node's queue as
//! one `Batch{n}` (one `write` per flush on a socket);
//! [`Coordinator::collect`] reads that batch's echo and compares it byte
//! for byte with the frames kept; [`Coordinator::sync`] flushes and
//! collects every node. The sender applies from its own decode of the
//! bytes it encoded and goes on — the echo is the worker's proof of what
//! its memory now holds, checked no later than the next barrier. One
//! rule keeps this deadlock-free for any batch size: **at most one batch
//! is in flight per node** (`flush` collects the previous echo before it
//! writes), so on every link only one side writes at a time, exactly as
//! in a blocking round trip.
//!
//! What the layers above assume of a link — and what the echo check
//! turns from an assumption into a verified fact — is **reliable,
//! in-order, exactly-once delivery**: the bounded model checker
//! (`crates/model`) explores the protocol under that assumption only. A
//! link that flips a bit, drops, duplicates or reorders a frame is a
//! typed error out of `collect`/`sync` ([`WireError::BadReply`], or
//! [`WireError::Timeout`] for a frame that never comes), and the
//! coordinator hangs up on that node (`tests` below).

use crate::wire::{CtrlMsg, RemoteReport, WireError, WireMsg, DEFAULT_RECV_TIMEOUT, WIRE_VERSION};
use fgdsm_tempest::metrics::{Stage, Telemetry, WireSpan};
use fgdsm_tempest::{Cluster, CostModel};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Carries encoded frames to their destination node. Implementations
/// must deliver each node's frames in order, exactly once; they never
/// interpret payloads (the sender decodes its own bytes to apply).
/// Every failure is a typed `Err`: the peer died
/// ([`WireError::PeerGone`]), went silent past the deadline
/// ([`WireError::Timeout`]), refused a frame ([`WireError::Rejected`])
/// or broke the conversation ([`WireError::BadReply`]).
pub trait WireTransport {
    fn name(&self) -> &'static str;
    /// Hand `frames` to `dst` without waiting for them to arrive: the
    /// transport keeps them until it has verified their delivery. An
    /// error may belong to frames sent earlier to the same node.
    fn send(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<(), WireError>;
    /// Wait until every frame sent so far has been delivered and
    /// verified. Returns one [`WireSpan`] per link-level batch verified
    /// since the previous `sync` (none for a transport without links).
    fn sync(&mut self) -> Result<Vec<WireSpan>, WireError>;
    /// The blocking round trip: send `frames` to `dst`, wait, and return
    /// them as delivered (same order).
    fn route(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, WireError>;
    /// Orderly end-of-run: tear down remote peers and collect their
    /// final accounting ([`RemoteReport`]). `sync` first — teardown does
    /// not wait for echoes. A transport with no peers has no remote
    /// book, so the default returns nothing.
    fn finish(&mut self) -> Vec<RemoteReport> {
        Vec::new()
    }
}

/// In-process delivery: frames arrive exactly as posted. This is the
/// strict-mode transport for the sm_* backends — the bytes still pass
/// through `to_bytes`/`from_bytes`, only the carry is a no-op.
pub struct Loopback;

impl WireTransport for Loopback {
    fn name(&self) -> &'static str {
        "loopback"
    }
    fn send(&mut self, _dst: usize, _frames: Vec<Vec<u8>>) -> Result<(), WireError> {
        Ok(())
    }
    fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
        Ok(Vec::new())
    }
    fn route(&mut self, _dst: usize, frames: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, WireError> {
        Ok(frames)
    }
}

// ----------------------------------------------------------------------
// Links
// ----------------------------------------------------------------------

/// One end of a framed, ordered byte link. `peer` names the far end in
/// the errors: a closed link is [`WireError::PeerGone`], a recv past the
/// link's deadline [`WireError::Timeout`]. Dropping the link hangs up.
pub trait Link {
    /// Send `frames` as one batch, with one flush.
    fn send(&mut self, frames: Vec<Vec<u8>>, peer: u32) -> Result<(), WireError>;
    /// The next frame, in order.
    fn recv(&mut self, peer: u32) -> Result<Vec<u8>, WireError>;
}

/// The in-memory link: an `mpsc` pair moving owned frame buffers.
pub(crate) struct MemLink {
    tx: Sender<Vec<Vec<u8>>>,
    rx: Receiver<Vec<Vec<u8>>>,
    pending: VecDeque<Vec<u8>>,
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
        pending: VecDeque::new(),
        deadline,
    };
    (end(tx_a, rx_a, Some(timeout)), end(tx_b, rx_b, None))
}

impl Link for MemLink {
    fn send(&mut self, frames: Vec<Vec<u8>>, peer: u32) -> Result<(), WireError> {
        self.tx.send(frames).map_err(|_| WireError::PeerGone(peer))
    }

    fn recv(&mut self, peer: u32) -> Result<Vec<u8>, WireError> {
        loop {
            if let Some(frame) = self.pending.pop_front() {
                return Ok(frame);
            }
            self.pending = match self.deadline {
                Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                    RecvTimeoutError::Timeout => WireError::Timeout(peer),
                    RecvTimeoutError::Disconnected => WireError::PeerGone(peer),
                })?,
                None => self.rx.recv().map_err(|_| WireError::PeerGone(peer))?,
            }
            .into();
        }
    }
}

fn recv_ctrl(link: &mut impl Link, peer: u32) -> Result<CtrlMsg, WireError> {
    let frame = link.recv(peer)?;
    CtrlMsg::from_bytes(&frame).map_err(|e| WireError::BadReply {
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
/// the loop quietly). Each envelope is scattered into the node's mirror
/// of the segment and its payload re-gathered *from the mirror* before it
/// is echoed — what the coordinator gets back is what this node's memory
/// now holds, not the bytes it sent. The mirror is exactly the `HelloAck`
/// segment and never grows: a frame the decoder rejects, or one naming
/// memory outside the segment, is answered with `CtrlMsg::Err` and ends
/// the loop with that error. With `metrics` the node keeps per-class
/// `recv` (frame in hand → decoded), `apply` and `reencode` histograms
/// and ships them home in `ByeStats`, next to its double-entry counters.
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
    link.send(vec![hello.to_bytes()], node)?;
    let (wpb, seg_words) = match recv_ctrl(&mut link, node)? {
        CtrlMsg::HelloAck { wpb, seg_words, .. } => (wpb as usize, seg_words as usize),
        other => return reject(&mut link, node, unexpected(node, "HelloAck", &other)),
    };
    let mut mirror = vec![0u64; seg_words];
    let (mut frames, mut payload_bytes, mut batches) = (0u64, 0u64, 0u32);
    let mut table = metrics.then(Box::<Telemetry>::default);
    // A link error below means the coordinator is gone (or idle past the
    // link's deadline): we are the orphan backstop, not the reporter.
    while let Ok(ctrl) = link.recv(node) {
        let n = match CtrlMsg::from_bytes(&ctrl) {
            Ok(CtrlMsg::Batch { n }) => n,
            Ok(CtrlMsg::Bye) => {
                let stats = CtrlMsg::ByeStats {
                    frames,
                    payload_bytes,
                    metrics: table.map(|t| t.to_bytes()).unwrap_or_default(),
                };
                let _ = link.send(vec![stats.to_bytes()], node);
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
        // The reply opens with the same `Batch{n}` marker.
        let mut reply = vec![ctrl];
        for _ in 0..n {
            let mut frame = match link.recv(node) {
                Ok(f) => f,
                Err(e @ WireError::FrameTooBig(_)) => return reject(&mut link, node, e),
                Err(_) => return Ok(()),
            };
            match apply_frame(&mut frame, &mut mirror, wpb, table.as_deref_mut()) {
                Ok(payload) => payload_bytes += payload,
                Err(e) => return reject(&mut link, node, e),
            }
            frames += 1;
            reply.push(frame);
        }
        if link.send(reply, node).is_err() {
            break;
        }
    }
    Ok(())
}

/// One envelope through the node: decode `frame`, scatter it into the
/// mirror, gather it back and re-encode it in place. Returns its payload
/// bytes. The worker side's only `WireMsg::from_bytes`.
fn apply_frame(
    frame: &mut Vec<u8>,
    mirror: &mut [u64],
    wpb: usize,
    mut table: Option<&mut Telemetry>,
) -> Result<u64, WireError> {
    let mut t0 = table.as_ref().map(|_| Instant::now());
    let mut lap = |stage: Stage, kind: u8| {
        if let (Some(table), Some(t0)) = (table.as_deref_mut(), t0.as_mut()) {
            table.record(stage, kind, t0.elapsed().as_nanos() as u64);
            *t0 = Instant::now();
        }
    };
    let mut msg = WireMsg::from_bytes(frame)?;
    let kind = msg.kind();
    lap(Stage::Recv, kind);
    msg.scatter(mirror, wpb)?;
    lap(Stage::Apply, kind);
    msg.gather(mirror, wpb)?;
    msg.encode(frame);
    lap(Stage::Reencode, kind);
    if let Some(table) = table {
        table.count(kind, msg.payload_bytes());
    }
    Ok(msg.payload_bytes())
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
    let _ = link.send(vec![CtrlMsg::Err { detail }.to_bytes()], node);
    Err(e)
}

// ----------------------------------------------------------------------
// Coordinator side: handshake, split-phase batches, teardown
// ----------------------------------------------------------------------

/// A node's queue is written out once it holds this many bytes: a few
/// hundred block-sized frames per write, yet far below a socket buffer.
/// A constant, not a knob — no caller has ever wanted another value.
const FLUSH_WINDOW_BYTES: usize = 64 * 1024;

/// One admitted node: its link and the two stages its frames pass
/// through on the way to being verified.
struct Peer<L> {
    link: L,
    /// Posted, not yet written.
    queue: Vec<Vec<u8>>,
    queue_bytes: usize,
    /// The one batch in flight: the frames its echo must equal, and its
    /// span — until the echo is in, `dur_ns` is the time the write took.
    in_flight: Option<(Vec<Vec<u8>>, WireSpan)>,
}

/// When the coordinator started, and the batches verified since the
/// last [`Coordinator::sync`].
struct BatchLog {
    epoch: Instant,
    verified: Vec<WireSpan>,
}

impl<L: Link> Peer<L> {
    /// Write the queue as one `Batch{n}` — after collecting the previous
    /// batch's echo, so only one side of the link writes at a time.
    fn flush(&mut self, node: u32, log: &mut BatchLog) -> Result<(), WireError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        self.collect(node, log)?;
        let t0 = Instant::now();
        let frames = std::mem::take(&mut self.queue);
        let n = frames.len() as u32;
        let mut batch = Vec::with_capacity(frames.len() + 1);
        batch.push(CtrlMsg::Batch { n }.to_bytes());
        batch.extend(frames.iter().cloned());
        self.link.send(batch, node)?;
        let span = WireSpan {
            dst: node,
            start_ns: t0.duration_since(log.epoch).as_nanos() as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
            frames: n,
            bytes: std::mem::take(&mut self.queue_bytes) as u64,
        };
        self.in_flight = Some((frames, span));
        Ok(())
    }

    /// Read the echo of the batch in flight and compare it byte for byte
    /// with what was sent. Returns the frames, now verified (none when
    /// nothing was in flight).
    fn collect(&mut self, node: u32, log: &mut BatchLog) -> Result<Vec<Vec<u8>>, WireError> {
        let Some((sent, mut span)) = self.in_flight.take() else {
            return Ok(Vec::new());
        };
        let t0 = Instant::now();
        let what = match recv_ctrl(&mut self.link, node)? {
            CtrlMsg::Batch { n } if n as usize == sent.len() => {
                for (i, frame) in sent.iter().enumerate() {
                    if self.link.recv(node)? != *frame {
                        let what = format!("echo of frame {i} of {n} is not the frame sent");
                        return Err(WireError::BadReply { node, what });
                    }
                }
                span.dur_ns += t0.elapsed().as_nanos() as u64;
                log.verified.push(span);
                return Ok(sent);
            }
            CtrlMsg::Err { detail } => return Err(WireError::Rejected { node, detail }),
            CtrlMsg::Batch { n } => format!("returned {n} frames for a batch of {}", sent.len()),
            other => format!("unexpected control reply {other:?}"),
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
    /// No node admitted yet.
    pub fn new(geom: Geometry) -> Self {
        Coordinator {
            geom,
            peers: (0..geom.nprocs).map(|_| None).collect(),
            log: BatchLog {
                epoch: Instant::now(),
                verified: Vec::new(),
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
        link.send(vec![ack.to_bytes()], node)?;
        *slot = Some(Peer {
            link,
            queue: Vec::new(),
            queue_bytes: 0,
            in_flight: None,
        });
        Ok(node)
    }

    /// Has `node` completed its handshake (and not failed since)?
    pub fn is_connected(&self, node: usize) -> bool {
        self.peers.get(node).is_some_and(Option::is_some)
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

    /// Queue `frames` for `dst`, keeping them until their echo has been
    /// verified. A queue past [`FLUSH_WINDOW_BYTES`] flushes itself.
    pub fn post(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<(), WireError> {
        self.with_peer(dst, |peer, node, log| {
            peer.queue_bytes += frames.iter().map(Vec::len).sum::<usize>();
            peer.queue.extend(frames);
            if peer.queue_bytes < FLUSH_WINDOW_BYTES {
                return Ok(());
            }
            peer.flush(node, log)
        })
    }

    /// Write `dst`'s queue as one `Batch{n}`, once the echo of its
    /// previous batch has been collected.
    pub(crate) fn flush(&mut self, dst: usize) -> Result<(), WireError> {
        self.with_peer(dst, Peer::flush)
    }

    /// Read and verify the echo of `dst`'s batch in flight; returns its
    /// frames (none when nothing was in flight).
    pub(crate) fn collect(&mut self, dst: usize) -> Result<Vec<Vec<u8>>, WireError> {
        self.with_peer(dst, Peer::collect)
    }

    /// Flush every node, then collect every node: on return each frame
    /// posted so far has been echoed back byte for byte. Returns the
    /// batches verified since the previous `sync`.
    pub fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
        // A node that failed earlier has reported its error and is skipped.
        for dst in 0..self.peers.len() {
            if self.is_connected(dst) {
                self.flush(dst)?;
            }
        }
        for dst in 0..self.peers.len() {
            if self.is_connected(dst) {
                self.collect(dst)?;
            }
        }
        Ok(std::mem::take(&mut self.log.verified))
    }

    /// The blocking round trip, built from the split-phase steps: post,
    /// flush, collect — returning `frames` once their echo is verified.
    pub fn route(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, WireError> {
        let n = frames.len();
        if n == 0 {
            return Ok(frames);
        }
        self.post(dst, frames)?;
        self.flush(dst)?;
        // The batch may open with frames posted earlier.
        let mut batch = self.collect(dst)?;
        Ok(batch.split_off(batch.len() - n))
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
            if link.send(vec![CtrlMsg::Bye.to_bytes()], node).is_err() {
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
/// over a [`MemLink`]. Workers share *no* shard memory — each owns its
/// mirror and sees only owned byte buffers.
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
        Self::spawn(geom, DEFAULT_RECV_TIMEOUT, false, None)
    }

    /// One worker per node of `geom`; the coordinator's recvs give up
    /// after `timeout`, workers keep telemetry when `metrics`, and
    /// `fault` arms one node with a [`NodeFault`].
    pub fn spawn(
        geom: Geometry,
        timeout: Duration,
        metrics: bool,
        fault: Option<(u32, NodeFault)>,
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
        let mut nodes = Coordinator::new(geom);
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
    fn send(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<(), WireError> {
        self.nodes.post(dst, frames)
    }
    fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
        self.nodes.sync()
    }
    fn route(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, WireError> {
        self.nodes.route(dst, frames)
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
    use crate::wire::WireHeader;

    fn copy_frame(start_word: u64, words: Vec<u64>) -> Vec<u8> {
        WireMsg::Copy {
            hdr: WireHeader::for_blocks(0, 1, (3, 4), u32::MAX, 0, 1),
            start_word,
            words,
        }
        .to_bytes()
    }

    #[test]
    fn chan_transport_round_trips_rejects_and_keeps_books() {
        let mut t = ChanTransport::new(2);
        let frames = vec![copy_frame(5, vec![1, 2, 3]), copy_frame(0, vec![9])];
        let back = t.route(1, frames.clone()).unwrap();
        assert_eq!(back, frames, "scatter + gather + re-encode is the identity");
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
        peer.send(vec![hello.to_bytes()], 0).unwrap();
        let mut coord = Coordinator::new(geom);
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
        let cases: [(&str, Lie, Option<WireError>); 6] = [
            ("honest", |_| {}, None),
            (
                "bit flipped",
                |echo| *echo[2].last_mut().unwrap() ^= 1,
                None,
            ),
            // The frames behind a gap arrive one place early...
            ("dropped", |echo| drop(echo.remove(2)), None),
            // ... and behind the last frame there is only silence.
            (
                "last dropped",
                |echo| drop(echo.pop()),
                Some(WireError::Timeout(0)),
            ),
            ("duplicated", |echo| echo.insert(2, echo[1].clone()), None),
            ("swapped", |echo| echo.swap(2, 3), None),
        ];
        for (what, lie, want) in cases {
            let (mut coord, mut peer) = admitted_pair();
            coord.post(0, frames.clone()).unwrap();
            coord.flush(0).unwrap();
            let mut echo: Vec<Vec<u8>> = (0..=frames.len())
                .map(|_| peer.recv(0).expect("the batch as written"))
                .collect();
            assert_eq!(
                echo[1..],
                frames[..],
                "{what}: sent in order, after the marker"
            );
            lie(&mut echo);
            peer.send(echo, 0).unwrap();
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
            assert_eq!(coord.post(0, frames.clone()), Err(WireError::PeerGone(0)));
            assert_eq!(peer.recv(0), Err(WireError::PeerGone(0)), "{what}");
        }
    }

    /// The one-in-flight rule and the self-flushing window, seen from the
    /// far end: nothing is written below the window, a queue past it goes
    /// out as one batch, and the next batch is not written before the
    /// previous echo has been read.
    #[test]
    fn queues_flush_past_the_window_with_one_batch_in_flight() {
        let (mut coord, peer) = admitted_pair();
        let frame = copy_frame(0, vec![7; 16]);
        let per_window = FLUSH_WINDOW_BYTES.div_ceil(frame.len());
        for _ in 0..per_window - 1 {
            coord.post(0, vec![frame.clone()]).unwrap();
        }
        assert!(
            matches!(
                peer.rx.try_recv(),
                Err(std::sync::mpsc::TryRecvError::Empty)
            ),
            "below the window nothing is written"
        );
        coord.post(0, vec![frame.clone()]).unwrap();
        let batch = peer
            .rx
            .try_recv()
            .expect("the window's worth, as one batch");
        assert_eq!(batch.len(), 1 + per_window);
        // A second window's worth must wait for the first echo: with none
        // coming, the flush gives up at the deadline instead of writing.
        for _ in 0..per_window - 1 {
            coord.post(0, vec![frame.clone()]).unwrap();
        }
        assert_eq!(
            coord.post(0, vec![frame.clone()]),
            Err(WireError::Timeout(0))
        );
        assert!(peer.rx.try_recv().is_err(), "no second batch was written");
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
        let mut coord = Coordinator::new(geom);
        let (ours, mut first) = mem_pair(Duration::from_secs(5));
        first.send(vec![hello(1, WIRE_VERSION)], 0).unwrap();
        assert_eq!(coord.admit(ours), Ok(1));
        assert!(matches!(
            recv_ctrl(&mut first, 0),
            Ok(CtrlMsg::HelloAck { seg_words: 64, .. })
        ));
        for (opening, names) in cases {
            let (ours, mut peer) = mem_pair(Duration::from_secs(5));
            peer.send(vec![opening.clone()], 0).unwrap();
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
