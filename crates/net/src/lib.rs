//! Socket-backed multi-process transport: the first time the repro
//! leaves one address space.
//!
//! [`SocketTransport`] implements the wire seam's
//! [`WireTransport`] over real OS processes: each node is a spawned
//! `fgdsm-node` worker that owns a mirror of its shard address space,
//! decodes every [`WireMsg`] with the paranoid decoder, scatters the
//! payload into its local store (`WireMsg::scatter`, bounds-checked
//! against the handshake's segment), and replies with the same envelope
//! re-gathered *from that store* — so data genuinely round-trips through
//! another process's memory, byte-identically.
//!
//! Transport choice: [`SocketOpts::kind`] names a family; unset means TCP
//! over loopback, falling back to Unix-domain sockets when TCP binds are
//! forbidden. All conversation runs over
//! the length-prefixed framing layer (`write_frame`/[`FrameDecoder`])
//! with [`CtrlMsg`] control frames for handshake
//! (`Hello`/`HelloAck` with shard geometry), batch markers, and orderly
//! teardown (`Bye`/`ByeStats`).
//!
//! Failure semantics: every recv carries a deadline
//! ([`SocketOpts::timeout`]); a closed
//! connection is a typed `WireError::PeerGone`, a silent one a typed
//! `WireError::Timeout` — the coordinator never hangs on a dead or stuck
//! node. Transient `EINTR`s are retried a bounded number of times. A
//! frame the node *rejects* (decode failure, oversized length prefix,
//! addresses outside the segment) comes back as a `CtrlMsg::Err` and
//! fails the run loudly.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fgdsm_protocol::wire::{
    write_frame, CtrlMsg, FrameDecoder, RemoteReport, WireError, WireMsg, WireTransport,
    DEFAULT_RECV_TIMEOUT, WIRE_VERSION,
};
use fgdsm_tempest::metrics::{self, MetricsRegistry};

/// Bounded retry budget for transient (`EINTR`) I/O errors.
const MAX_TRANSIENT_RETRIES: u32 = 100;
/// How long `shutdown` waits for a child to exit after `Bye` before
/// killing it.
const CHILD_EXIT_DEADLINE: Duration = Duration::from_secs(3);

// ----------------------------------------------------------------------
// Transport selection and probing
// ----------------------------------------------------------------------

/// Which socket family carries the frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    /// TCP over 127.0.0.1.
    Tcp,
    /// Unix-domain sockets (where the platform has them).
    Uds,
}

/// Can this process bind a socket of `kind`? (Sandboxes may forbid one
/// or both families.)
pub fn probe(kind: NetKind) -> bool {
    match kind {
        NetKind::Tcp => TcpListener::bind(("127.0.0.1", 0)).is_ok(),
        #[cfg(unix)]
        NetKind::Uds => {
            let path = fresh_uds_path();
            let ok = UnixListener::bind(&path).is_ok();
            let _ = std::fs::remove_file(&path);
            ok
        }
        #[cfg(not(unix))]
        NetKind::Uds => false,
    }
}

/// The socket family the sandbox allows: TCP, falling back to UDS.
/// `None` when it forbids sockets entirely — callers skip with a notice.
pub fn available_kind() -> Option<NetKind> {
    [NetKind::Tcp, NetKind::Uds].into_iter().find(|&k| probe(k))
}

fn fresh_uds_path() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fgdsm-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

// ----------------------------------------------------------------------
// Streams and listeners (TCP / UDS unified)
// ----------------------------------------------------------------------

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn set_timeouts(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.write_all(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_all(buf),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(kind: NetKind) -> io::Result<Listener> {
        match kind {
            NetKind::Tcp => Ok(Listener::Tcp(TcpListener::bind(("127.0.0.1", 0))?)),
            #[cfg(unix)]
            NetKind::Uds => {
                let path = fresh_uds_path();
                Ok(Listener::Unix(UnixListener::bind(&path)?, path))
            }
            #[cfg(not(unix))]
            NetKind::Uds => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets unavailable on this platform",
            )),
        }
    }

    /// The address string handed to children on their command line.
    fn addr_string(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(format!("tcp:{}", l.local_addr()?)),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(format!("uds:{}", path.display())),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    fn try_accept(&self) -> io::Result<Option<Stream>> {
        let r = match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match r {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn connect(addr: &str) -> io::Result<Stream> {
    if let Some(a) = addr.strip_prefix("tcp:") {
        return Ok(Stream::Tcp(TcpStream::connect(a)?));
    }
    #[cfg(unix)]
    if let Some(p) = addr.strip_prefix("uds:") {
        return Ok(Stream::Unix(UnixStream::connect(p)?));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("bad coordinator address {addr:?} (want tcp:<addr> or uds:<path>)"),
    ))
}

// ----------------------------------------------------------------------
// Framed I/O with typed failure mapping
// ----------------------------------------------------------------------

fn map_io(peer: u32, e: &io::Error) -> WireError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => WireError::Timeout(peer),
        _ => WireError::PeerGone(peer),
    }
}

/// One framed connection: the stream plus its incremental reassembly
/// state.
struct Link {
    stream: Stream,
    dec: FrameDecoder,
}

impl Link {
    fn new(stream: Stream) -> Self {
        Link {
            stream,
            dec: FrameDecoder::new(),
        }
    }

    fn send(&mut self, bytes: &[u8], peer: u32) -> Result<(), WireError> {
        self.stream
            .write_all_bytes(bytes)
            .map_err(|e| map_io(peer, &e))
    }

    /// Read the next complete frame. A 0-byte read (EOF) is
    /// [`WireError::PeerGone`]; a recv deadline hit is
    /// [`WireError::Timeout`]; an oversized length prefix surfaces as
    /// [`WireError::FrameTooBig`] before any allocation.
    fn recv_frame(&mut self, peer: u32) -> Result<Vec<u8>, WireError> {
        let mut retries = 0u32;
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(f) = self.dec.next_frame()? {
                return Ok(f);
            }
            match self.stream.read_some(&mut buf) {
                Ok(0) => return Err(WireError::PeerGone(peer)),
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    retries += 1;
                    if retries > MAX_TRANSIENT_RETRIES {
                        return Err(WireError::PeerGone(peer));
                    }
                }
                Err(e) => return Err(map_io(peer, &e)),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Coordinator side: SocketTransport
// ----------------------------------------------------------------------

/// Shard geometry shipped to every node in `HelloAck`, sizing its
/// mirror store.
#[derive(Clone, Copy, Debug)]
pub struct NetGeometry {
    pub nprocs: usize,
    /// Words per coherence block.
    pub wpb: u32,
    /// Segment size in words (every node's window spans the segment).
    pub seg_words: u64,
}

/// A deliberate node-process misbehavior, armed on one child through
/// its command line — the fault-tolerance tests' way of killing or
/// wedging a node mid-superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// Exit cleanly (EOF on the coordinator's next read) after serving
    /// this many batches.
    ExitAfterBatches(u32),
    /// Stop replying (coordinator recv deadline fires) after serving
    /// this many batches.
    WedgeAfterBatches(u32),
}

impl NodeFault {
    fn arg_str(&self) -> String {
        match self {
            NodeFault::ExitAfterBatches(n) => format!("exit:{n}"),
            NodeFault::WedgeAfterBatches(n) => format!("wedge:{n}"),
        }
    }

    fn parse(s: &str) -> Option<NodeFault> {
        let (kind, n) = s.split_once(':')?;
        let n = n.parse().ok()?;
        match kind {
            "exit" => Some(NodeFault::ExitAfterBatches(n)),
            "wedge" => Some(NodeFault::WedgeAfterBatches(n)),
            _ => None,
        }
    }
}

/// Options for [`SocketTransport::spawn`].
#[derive(Clone, Debug)]
pub struct SocketOpts {
    /// Socket family; `None` means TCP, falling back to UDS where TCP
    /// binds are forbidden ([`available_kind`]).
    pub kind: Option<NetKind>,
    /// Per-recv deadline (default [`DEFAULT_RECV_TIMEOUT`]).
    pub timeout: Duration,
    /// Fault injection: corrupt the length prefix of the first routed
    /// data frame to an oversized value — the node must reject it via
    /// the framing cap, never allocate for it.
    pub corrupt_frame_len: bool,
    /// Fault injection: arm one node with a [`NodeFault`].
    pub node_fault: Option<(u32, NodeFault)>,
    /// Enable wall-clock telemetry in the workers: a metrics-enabled
    /// node ships its registry home inside `ByeStats`.
    pub metrics: bool,
}

impl Default for SocketOpts {
    fn default() -> Self {
        SocketOpts {
            kind: None,
            timeout: DEFAULT_RECV_TIMEOUT,
            corrupt_frame_len: false,
            node_fault: None,
            metrics: false,
        }
    }
}

/// The `tcp` backend's transport: one spawned `fgdsm-node` process per
/// node, linked over TCP loopback or Unix-domain sockets.
pub struct SocketTransport {
    kind: NetKind,
    links: Vec<Option<Link>>,
    children: Vec<Option<Child>>,
    corrupt_len_pending: bool,
    /// Per-node teardown reports (counters + optional metrics blob),
    /// drained by [`WireTransport::finish`].
    reports: Vec<RemoteReport>,
}

impl SocketTransport {
    /// Spawn `geom.nprocs` node processes, accept their connections and
    /// complete the `Hello`/`HelloAck` handshake. Fails (typed
    /// `io::Error`) when the sandbox forbids sockets, the node binary
    /// cannot be found or started, or a child dies before connecting.
    pub fn spawn(geom: NetGeometry, opts: SocketOpts) -> io::Result<SocketTransport> {
        let kind = opts.kind.or_else(available_kind).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "sandbox forbids sockets (TCP and UDS binds both failed)",
            )
        })?;
        let listener = Listener::bind(kind)?;
        let addr = listener.addr_string()?;
        listener.set_nonblocking(true)?;

        let mut children: Vec<Option<Child>> = Vec::with_capacity(geom.nprocs);
        for node in 0..geom.nprocs {
            let args = NodeArgs {
                node: node as u32,
                addr: addr.clone(),
                timeout: opts.timeout,
                metrics: opts.metrics,
                fault: opts
                    .node_fault
                    .and_then(|(n, fault)| (n == node as u32).then_some(fault)),
            };
            let mut cmd = node_command();
            cmd.args(args.to_argv())
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            children.push(Some(cmd.spawn()?));
        }

        // Accept + handshake with a startup deadline. Generous: the
        // cargo-run fallback may have to build the node binary first.
        let deadline = Instant::now() + opts.timeout.max(Duration::from_secs(5)) * 12;
        let mut links: Vec<Option<Link>> = (0..geom.nprocs).map(|_| None).collect();
        let mut connected = 0usize;
        while connected < geom.nprocs {
            if Instant::now() > deadline {
                kill_children(&mut children);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{connected}/{} nodes connected before deadline",
                        geom.nprocs
                    ),
                ));
            }
            // A child that died before connecting fails startup early.
            for (i, c) in children.iter_mut().enumerate() {
                if let Some(child) = c.as_mut() {
                    if links[i].is_none() {
                        if let Ok(Some(status)) = child.try_wait() {
                            kill_children(&mut children);
                            return Err(io::Error::other(format!(
                                "node {i} exited before connecting: {status}"
                            )));
                        }
                    }
                }
            }
            let Some(stream) = listener.try_accept()? else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            stream.set_timeouts(Some(opts.timeout))?;
            let mut link = Link::new(stream);
            let hello = link
                .recv_frame(u32::MAX)
                .map_err(|e| io::Error::other(format!("handshake recv: {e}")))?;
            let node = match CtrlMsg::from_bytes(&hello) {
                Ok(CtrlMsg::Hello { node, version }) if version == WIRE_VERSION => node as usize,
                Ok(other) => {
                    return Err(io::Error::other(format!(
                        "handshake: expected Hello, got {other:?}"
                    )))
                }
                Err(e) => return Err(io::Error::other(format!("handshake decode: {e}"))),
            };
            if node >= geom.nprocs || links[node].is_some() {
                return Err(io::Error::other(format!("handshake: bad node id {node}")));
            }
            let ack = CtrlMsg::HelloAck {
                nprocs: geom.nprocs as u32,
                wpb: geom.wpb,
                seg_words: geom.seg_words,
            };
            let mut out = Vec::new();
            write_frame(&mut out, &ack.to_bytes());
            link.send(&out, node as u32)
                .map_err(|e| io::Error::other(format!("handshake ack: {e}")))?;
            links[node] = Some(link);
            connected += 1;
        }

        Ok(SocketTransport {
            kind,
            links,
            children,
            corrupt_len_pending: opts.corrupt_frame_len,
            reports: Vec::new(),
        })
    }

    /// Which socket family the transport settled on.
    pub fn net_kind(&self) -> NetKind {
        self.kind
    }

    /// Orderly teardown: `Bye` to every live node, collect `ByeStats`,
    /// close the links, then wait for the children (killing any that
    /// outlive [`CHILD_EXIT_DEADLINE`] — a wedged node must not leak).
    /// Idempotent; also runs on `Drop`, including during a panic unwind,
    /// where errors are swallowed so teardown never masks the original
    /// failure.
    pub fn shutdown(&mut self) {
        let mut bye = Vec::new();
        write_frame(&mut bye, &CtrlMsg::Bye.to_bytes());
        for (i, slot) in self.links.iter_mut().enumerate() {
            let Some(mut link) = slot.take() else {
                continue;
            };
            if link.send(&bye, i as u32).is_ok() {
                if let Ok(frame) = link.recv_frame(i as u32) {
                    if let Ok(CtrlMsg::ByeStats {
                        frames,
                        payload_bytes,
                        metrics,
                    }) = CtrlMsg::from_bytes(&frame)
                    {
                        self.reports.push(RemoteReport {
                            node: i as u32,
                            frames,
                            payload_bytes,
                            metrics,
                        });
                    }
                }
            }
            link.stream.shutdown();
        }
        let deadline = Instant::now() + CHILD_EXIT_DEADLINE;
        loop {
            let mut alive = false;
            for c in self.children.iter_mut() {
                if let Some(child) = c.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => *c = None,
                        Ok(None) => alive = true,
                        Err(_) => *c = None,
                    }
                }
            }
            if !alive || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        kill_children(&mut self.children);
    }
}

fn kill_children(children: &mut [Option<Child>]) {
    for c in children.iter_mut() {
        if let Some(child) = c.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        *c = None;
    }
}

impl WireTransport for SocketTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn route(&mut self, dst: usize, frames: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, WireError> {
        if frames.is_empty() {
            return Ok(frames);
        }
        let peer = dst as u32;
        let link = self
            .links
            .get_mut(dst)
            .and_then(Option::as_mut)
            .ok_or(WireError::PeerGone(peer))?;
        let n = frames.len() as u32;
        let mut out = Vec::new();
        write_frame(&mut out, &CtrlMsg::Batch { n }.to_bytes());
        let first_data_prefix = out.len();
        for f in &frames {
            write_frame(&mut out, f);
        }
        if self.corrupt_len_pending {
            // One-shot injection: an oversized length prefix on the first
            // data frame. The node's framing cap must reject it before
            // allocating; the run fails loudly via the Err reply below.
            self.corrupt_len_pending = false;
            out[first_data_prefix..first_data_prefix + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        link.send(&out, peer)?;

        let ctrl_frame = link.recv_frame(peer)?;
        let reply = match CtrlMsg::from_bytes(&ctrl_frame) {
            Ok(m) => m,
            Err(e) => panic!("wire: bad control frame from node {dst}: {e}"),
        };
        match reply {
            CtrlMsg::Batch { n: rn } => {
                if rn != n {
                    panic!("wire: node {dst} returned {rn} frames for a batch of {n}");
                }
                let mut back = Vec::with_capacity(rn as usize);
                for _ in 0..rn {
                    back.push(link.recv_frame(peer)?);
                }
                Ok(back)
            }
            CtrlMsg::Err { detail } => {
                self.links[dst] = None;
                panic!("wire: envelope decode failed in transit: {detail}");
            }
            other => panic!("wire: node {dst}: unexpected control reply {other:?}"),
        }
    }

    /// Orderly teardown, then hand the per-node `ByeStats` reports to
    /// the wire seam for double-entry reconciliation and metric merging.
    fn finish(&mut self) -> Vec<RemoteReport> {
        self.shutdown();
        std::mem::take(&mut self.reports)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ----------------------------------------------------------------------
// Node-binary discovery
// ----------------------------------------------------------------------

/// A `Command` that starts the `fgdsm-node` worker: `FGDSM_NODE_BIN`
/// override, else the binary next to the running test/bench executable
/// (`target/<profile>/fgdsm-node`), else `cargo run -p fgdsm --bin
/// fgdsm-node` as a last resort.
pub fn node_command() -> Command {
    if let Ok(p) = std::env::var("FGDSM_NODE_BIN") {
        return Command::new(p);
    }
    if let Some(p) = find_node_bin() {
        return Command::new(p);
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args(["run", "--quiet", "-p", "fgdsm", "--bin", "fgdsm-node", "--"]);
    cmd
}

fn find_node_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join(format!("fgdsm-node{}", std::env::consts::EXE_SUFFIX));
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

// ----------------------------------------------------------------------
// Node side: the worker process serve loop
// ----------------------------------------------------------------------

/// The `fgdsm-node` worker loop: connect back to the coordinator,
/// introduce ourselves, then serve batches until `Bye` (or the
/// coordinator disappears). Each envelope is scattered into the node's
/// mirror of the segment and its payload re-gathered *from the mirror*
/// before it is echoed — what the coordinator gets back is what this
/// process's memory now holds, not the bytes it sent. The mirror is
/// exactly the `HelloAck` segment and never grows: a frame the decoder
/// rejects, or one naming memory outside the segment, is reported as a
/// `CtrlMsg::Err` before exiting — the coordinator turns it into a loud
/// run failure.
fn serve(args: &NodeArgs) -> Result<(), String> {
    let (node, addr, fault) = (args.node, args.addr.as_str(), args.fault);
    let stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Idle deadline: generous (the coordinator computes between
    // supersteps), but bounded so an orphaned node never outlives a
    // coordinator killed without cleanup.
    let idle = args.timeout.max(Duration::from_secs(6)) * 10;
    stream
        .set_timeouts(Some(idle))
        .map_err(|e| format!("set timeouts: {e}"))?;
    let mut link = Link::new(stream);

    let mut hello = Vec::new();
    write_frame(
        &mut hello,
        &CtrlMsg::Hello {
            node,
            version: WIRE_VERSION,
        }
        .to_bytes(),
    );
    link.send(&hello, node).map_err(|e| format!("hello: {e}"))?;
    let ack = link
        .recv_frame(node)
        .map_err(|e| format!("hello ack: {e}"))?;
    let (wpb, seg_words) = match CtrlMsg::from_bytes(&ack) {
        Ok(CtrlMsg::HelloAck { wpb, seg_words, .. }) => (wpb as usize, seg_words as usize),
        Ok(other) => return Err(format!("expected HelloAck, got {other:?}")),
        Err(e) => return Err(format!("hello ack decode: {e}")),
    };

    let mut mirror = vec![0u64; seg_words];
    let mut enc = Vec::new();
    let mut frames_served = 0u64;
    let mut payload_bytes = 0u64;
    let mut batches = 0u32;
    // Wall-clock telemetry, on only when the coordinator asked this
    // child for it: per-class recv (frame in hand →
    // decoded), apply (payload → mirror), and re-encode histograms plus
    // the double-entry frame/payload counters, shipped home in ByeStats.
    let mut reg: Option<MetricsRegistry> = args.metrics.then(MetricsRegistry::new);

    let send_err = |link: &mut Link, detail: String| {
        let mut out = Vec::new();
        write_frame(&mut out, &CtrlMsg::Err { detail }.to_bytes());
        let _ = link.send(&out, node);
    };

    loop {
        let ctrl_frame = match link.recv_frame(node) {
            Ok(f) => f,
            // Coordinator gone or idle too long: exit quietly, we are
            // the orphan-prevention backstop, not the error reporter.
            Err(_) => return Ok(()),
        };
        let ctrl = match CtrlMsg::from_bytes(&ctrl_frame) {
            Ok(c) => c,
            Err(e) => {
                send_err(&mut link, format!("node {node}: bad control frame: {e}"));
                return Err(format!("bad control frame: {e}"));
            }
        };
        match ctrl {
            CtrlMsg::Batch { n } => {
                batches += 1;
                match fault {
                    Some(NodeFault::ExitAfterBatches(k)) if batches > k => {
                        // Simulated crash: vanish mid-superstep (EOF).
                        std::process::exit(0);
                    }
                    Some(NodeFault::WedgeAfterBatches(k)) if batches > k => {
                        // Simulated hang: stop replying; the coordinator's
                        // recv deadline must fire. Bounded so the process
                        // cannot leak past the run.
                        std::thread::sleep(Duration::from_secs(600));
                        std::process::exit(0);
                    }
                    _ => {}
                }
                let mut reply = Vec::new();
                write_frame(&mut reply, &CtrlMsg::Batch { n }.to_bytes());
                for _ in 0..n {
                    let frame = match link.recv_frame(node) {
                        Ok(f) => f,
                        Err(e @ WireError::FrameTooBig(_)) => {
                            send_err(&mut link, format!("node {node}: {e}"));
                            return Err(e.to_string());
                        }
                        Err(_) => return Ok(()),
                    };
                    let t_recv = reg.as_ref().map(|_| Instant::now());
                    let mut reject = |e: WireError| {
                        send_err(&mut link, format!("node {node}: {e}"));
                        Err(e.to_string())
                    };
                    let mut msg = match WireMsg::from_bytes(&frame) {
                        Ok(m) => m,
                        Err(e) => return reject(e),
                    };
                    let class = metrics::class_name(msg.kind());
                    if let (Some(reg), Some(t0)) = (reg.as_mut(), t_recv) {
                        reg.record_ns(&format!("recv.{class}"), t0.elapsed().as_nanos() as u64);
                        reg.counter_add(&format!("frames.{class}"), 1);
                        reg.counter_add(&format!("payload_bytes.{class}"), msg.payload_bytes());
                    }
                    let t_apply = reg.as_ref().map(|_| Instant::now());
                    if let Err(e) = msg.scatter(&mut mirror, wpb) {
                        return reject(e);
                    }
                    if let (Some(reg), Some(t0)) = (reg.as_mut(), t_apply) {
                        reg.record_ns(&format!("apply.{class}"), t0.elapsed().as_nanos() as u64);
                    }
                    let t_re = reg.as_ref().map(|_| Instant::now());
                    if let Err(e) = msg.gather(&mirror, wpb) {
                        return reject(e);
                    }
                    frames_served += 1;
                    payload_bytes += msg.payload_bytes();
                    msg.encode(&mut enc);
                    write_frame(&mut reply, &enc);
                    if let (Some(reg), Some(t0)) = (reg.as_mut(), t_re) {
                        reg.record_ns(&format!("reencode.{class}"), t0.elapsed().as_nanos() as u64);
                    }
                }
                if link.send(&reply, node).is_err() {
                    return Ok(());
                }
            }
            CtrlMsg::Bye => {
                let mut out = Vec::new();
                write_frame(
                    &mut out,
                    &CtrlMsg::ByeStats {
                        frames: frames_served,
                        payload_bytes,
                        metrics: reg.take().map(|r| r.to_bytes()).unwrap_or_default(),
                    }
                    .to_bytes(),
                );
                let _ = link.send(&out, node);
                return Ok(());
            }
            other => {
                send_err(&mut link, format!("node {node}: unexpected {other:?}"));
                return Err(format!("unexpected control frame {other:?}"));
            }
        }
    }
}

/// What the coordinator tells a worker, as the `fgdsm-node` command
/// line: `<node> <addr> <recv-timeout-ms> <metrics 0|1> [<fault>]`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct NodeArgs {
    node: u32,
    addr: String,
    timeout: Duration,
    metrics: bool,
    fault: Option<NodeFault>,
}

impl NodeArgs {
    fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![
            self.node.to_string(),
            self.addr.clone(),
            self.timeout.as_millis().to_string(),
            u8::from(self.metrics).to_string(),
        ];
        argv.extend(self.fault.map(|f| f.arg_str()));
        argv
    }

    fn parse(argv: &[String]) -> Result<NodeArgs, String> {
        let usage = "usage: fgdsm-node <node> <addr> <recv-timeout-ms> <metrics 0|1> [<fault>]";
        let (node, addr, ms, metrics, fault) = match argv {
            [node, addr, ms, metrics] => (node, addr, ms, metrics, None),
            [node, addr, ms, metrics, fault] => (node, addr, ms, metrics, Some(fault)),
            _ => return Err(usage.into()),
        };
        Ok(NodeArgs {
            node: node.parse().map_err(|e| format!("node id {node:?}: {e}"))?,
            addr: addr.clone(),
            timeout: Duration::from_millis(
                ms.parse()
                    .map_err(|e| format!("recv timeout {ms:?}: {e}"))?,
            ),
            metrics: match metrics.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("metrics flag {other:?}: want 0 or 1")),
            },
            fault: fault
                .map(|f| NodeFault::parse(f).ok_or_else(|| format!("bad fault {f:?}")))
                .transpose()?,
        })
    }
}

/// Entry point for the `fgdsm-node` binary: parse the coordinator's
/// command line (the binary's arguments, program name excluded) and
/// serve until `Bye`.
pub fn serve_from_args(argv: &[String]) -> Result<(), String> {
    serve(&NodeArgs::parse(argv)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_command_line_round_trips_and_rejects_garbage() {
        for fault in [
            None,
            Some(NodeFault::ExitAfterBatches(3)),
            Some(NodeFault::WedgeAfterBatches(0)),
        ] {
            let args = NodeArgs {
                node: 5,
                addr: "tcp:127.0.0.1:4000".into(),
                timeout: Duration::from_millis(500),
                metrics: fault.is_some(),
                fault,
            };
            assert_eq!(NodeArgs::parse(&args.to_argv()), Ok(args));
        }
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in [
            &["1", "tcp:x"][..],
            &["one", "tcp:x", "500", "0"],
            &["1", "tcp:x", "soon", "0"],
            &["1", "tcp:x", "500", "yes"],
            &["1", "tcp:x", "500", "0", "garbage"],
        ] {
            assert!(NodeArgs::parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
