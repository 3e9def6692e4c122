//! Socket-backed multi-process transport: the first time the repro
//! leaves one address space.
//!
//! [`SocketTransport`] carries the wire seam's [`WireTransport`] to real
//! OS processes: each node is a spawned `fgdsm-node` worker running the
//! one node runtime (`fgdsm_protocol::node`: worker loop, coordinator
//! conversation, fault model) over a socket [`Link`] — so data genuinely
//! round-trips through another process's memory, byte-identically. This
//! crate holds only what is socket- or process-specific: the link,
//! spawn/reap, the worker's command line and [`node_command`].
//!
//! Transport choice: [`SocketOpts::kind`] names a family; unset means TCP
//! over loopback, falling back to Unix-domain sockets when TCP binds are
//! forbidden. Frames travel length-prefixed
//! (`write_frame`/[`FrameDecoder`]), one `write` per flushed batch; a TCP
//! link runs with `TCP_NODELAY`, so the tail segment of a flush never
//! waits out Nagle against the peer's delayed ACK.
//!
//! Failure semantics: every recv carries a deadline
//! ([`SocketOpts::timeout`]); a closed connection is a typed
//! `WireError::PeerGone`, a silent one a typed `WireError::Timeout` — the
//! coordinator never hangs on a dead or stuck node. Transient `EINTR`s
//! are retried a bounded number of times.

#![forbid(unsafe_code)]

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fgdsm_protocol::node::{serve, Coordinator, Link, WireTransport};
pub use fgdsm_protocol::node::{Geometry as NetGeometry, NodeFault};
use fgdsm_protocol::wire::{
    write_frame, FrameDecoder, RemoteReport, WireError, DEFAULT_RECV_TIMEOUT,
};
use fgdsm_tempest::metrics::WireSpan;

/// Bounded retry budget for transient (`EINTR`) I/O errors.
const MAX_TRANSIENT_RETRIES: u32 = 100;
/// How long `finish` waits for a child to exit after `Bye` before
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
    Listener::bind(kind).is_ok()
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

/// What the link needs of a connected socket, whichever the family.
trait Sock: Read + Write {
    /// Make the socket a link: `deadline` on every read and write, and —
    /// where the family has Nagle's algorithm — no Nagle.
    fn configure(&self, deadline: Option<Duration>) -> io::Result<()>;
}

impl Sock for TcpStream {
    fn configure(&self, deadline: Option<Duration>) -> io::Result<()> {
        self.set_nodelay(true)?;
        self.set_read_timeout(deadline)?;
        self.set_write_timeout(deadline)
    }
}

#[cfg(unix)]
impl Sock for UnixStream {
    fn configure(&self, deadline: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(deadline)?;
        self.set_write_timeout(deadline)
    }
}

type Stream = Box<dyn Sock>;

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
            Listener::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as Stream),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Box::new(s) as Stream),
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
        return Ok(Box::new(TcpStream::connect(a)?));
    }
    #[cfg(unix)]
    if let Some(p) = addr.strip_prefix("uds:") {
        return Ok(Box::new(UnixStream::connect(p)?));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("bad coordinator address {addr:?} (want tcp:<addr> or uds:<path>)"),
    ))
}

// ----------------------------------------------------------------------
// The socket link: length-prefixed frames with typed failure mapping
// ----------------------------------------------------------------------

fn map_io(peer: u32, e: &io::Error) -> WireError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => WireError::Timeout(peer),
        _ => WireError::PeerGone(peer),
    }
}

/// Bytes asked of the socket per `read`.
const READ_CHUNK_BYTES: usize = 64 * 1024;
/// The send scratch keeps its capacity from one flush to the next up to
/// this size; a rarer, larger batch gives its buffer back.
const SCRATCH_KEEP_BYTES: usize = 4 * READ_CHUNK_BYTES;

/// One framed connection: the stream (whose read/write timeouts are the
/// link's deadline), its incremental reassembly state and the two
/// buffers every transfer reuses. Dropping it closes the socket.
struct SocketLink {
    stream: Stream,
    dec: FrameDecoder,
    /// Where `read` lands before the decoder takes it: allocated once per
    /// link, not zeroed once per `recv`.
    chunk: Vec<u8>,
    /// The length-prefixed bytes of the batch being sent.
    scratch: Vec<u8>,
    /// Fault injection ([`SocketOpts::corrupt_frame_len`]), one shot:
    /// overwrite the length prefix of the first data frame sent with an
    /// oversized value. The node's framing cap must reject it before
    /// allocating; the run fails loudly via the node's `Err` reply.
    corrupt_next_len: bool,
}

impl SocketLink {
    fn new(stream: Stream, corrupt_next_len: bool) -> Self {
        SocketLink {
            stream,
            dec: FrameDecoder::new(),
            chunk: vec![0; READ_CHUNK_BYTES],
            scratch: Vec::new(),
            corrupt_next_len,
        }
    }
}

impl Link for SocketLink {
    /// One buffer, one `write`: every frame behind its length prefix.
    fn send(&mut self, frames: Vec<Vec<u8>>, peer: u32) -> Result<(), WireError> {
        let out = &mut self.scratch;
        out.clear();
        out.reserve(frames.iter().map(|f| 4 + f.len()).sum());
        for f in &frames {
            write_frame(out, f);
        }
        if frames.len() > 1 && std::mem::take(&mut self.corrupt_next_len) {
            let at = 4 + frames[0].len();
            out[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let sent = self.stream.write_all(out).map_err(|e| map_io(peer, &e));
        if out.capacity() > SCRATCH_KEEP_BYTES {
            *out = Vec::new();
        }
        sent
    }

    /// Read the next complete frame. A 0-byte read (EOF) is
    /// [`WireError::PeerGone`]; a recv deadline hit is
    /// [`WireError::Timeout`]; an oversized length prefix surfaces as
    /// [`WireError::FrameTooBig`] before any allocation.
    fn recv(&mut self, peer: u32) -> Result<Vec<u8>, WireError> {
        let mut retries = 0u32;
        loop {
            if let Some(f) = self.dec.next_frame()? {
                return Ok(f);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(WireError::PeerGone(peer)),
                Ok(n) => self.dec.push(&self.chunk[..n]),
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

/// The spawned node processes. `std::process::Child` has no `Drop`, so
/// this one reaps: whichever way its owner goes away — a failed
/// [`SocketTransport::spawn`], teardown, a panic unwind — every child is
/// killed and waited for.
struct Children(Vec<Child>);

impl Children {
    fn reap(&mut self) {
        for mut child in self.0.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The `tcp` backend's transport: one spawned `fgdsm-node` process per
/// node, each running `fgdsm_protocol::node::serve` over a TCP-loopback
/// or Unix-domain socket link.
pub struct SocketTransport {
    kind: NetKind,
    nodes: Coordinator<SocketLink>,
    children: Children,
}

impl SocketTransport {
    /// Spawn `geom.nprocs` node processes, accept their connections and
    /// complete the `Hello`/`HelloAck` handshake. Fails (typed
    /// `io::Error`, every child already reaped) when the sandbox forbids
    /// sockets, the node binary cannot be found or started, a child dies
    /// before connecting, or a handshake goes wrong.
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

        // Owned from before the first child starts: any early return
        // below drops these, reaping every child and closing every link.
        let mut children = Children(Vec::with_capacity(geom.nprocs));
        let mut nodes = Coordinator::new(geom);
        for node in 0..geom.nprocs as u32 {
            let args = NodeArgs {
                node,
                addr: addr.clone(),
                timeout: opts.timeout,
                metrics: opts.metrics,
                fault: opts.node_fault.and_then(|(n, f)| (n == node).then_some(f)),
            };
            let mut cmd = node_command();
            cmd.args(args.to_argv())
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            children.0.push(cmd.spawn()?);
        }

        // Accept + handshake with a startup deadline. Generous: the
        // cargo-run fallback may have to build the node binary first.
        let deadline = Instant::now() + opts.timeout.max(Duration::from_secs(5)) * 12;
        let mut connected = 0usize;
        while connected < geom.nprocs {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{connected}/{} nodes connected before deadline",
                        geom.nprocs
                    ),
                ));
            }
            // A child that died before connecting fails startup early.
            for (i, child) in children.0.iter_mut().enumerate() {
                if !nodes.is_connected(i) {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(io::Error::other(format!(
                            "node {i} exited before connecting: {status}"
                        )));
                    }
                }
            }
            let Some(stream) = listener.try_accept()? else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            stream.configure(Some(opts.timeout))?;
            nodes
                .admit(SocketLink::new(stream, opts.corrupt_frame_len))
                .map_err(|e| io::Error::other(format!("handshake: {e}")))?;
            connected += 1;
        }
        Ok(SocketTransport {
            kind,
            nodes,
            children,
        })
    }

    /// Which socket family the transport settled on.
    pub fn net_kind(&self) -> NetKind {
        self.kind
    }
}

impl WireTransport for SocketTransport {
    fn name(&self) -> &'static str {
        "tcp"
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

    /// Orderly teardown: `Bye` to every live node, collect `ByeStats`,
    /// close the links, then give the children [`CHILD_EXIT_DEADLINE`] to
    /// exit on their own before killing the rest — a wedged node must
    /// not leak. Idempotent; also runs on `Drop`, including during a
    /// panic unwind.
    fn finish(&mut self) -> Vec<RemoteReport> {
        let reports = self.nodes.finish();
        let deadline = Instant::now() + CHILD_EXIT_DEADLINE;
        let running = |c: &mut Child| matches!(c.try_wait(), Ok(None));
        while self.children.0.iter_mut().any(running) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.children.reap();
        reports
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.finish();
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
// Node side: the worker process entry point
// ----------------------------------------------------------------------

fn fault_arg(fault: &NodeFault) -> String {
    match fault {
        NodeFault::ExitAfterBatches(n) => format!("exit:{n}"),
        NodeFault::WedgeAfterBatches(n) => format!("wedge:{n}"),
    }
}

fn parse_fault(s: &str) -> Option<NodeFault> {
    let (kind, n) = s.split_once(':')?;
    let n = n.parse().ok()?;
    match kind {
        "exit" => Some(NodeFault::ExitAfterBatches(n)),
        "wedge" => Some(NodeFault::WedgeAfterBatches(n)),
        _ => None,
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
        argv.extend(self.fault.as_ref().map(fault_arg));
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
                .map(|f| parse_fault(f).ok_or_else(|| format!("bad fault {f:?}")))
                .transpose()?,
        })
    }
}

/// Entry point for the `fgdsm-node` binary: parse the coordinator's
/// command line (the binary's arguments, program name excluded), connect
/// back to the coordinator and run `fgdsm_protocol::node::serve` over
/// the socket until `Bye` (or until the coordinator disappears).
pub fn serve_from_args(argv: &[String]) -> Result<(), String> {
    let args = NodeArgs::parse(argv)?;
    let addr = args.addr.as_str();
    let stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Idle deadline: generous (the coordinator computes between
    // supersteps), but bounded so an orphaned node never outlives a
    // coordinator killed without cleanup.
    let idle = args.timeout.max(Duration::from_secs(6)) * 10;
    stream
        .configure(Some(idle))
        .map_err(|e| format!("configure socket: {e}"))?;
    let link = SocketLink::new(stream, false);
    serve(link, args.node, args.metrics, args.fault).map_err(|e| e.to_string())
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
