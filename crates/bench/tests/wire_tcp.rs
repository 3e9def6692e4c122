//! What only the socket-backed `tcp` carrier can prove (the accounting
//! and byte-identity invariants it shares with `chan` are checked for
//! both carriers in `wire_chan.rs`):
//!
//! * the *nodes'* own counters reconcile with the coordinator's across
//!   address spaces: each worker process reports its served frame and
//!   payload totals in `ByeStats` at orderly teardown, over TCP and over
//!   Unix-domain sockets, and the sums match what the coordinator routed;
//! * a worker process does not trust the peer's addresses;
//! * streaming far more than a socket buffer toward one node, with no
//!   `sync` in between, cannot deadlock.
//!
//! Every test skips with a notice when the sandbox forbids sockets.

use fgdsm_hpf::tcp_available;
use fgdsm_net::{NetGeometry, NetKind, SocketOpts, SocketTransport};
use fgdsm_protocol::wire::WireHeader;
use fgdsm_protocol::{WireError, WireMsg, WireTransport};

/// Double-entry bookkeeping across address spaces: drive a transport
/// directly, count what the coordinator routes, and check the workers'
/// `ByeStats` totals agree frame for frame and byte for byte — while
/// every reply round-trips as the identity.
fn assert_bye_stats_reconcile(opts: SocketOpts) {
    let geom = NetGeometry {
        nprocs: 3,
        wpb: 4,
        seg_words: 64,
    };
    let want_kind = opts.kind;
    let mut t = SocketTransport::spawn(geom, opts).expect("the probe said these sockets work");
    if let Some(kind) = want_kind {
        assert_eq!(t.net_kind(), kind, "the requested family must be honoured");
    }
    let msgs_for = |dst: usize| {
        vec![
            WireMsg::Push {
                hdr: WireHeader::for_blocks(0, dst, (0, 0), 7, 2, 2),
                start_block: 2,
                n_blocks: 2,
                words: vec![11, 22, 33, 44],
            },
            WireMsg::Diff {
                hdr: WireHeader::for_blocks(0, dst, (0, 1), 7, 3, 1),
                block: 3,
                mask: 0b1011,
                words: vec![9, 8, 7],
            },
        ]
    };
    let (mut sent_frames, mut sent_payload) = (0u64, 0u64);
    // Two batches per node so the per-node serve loop iterates.
    for _ in 0..2 {
        for dst in 1..geom.nprocs {
            let msgs = msgs_for(dst);
            let frames: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_bytes()).collect();
            sent_frames += frames.len() as u64;
            sent_payload += msgs.iter().map(|m| m.payload_bytes()).sum::<u64>();
            let back = t.route(dst, frames.clone()).expect("clean route");
            assert_eq!(back, frames, "apply + re-encode must be the identity");
        }
    }
    let reports = t.finish();
    assert_eq!(
        reports.len(),
        geom.nprocs,
        "every worker must report ByeStats at orderly teardown \
         (node 0 served nothing but still reports)"
    );
    assert_eq!(
        reports
            .iter()
            .fold((0, 0), |(f, p), r| (f + r.frames, p + r.payload_bytes)),
        (sent_frames, sent_payload),
        "workers' served totals must reconcile with the coordinator's routed totals"
    );
}

#[test]
fn remote_bye_stats_reconcile_with_coordinator_counts() {
    if !tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; skipping remote_bye_stats_reconcile_with_coordinator_counts"
        );
        return;
    }
    assert_bye_stats_reconcile(SocketOpts::default());
}

/// The same conversation over the Unix-domain carrier, named explicitly —
/// so the UDS path runs on every CI, not only where TCP is forbidden.
#[cfg(unix)]
#[test]
fn unix_domain_carrier_routes_and_reconciles() {
    if !fgdsm_net::probe(NetKind::Uds) {
        eprintln!(
            "notice: sandbox forbids Unix-socket binds; skipping unix_domain_carrier_routes_and_reconciles"
        );
        return;
    }
    assert_bye_stats_reconcile(SocketOpts {
        kind: Some(NetKind::Uds),
        ..SocketOpts::default()
    });
}

/// The worker mirror does not trust the peer's addresses: a well-formed
/// one-word `Copy` frame at word `1 << 40` (an 8 TiB mirror, had the
/// worker grown to fit it) must come back as the worker's typed
/// rejection — a typed `WireError::Rejected` at the coordinator within
/// the recv deadline, not a hang, a dead peer, or an allocation past the
/// handshake's segment.
#[test]
fn hostile_addresses_fail_loudly_at_the_coordinator() {
    if !tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; skipping hostile_addresses_fail_loudly_at_the_coordinator"
        );
        return;
    }
    let geom = NetGeometry {
        nprocs: 2,
        wpb: 4,
        seg_words: 64,
    };
    let opts = SocketOpts {
        timeout: std::time::Duration::from_secs(5),
        ..SocketOpts::default()
    };
    let mut t = SocketTransport::spawn(geom, opts).expect("tcp_available said sockets work");
    let hostile = WireMsg::Copy {
        hdr: WireHeader::for_blocks(0, 1, (0, 0), u32::MAX, 0, 1),
        start_word: 1 << 40,
        words: vec![42],
    };
    let t0 = std::time::Instant::now();
    let outcome = t.route(1, vec![hostile.to_bytes()]);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "the rejection must arrive before the recv deadline"
    );
    match outcome {
        Err(WireError::Rejected { node: 1, detail }) => assert!(
            detail.contains("out of segment"),
            "want the worker's own account of the rejection, got: {detail}"
        ),
        other => panic!("want node 1's typed rejection, got {other:?}"),
    }
    // The other worker is untouched and still serves.
    let fine = WireMsg::Copy {
        hdr: WireHeader::for_blocks(1, 0, (0, 0), u32::MAX, 15, 1),
        start_word: 63,
        words: vec![42],
    };
    let frames = vec![fine.to_bytes()];
    assert_eq!(t.route(0, frames.clone()).expect("clean route"), frames);
}

/// Split-phase delivery keeps one batch in flight per node, so only one
/// side of a link writes at a time whatever the volume: 16 MiB sent
/// toward one node in half-MiB calls (each far past the flush window and
/// any socket buffer) with no `sync` in between, then one `sync` — done
/// well inside the recv deadline, every frame echoed and verified, the
/// node's book equal to what was sent. Over TCP and over Unix sockets.
#[test]
fn streaming_past_every_socket_buffer_does_not_deadlock() {
    let kinds: Vec<NetKind> = [NetKind::Tcp, NetKind::Uds]
        .into_iter()
        .filter(|&k| fgdsm_net::probe(k))
        .collect();
    if kinds.is_empty() {
        eprintln!("notice: sandbox forbids sockets; skipping the no-deadlock streaming test");
    }
    const WORDS: usize = 1024; // 8 KiB of payload per frame
    const FRAMES: usize = 2048;
    const PER_SEND: usize = 64;
    for kind in kinds {
        let geom = NetGeometry {
            nprocs: 2,
            wpb: 4,
            seg_words: WORDS as u64,
        };
        let opts = SocketOpts {
            kind: Some(kind),
            ..SocketOpts::default()
        };
        let deadline = opts.timeout;
        let mut t = SocketTransport::spawn(geom, opts).expect("the probe said these sockets work");
        let frame = WireMsg::Push {
            hdr: WireHeader::for_blocks(0, 1, (0, 0), 7, 0, WORDS / 4),
            start_block: 0,
            n_blocks: (WORDS / 4) as u32,
            words: (0..WORDS as u64).collect(),
        }
        .to_bytes();
        assert!(FRAMES * frame.len() >= 16 << 20);
        let t0 = std::time::Instant::now();
        for _ in 0..FRAMES / PER_SEND {
            t.send(1, vec![frame.clone(); PER_SEND])
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
        let spans = t.sync().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(
            t0.elapsed() < deadline,
            "{kind:?}: took {:?}, past the recv deadline",
            t0.elapsed()
        );
        assert_eq!(
            spans.len(),
            FRAMES / PER_SEND,
            "{kind:?}: one batch per send"
        );
        assert!(spans
            .iter()
            .all(|s| s.dst == 1 && s.frames as usize == PER_SEND));
        let reports = t.finish();
        let node1 = reports
            .iter()
            .find(|r| r.node == 1)
            .expect("node 1 reports");
        assert_eq!(
            (node1.frames, node1.payload_bytes),
            (FRAMES as u64, (FRAMES * WORDS * 8) as u64),
            "{kind:?}: the node's book must equal what was streamed"
        );
    }
}
