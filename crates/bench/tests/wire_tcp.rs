//! What only the socket-backed `tcp` carrier can prove (the accounting
//! and byte-identity invariants it shares with `chan` are checked for
//! both carriers in `wire_chan.rs`):
//!
//! * the *nodes'* own counters reconcile with the coordinator's across
//!   address spaces: each worker process reports its served frame and
//!   payload totals in `ByeStats` at orderly teardown, over TCP and over
//!   Unix-domain sockets, and the sums match what the coordinator routed;
//! * a worker process does not trust the peer's addresses.
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
