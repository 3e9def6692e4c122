//! `ChanTransport` teardown must never deadlock: the drop-order contract
//! (hang up every link *before* joining the workers) has to hold on the
//! clean path, after a rejected route, with a dead or wedged worker, and
//! during the unwind of a panicking strict-mode run. Each test runs the teardown on a separate
//! thread under a watchdog so a regression fails loudly instead of
//! hanging the suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use fgdsm_protocol::{
    ChanTransport, Dsm, Faults, Geometry, NodeFault, WireError, WireTransport, DEFAULT_RECV_TIMEOUT,
};
use fgdsm_tempest::{Cluster, CostModel, HomePolicy, SegmentLayout};

const WATCHDOG: Duration = Duration::from_secs(20);

/// Run `f` on its own thread and fail the test if it doesn't finish
/// within the watchdog — the deadlock detector for every drop test.
fn must_finish(label: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => t.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{label}: teardown deadlocked (watchdog expired)")
        }
        Err(RecvTimeoutError::Disconnected) => {
            // The worker thread itself panicked: surface that panic.
            t.join().unwrap();
            unreachable!()
        }
    }
}

fn dsm(nprocs: usize) -> Dsm {
    let cfg = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cfg.words_per_page());
    layout.alloc(8192);
    Dsm::new(Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin))
}

/// Dropping an idle transport (workers parked in `recv`) joins cleanly.
#[test]
fn idle_drop_joins_workers() {
    must_finish("idle drop", || {
        let t = ChanTransport::new(4);
        drop(t);
    });
}

/// An explicit `shutdown` followed by `Drop` is idempotent.
#[test]
fn shutdown_is_idempotent() {
    must_finish("double shutdown", || {
        let mut t = ChanTransport::new(3);
        t.shutdown();
        t.shutdown();
        drop(t);
    });
}

/// A garbage frame comes back as the worker's typed rejection — and
/// dropping the transport afterwards must still join every worker.
#[test]
fn drop_after_rejected_route_joins_workers() {
    must_finish("drop after rejected route", || {
        let mut t = ChanTransport::new(2);
        let r = t.route(1, vec![vec![0xde, 0xad, 0xbe, 0xef]]);
        assert!(
            matches!(r, Err(WireError::Rejected { node: 1, .. })),
            "garbage frames must be rejected by node 1, got {r:?}"
        );
        drop(t);
    });
}

/// A worker that exited yields a typed `PeerGone`, a wedged one a typed
/// `Timeout` that honours the deadline (never a hung recv) — and tearing
/// the transport down afterwards still joins every worker, the wedged
/// one included: it only wakes because the links die before the joins.
#[test]
fn dead_or_wedged_workers_are_typed_errors_and_drop_still_joins() {
    let frame = || {
        let hdr = fgdsm_protocol::WireHeader::for_blocks(0, 1, (0, 0), 0, 0, 1);
        vec![fgdsm_protocol::WireMsg::Copy {
            hdr,
            start_word: 0,
            words: vec![7],
        }
        .to_bytes()]
    };
    for (fault, want) in [
        (NodeFault::ExitAfterBatches(1), WireError::PeerGone(2)),
        (NodeFault::WedgeAfterBatches(1), WireError::Timeout(2)),
    ] {
        must_finish("drop after a node fault", move || {
            let geom = Geometry {
                nprocs: 3,
                wpb: 16,
                seg_words: 64,
            };
            let timeout = Duration::from_millis(200);
            let mut t =
                ChanTransport::spawn(geom, timeout, false, Some((2, fault)), Faults::default());
            assert_eq!(t.route(2, frame()), Ok(frame()), "served before the fault");
            let start = std::time::Instant::now();
            assert_eq!(t.route(2, frame()), Err(want.clone()));
            let waited = start.elapsed();
            assert!(waited < Duration::from_secs(5), "waited {waited:?}");
            if want == WireError::Timeout(2) {
                assert!(waited >= timeout, "deadline not honoured: {waited:?}");
            }
            // The coordinator hung up on the failed node; the others serve.
            assert_eq!(t.route(2, frame()), Err(WireError::PeerGone(2)));
            assert_eq!(t.route(1, frame()), Ok(frame()));
            drop(t);
        });
    }
}

/// The real seam: a strict-mode `Dsm` wired over `ChanTransport` whose
/// run panics mid-superstep. The unwind drops the `Dsm` (and with it the
/// transport) while channel workers may still hold undrained requests —
/// join-on-drop must not deadlock, because the senders die first.
#[test]
fn panicking_strict_run_does_not_deadlock_workers() {
    must_finish("panicking strict-mode run", || {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut d = dsm(2);
            let geom = Geometry::of(&d.cluster);
            let chan =
                ChanTransport::spawn(geom, DEFAULT_RECV_TIMEOUT, false, None, Faults::default());
            d.set_wire(Box::new(chan));
            // Real traffic through the workers first, so they are warm.
            d.mk_writable(1, 0, 2);
            let sends = [fgdsm_protocol::SendEntry {
                owner: 1,
                readers: vec![0],
                first: 0,
                end: 2,
                array: fgdsm_tempest::NO_ARRAY,
            }];
            let plans = fgdsm_protocol::plan_sends(&d.cluster, d.faults, &sends, true);
            d.exec_sends(&sends, &plans);
            panic!("superstep failed mid-run");
        }));
        let msg = *r.expect_err("run must panic").downcast::<&str>().unwrap();
        assert_eq!(msg, "superstep failed mid-run");
    });
}
