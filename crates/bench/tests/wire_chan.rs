//! Wire-layer accounting invariants for the carriers: `chan` on every
//! host, and `tcp` — the same node runtime over sockets — wherever the
//! sandbox allows them.
//!
//! The `chan` backend is the proof of the wire seam: every inter-node
//! transfer is encoded straight from its source shard into a frame,
//! carried over a memory link to a worker thread running the node
//! runtime, and parsed on the far side — no shared-memory shortcut
//! exists. These
//! tests pin down what that buys us across the whole Table 2 suite:
//!
//! * the frame and payload counters are live (`wire_frames > 0` whenever
//!   the cluster moved any bytes at all) and reconcile against the
//!   simulator's own accounting (`wire_payload_bytes ≤ Σ bytes_sent`,
//!   since `NodeStats` charges a fixed per-message header on top of the
//!   data the envelope carries, and reductions are noted but never
//!   enveloped);
//! * the zero-copy fast path routes *nothing* through the wire layer, so
//!   the counters prove which path ran;
//! * the workers keep books: each node's served frame and payload
//!   totals come home at teardown and reconcile with the coordinator's
//!   per-destination book — a skewed book is a typed `StatsMismatch`;
//! * wire accounting stays out of the canonical artifacts: `chan`
//!   reports, profiles, and gathered data are byte-identical to
//!   `sm_opt`'s (full opt level), the backend it mirrors.

use fgdsm_apps::{suite, Scale};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute, tcp_available, ExecConfig};
use fgdsm_protocol::{
    plan_sends, ChanTransport, Dsm, Faults, FrameBatch, Geometry, RemoteReport, SendEntry,
    WireError, WireTransport, DEFAULT_RECV_TIMEOUT,
};
use fgdsm_tempest::{Cluster, CostModel, HomePolicy, NodeStats, SegmentLayout, WireSpan, NO_ARRAY};

/// Sum the per-node stats of one run into a whole-cluster view.
fn cluster_totals(run: &fgdsm_hpf::RunResult) -> NodeStats {
    let mut whole = NodeStats::default();
    for n in &run.report.nodes {
        whole.accumulate(n);
    }
    whole
}

/// Every carrier this host can run, with the label its failures carry.
fn carriers() -> Vec<(&'static str, ExecConfig)> {
    let mut v = vec![("chan", ExecConfig::chan(NPROCS))];
    if tcp_available() {
        v.push(("tcp", ExecConfig::tcp(NPROCS)));
    } else {
        eprintln!("notice: sandbox forbids sockets; wire accounting checked on chan only");
    }
    v
}

/// A carrier must route every transfer through envelopes, the envelope
/// accounting must reconcile with the simulator's byte charges, and the
/// link round-trips cost measured host time the virtual clock never sees.
#[test]
fn carrier_wire_accounting_reconciles() {
    for (carrier, cfg) in carriers() {
        for spec in suite(Scale::Test) {
            let name = format!("{carrier}/{}", spec.name);
            let run = execute(&spec.program, &cfg);
            let whole = cluster_totals(&run);
            assert!(
                whole.bytes_sent > 0,
                "{name}: suite app moved no bytes — not a useful wire check"
            );
            assert!(
                run.wire_frames > 0 && run.wire_payload_bytes > 0,
                "{name}: moved {} bytes but routed {} frames carrying {} payload bytes",
                whole.bytes_sent,
                run.wire_frames,
                run.wire_payload_bytes
            );
            assert!(
                run.wire_payload_bytes <= whole.bytes_sent,
                "{name}: wire payload {} exceeds cluster bytes_sent {} — envelopes \
                 carry data the simulator never charged for",
                run.wire_payload_bytes,
                whole.bytes_sent
            );
            assert!(
                run.wire_route_ns() > 0,
                "{name}: link round-trips must accrue measured route time"
            );
            if whole.reductions == 0 {
                for (n, hm) in run.report.heatmaps.iter().enumerate() {
                    assert_eq!(
                        hm.unattributed_bytes, 0,
                        "{name}: node {n} has unattributed bytes without reductions"
                    );
                }
            }
        }
    }
}

/// Delivery streams: frames travel many to a link-level batch, and the
/// coordinator waits on a link only when a batch is flushed or a barrier
/// syncs — not once per frame. The counts are exact (virtual-time
/// traffic, a constant flush window), so a change that quietly goes back
/// to one blocking round trip per frame, or batches differently, fails
/// here by name rather than in a wall-clock number.
#[test]
fn pde_on_chan_travels_in_few_batches() {
    let pde = suite(Scale::Test)
        .into_iter()
        .find(|spec| spec.name == "pde")
        .expect("pde is a suite app");
    let run = execute(&pde.program, &ExecConfig::chan(NPROCS));
    assert_eq!(
        (run.wire_frames, run.wire_batches, run.wire_syncs),
        (2775, 28, 13),
        "pde/chan at test scale: frames, batches flushed, syncs"
    );
    let strict = execute(&pde.program, &ExecConfig::sm_opt(NPROCS).strict());
    assert_eq!(
        (strict.wire_frames, strict.wire_batches),
        (run.wire_frames, 0),
        "the loopback carries the same frames over no link"
    );
}

/// The zero-copy fast path must not touch the wire layer: its counters
/// stay at zero, which is how we know `chan`/strict actually exercised
/// the envelopes.
#[test]
fn fast_path_routes_no_frames() {
    for spec in suite(Scale::Test) {
        for (backend, cfg) in [
            ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm_opt", ExecConfig::sm_opt(NPROCS)),
            ("mp", ExecConfig::mp(NPROCS)),
        ] {
            let run = execute(&spec.program, &cfg);
            assert_eq!(
                (run.wire_frames, run.wire_payload_bytes),
                (0, 0),
                "{}/{backend}: fast path leaked into the wire layer",
                spec.name
            );
            let strict = execute(&spec.program, &cfg.clone().strict());
            assert!(
                strict.wire_frames >= run.wire_frames,
                "{}/{backend}: strict mode routed fewer frames than fast path",
                spec.name
            );
        }
    }
}

/// Wire accounting is deliberately outside the canonical report: a
/// carrier must be byte-identical to `sm_opt` at the full opt level in
/// every artifact the suite emits.
#[test]
fn carrier_artifacts_match_sm_opt() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for spec in suite(Scale::Test) {
        let smopt = execute(&spec.program, &ExecConfig::sm_opt(NPROCS));
        assert_eq!(smopt.wire_route_ns(), 0, "the fast path never routes");
        for (carrier, cfg) in carriers() {
            let name = format!("{carrier}/{}", spec.name);
            let run = execute(&spec.program, &cfg);
            assert_eq!(
                run.report.to_json(),
                smopt.report.to_json(),
                "{name}: report diverged from sm_opt"
            );
            assert_eq!(
                run.report.profile_json(),
                smopt.report.profile_json(),
                "{name}: profile artifact diverged from sm_opt"
            );
            assert_eq!(
                bits(&run.data),
                bits(&smopt.data),
                "{name}: gathered data diverged from sm_opt"
            );
            assert_eq!(run.scalars, smopt.scalars, "{name}: scalars diverged");
        }
    }
}

/// A chan carrier whose first sent batch is served twice — a frame
/// the coordinator's book never saw, as a retransmitting link would add.
struct Retransmit(ChanTransport, bool);

impl WireTransport for Retransmit {
    fn name(&self) -> &'static str {
        "chan+retransmit"
    }
    fn send(&mut self, dst: usize, batch: &FrameBatch) -> Result<(), WireError> {
        if std::mem::take(&mut self.1) {
            self.0.send(dst, batch)?;
        }
        self.0.send(dst, batch)
    }
    fn sync(&mut self) -> Result<Vec<WireSpan>, WireError> {
        self.0.sync()
    }
    fn finish(&mut self) -> Vec<RemoteReport> {
        self.0.finish()
    }
}

/// Double-entry bookkeeping over a memory link: after real ctl traffic
/// the workers' `ByeStats` reconcile with the coordinator's book at
/// `wire_finish`; with one batch served twice behind the coordinator's
/// back, teardown fails with a typed `StatsMismatch` naming the node
/// and the counter that diverged.
#[test]
fn chan_books_reconcile_and_a_skewed_book_is_a_typed_mismatch() {
    let push_over_chan = |retransmit: bool| {
        let cost = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cost.words_per_page());
        layout.alloc(8192);
        let mut d = Dsm::new(Cluster::new(2, cost, &layout, HomePolicy::RoundRobin));
        let geom = Geometry::of(&d.cluster);
        let chan = ChanTransport::spawn(geom, DEFAULT_RECV_TIMEOUT, false, None, Faults::default());
        d.set_wire(Box::new(Retransmit(chan, retransmit)));
        d.mk_writable(1, 0, 2);
        let sends = [SendEntry {
            owner: 1,
            readers: vec![0],
            first: 0,
            end: 2,
            array: NO_ARRAY,
        }];
        let plans = plan_sends(&d.cluster, d.faults, &sends, true);
        d.exec_sends(&sends, &plans);
        assert!(d.wire_stats().0 > 0, "the push must have been enveloped");
        d.wire_finish().map(|_| ())
    };
    assert!(push_over_chan(false).is_ok(), "honest books must reconcile");
    let err = push_over_chan(true).expect_err("a twice-served batch must not reconcile");
    match err {
        WireError::StatsMismatch {
            node,
            counter: "frames",
            local,
            remote,
        } => assert!(
            node < 2 && remote > local,
            "node {node}: {local} vs {remote}"
        ),
        other => panic!("want a typed frames StatsMismatch, got {other:?}"),
    }
}
