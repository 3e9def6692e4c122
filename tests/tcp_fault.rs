//! Fault tolerance of the socket-backed `tcp` backend: killing or
//! wedging an `fgdsm-node` worker process mid-superstep must surface a
//! clean *typed* error at the coordinator — [`WireError::PeerGone`] on
//! EOF, [`WireError::Timeout`] once the recv deadline fires — within a
//! bounded wall time, with no hang. (A failed `try_execute` returns no
//! `RunResult` and no trace document, so there is no partial artifact
//! for anyone to write.)

use fgdsm::hpf::{try_execute, ExecConfig, ExecError, InjectConfig};
use fgdsm::net::NodeFault;
use fgdsm::protocol::WireError;
use std::time::{Duration, Instant};

const NPROCS: usize = 2;

fn comm_heavy_program() -> fgdsm::hpf::Program {
    // Jacobi at test scale: every superstep ships boundary rows between
    // the two nodes, so the faulted node is guaranteed to see batches.
    let params = fgdsm::apps::jacobi::Params::at(fgdsm::apps::Scale::Test);
    fgdsm::apps::jacobi::build(&params)
}

fn tcp_cfg(fault: NodeFault, node: u32) -> ExecConfig {
    ExecConfig::tcp(NPROCS).serial().with_inject(InjectConfig {
        tcp_node_fault: Some((node, fault)),
        ..InjectConfig::default()
    })
}

/// Run one faulted execution under a watchdog: returns the error and
/// checks the run did not hang past `deadline`.
fn run_faulted(cfg: &ExecConfig, deadline: Duration) -> ExecError {
    let prog = comm_heavy_program();
    let t0 = Instant::now();
    let r = try_execute(&prog, cfg);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < deadline,
        "faulted run must fail within {deadline:?}, took {elapsed:?}"
    );
    r.expect_err("a killed/wedged node must fail the run")
}

/// A node that exits mid-superstep (EOF on the coordinator's next read)
/// surfaces as a typed `PeerGone` naming that node.
#[test]
fn killed_node_yields_typed_peer_gone() {
    if !fgdsm::hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping killed_node_yields_typed_peer_gone");
        return;
    }
    let cfg = tcp_cfg(NodeFault::ExitAfterBatches(0), 1);
    let e = run_faulted(&cfg, Duration::from_secs(60));
    match e {
        ExecError::Wire(WireError::PeerGone(p)) => {
            assert_eq!(p, 1, "error must name the dead node")
        }
        other => panic!("want Wire(PeerGone(1)), got {other:?}"),
    }
}

/// A node that stops replying (process alive, socket open) trips the
/// coordinator's recv deadline and surfaces as a typed `Timeout` naming
/// that node — the explicit non-EOF half of the failure semantics.
#[test]
fn wedged_node_yields_typed_timeout_within_deadline() {
    if !fgdsm::hpf::tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; skipping wedged_node_yields_typed_timeout_within_deadline"
        );
        return;
    }
    // Short recv deadline so the wedge converts to a typed error fast;
    // the watchdog bound proves the deadline (not a hang) ended the run.
    let mut cfg = tcp_cfg(NodeFault::WedgeAfterBatches(0), 1);
    cfg.recv_timeout = Duration::from_millis(500);
    let e = run_faulted(&cfg, Duration::from_secs(30));
    match e {
        ExecError::Wire(WireError::Timeout(p)) => {
            assert_eq!(p, 1, "error must name the wedged node")
        }
        other => panic!("want Wire(Timeout(1)), got {other:?}"),
    }
}

/// The same fleet-spawning path with no fault armed must succeed and
/// match the in-process `sm_opt` backend bit for bit — the positive
/// control for the two failure tests above.
#[test]
fn unfaulted_tcp_run_matches_sm_opt() {
    if !fgdsm::hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping unfaulted_tcp_run_matches_sm_opt");
        return;
    }
    let prog = comm_heavy_program();
    let tcp = try_execute(&prog, &ExecConfig::tcp(NPROCS).serial()).expect("clean tcp run");
    let smopt = fgdsm::hpf::execute(&prog, &ExecConfig::sm_opt(NPROCS).serial());
    assert_eq!(tcp.report.to_json(), smopt.report.to_json());
    assert_eq!(tcp.data, smopt.data);
    assert!(
        tcp.wire_frames > 0,
        "jacobi must route envelopes over the sockets"
    );
    assert!(
        tcp.wire_route_ns() > 0,
        "socket round-trips must accrue measured route time"
    );
    assert_eq!(
        smopt.wire_route_ns(),
        0,
        "the in-process fast path never routes"
    );
}
