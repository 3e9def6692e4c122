//! Fault tolerance of the node runtime, on every carrier: killing or
//! wedging a node mid-superstep must surface a clean *typed* error at
//! the coordinator — [`WireError::PeerGone`] when the node is gone,
//! [`WireError::Timeout`] once the recv deadline fires — within a
//! bounded wall time, with no hang. (A failed `try_execute` returns no
//! `RunResult` and no trace document, so there is no partial artifact
//! for anyone to write.) One body, run over `chan` (worker threads,
//! memory links) unconditionally and over `tcp` (worker processes,
//! socket links) where the sandbox allows sockets.

use fgdsm::hpf::{try_execute, ExecConfig, ExecError, InjectConfig};
use fgdsm::protocol::{NodeFault, WireError};
use std::time::{Duration, Instant};

const NPROCS: usize = 2;

fn comm_heavy_program() -> fgdsm::hpf::Program {
    // Jacobi at test scale: every superstep ships boundary rows between
    // the two nodes, so the faulted node is guaranteed to see batches.
    let params = fgdsm::apps::jacobi::Params::at(fgdsm::apps::Scale::Test);
    fgdsm::apps::jacobi::build(&params)
}

/// Every carrier this host can run.
fn carriers() -> Vec<(&'static str, ExecConfig)> {
    let mut v = vec![("chan", ExecConfig::chan(NPROCS).serial())];
    if fgdsm::hpf::tcp_available() {
        v.push(("tcp", ExecConfig::tcp(NPROCS).serial()));
    } else {
        eprintln!("notice: sandbox forbids sockets; the fault suite runs on chan only");
    }
    v
}

/// Run one execution with `fault` armed on node 1: returns the error and
/// checks the run did not hang past `deadline`.
fn run_faulted(
    carrier: &str,
    mut cfg: ExecConfig,
    fault: NodeFault,
    deadline: Duration,
) -> ExecError {
    cfg.inject = InjectConfig {
        node_fault: Some((1, fault)),
        ..InjectConfig::default()
    };
    let t0 = Instant::now();
    let r = try_execute(&comm_heavy_program(), &cfg);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < deadline,
        "{carrier}: faulted run must fail within {deadline:?}, took {elapsed:?}"
    );
    r.expect_err("a killed/wedged node must fail the run")
}

/// A node that exits mid-superstep (its link closes under the
/// coordinator's next read) surfaces as a typed `PeerGone` naming it.
#[test]
fn killed_node_yields_typed_peer_gone() {
    for (carrier, cfg) in carriers() {
        let fault = NodeFault::ExitAfterBatches(0);
        match run_faulted(carrier, cfg, fault, Duration::from_secs(60)) {
            ExecError::Wire(WireError::PeerGone(1)) => {}
            other => panic!("{carrier}: want Wire(PeerGone(1)), got {other:?}"),
        }
    }
}

/// A node that stops replying (worker alive, link open) trips the
/// coordinator's recv deadline and surfaces as a typed `Timeout` naming
/// that node — the explicit non-EOF half of the failure semantics.
#[test]
fn wedged_node_yields_typed_timeout_within_deadline() {
    for (carrier, mut cfg) in carriers() {
        // Short recv deadline so the wedge converts to a typed error
        // fast; the bound proves the deadline (not a hang) ended the run.
        cfg.recv_timeout = Duration::from_millis(500);
        let fault = NodeFault::WedgeAfterBatches(0);
        match run_faulted(carrier, cfg, fault, Duration::from_secs(30)) {
            ExecError::Wire(WireError::Timeout(1)) => {}
            other => panic!("{carrier}: want Wire(Timeout(1)), got {other:?}"),
        }
    }
}

/// The same worker-spawning path with no fault armed must succeed and
/// match the in-process `sm_opt` backend bit for bit — the positive
/// control for the two failure tests above.
#[test]
fn unfaulted_run_matches_sm_opt() {
    let prog = comm_heavy_program();
    let smopt = fgdsm::hpf::execute(&prog, &ExecConfig::sm_opt(NPROCS).serial());
    assert_eq!(
        smopt.wire_route_ns(),
        0,
        "the in-process fast path never routes"
    );
    for (carrier, cfg) in carriers() {
        let run = try_execute(&prog, &cfg).unwrap_or_else(|e| panic!("{carrier}: {e}"));
        assert_eq!(run.report.to_json(), smopt.report.to_json(), "{carrier}");
        assert_eq!(run.data, smopt.data, "{carrier}");
        assert!(
            run.wire_frames > 0,
            "{carrier}: jacobi must route envelopes over the links"
        );
        assert!(
            run.wire_route_ns() > 0,
            "{carrier}: link round-trips must accrue measured route time"
        );
    }
}
