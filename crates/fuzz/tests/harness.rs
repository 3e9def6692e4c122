//! Fault-injection contract tests: tolerated perturbations must keep
//! every backend bit-identical to the reference; must-catch protocol
//! mutations must make the oracle report a divergence; and a diverging
//! case must shrink to a smaller spec that still diverges.

use fgdsm_fuzz::{
    case_seed, check_spec, check_spec_tcp, gen_spec, shrink, ArraySpec, Detector, FStmt, Fault,
    FuzzSpec, LoopSpec, ReadSpec,
};
use fgdsm_hpf::{try_execute, ExecConfig, ExecError, InjectConfig};
use fgdsm_protocol::WireError;
use fgdsm_testkit::Rng;

const TOLERATED_SEEDS: u64 = 25;

/// Tolerated perturbations — randomized resolve order, a cleared
/// `implicit_writable` memo, and boundary blocks forced onto the default
/// path — must not change any result on any backend.
#[test]
fn tolerated_perturbations_are_invisible() {
    for case in 0..TOLERATED_SEEDS {
        let seed = case_seed(0xA110_CAFE, case);
        let mut rng = Rng::new(seed);
        let mut spec = gen_spec(&mut rng, seed);
        spec.inject = InjectConfig {
            shuffle_resolve: Some(seed.rotate_left(17)),
            clear_iw_memo: true,
            force_boundary: true,
            skew_send_range: false,
            skip_flush_range: false,
            stale_owner_push: false,
            corrupt_envelope: false,
            corrupt_frame_len: false,
            stale_resolve_schedule: false,
            undercount_metrics: false,
            node_fault: None,
        };
        if let Err(d) = check_spec(&spec) {
            panic!("tolerated perturbation diverged at seed {seed:#x}: {d}");
        }
    }
}

/// A 2-D block-distributed write array plus a 1-D array read by every
/// node at `b(i)`: the shared read section spans whole cache blocks, so
/// the optimized backend ships it with `send_range` — which the
/// injection skews by one element at each end.
fn skew_victim() -> FuzzSpec {
    FuzzSpec {
        seed: 0,
        nprocs: 2,
        n1: 96,
        n2: [40, 8],
        arrays: vec![
            ArraySpec {
                rank2: true,
                cyclic: false,
                index_for: None,
            },
            ArraySpec {
                rank2: false,
                cyclic: false,
                index_for: None,
            },
        ],
        body: vec![FStmt::Loop(LoopSpec {
            write: 0,
            dist_by: None,
            self_read: false,
            reads: vec![ReadSpec {
                array: 1,
                off: [0, 0],
                via: None,
            }],
            reduce: None,
            use_t: false,
            use_acc: false,
            sweep_t: false,
        })],
        time: None,
        inject: InjectConfig {
            skew_send_range: true,
            ..InjectConfig::default()
        },
    }
}

#[test]
fn must_catch_skewed_send_range() {
    let spec = skew_victim();
    let d = check_spec(&spec).expect_err("off-by-one send_range must be detected");
    assert!(
        d.config.starts_with("sm_opt"),
        "skew only exists on the ctl path, diverged at {d}"
    );
}

/// The same traffic-heavy program as [`skew_victim`], but with a byte
/// flipped inside the first envelope routed in strict wire mode: decode
/// validation must reject the frame and fail the run loudly. The
/// fast-path configs never see an envelope, so the divergence must land
/// on a `wire-strict` config or the `chan` backend — proving the
/// injection (and thus the validation) lives on the wire seam itself.
/// The sender applies from its own decode of the bytes that travel, so
/// the failure is the same typed decode error on every envelope path —
/// the in-process loopback and the carriers alike — raised before the
/// damaged frame is handed to a link.
#[test]
fn must_catch_corrupt_envelope() {
    let mut spec = skew_victim();
    spec.inject = InjectConfig {
        corrupt_envelope: true,
        ..InjectConfig::default()
    };
    let d = check_spec(&spec).expect_err("corrupt envelope must be detected");
    assert!(
        d.config.contains("wire-strict") || d.config.starts_with("chan"),
        "only envelope paths can observe the corruption, diverged at {d}"
    );
    assert!(
        d.detail.contains("panic"),
        "a corrupt frame must fail the run loudly, not diverge quietly: {d}"
    );
    let mut paths = vec![
        ("strict", ExecConfig::sm_opt(spec.nprocs).strict()),
        ("chan", ExecConfig::chan(spec.nprocs)),
    ];
    if fgdsm_hpf::tcp_available() {
        paths.push(("tcp", ExecConfig::tcp(spec.nprocs)));
    }
    for (path, cfg) in paths {
        // The flipped bit sits in the version field; a vacuous decoder
        // would let the run complete and land here as `Ok`.
        match try_execute(&spec.build(), &cfg.with_inject(spec.inject)) {
            Err(ExecError::Wire(WireError::BadVersion(_))) => {}
            other => panic!("{path}: want the decoder's typed BadVersion, got {other:?}"),
        }
    }
}

/// The same traffic-heavy program as [`skew_victim`], but the `tcp`
/// coordinator overwrites the length prefix of the first data frame it
/// sends with an oversized value: the node's framing layer must reject
/// it against the frame cap *before allocating*, reply with a decode
/// error, and fail the run loudly. Skipped (with a notice) when the
/// sandbox forbids sockets.
#[test]
fn must_catch_corrupt_frame_len() {
    if !fgdsm_hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping must_catch_corrupt_frame_len");
        return;
    }
    let mut spec = skew_victim();
    spec.inject = InjectConfig {
        corrupt_frame_len: true,
        ..InjectConfig::default()
    };
    let d = check_spec_tcp(&spec).expect_err("corrupt frame length must be detected");
    assert!(
        d.config.starts_with("tcp"),
        "only the socket path frames messages, diverged at {d}"
    );
    assert!(
        d.detail.contains("panic"),
        "a corrupt frame must fail the run loudly, not diverge quietly: {d}"
    );
    assert!(
        d.detail.contains("exceeds cap"),
        "failure must come from the framing cap: {d}"
    );
}

/// The same traffic-heavy program as [`skew_victim`], but the
/// coordinator's telemetry skips the per-class `payload_bytes.*` counter
/// for the first staged envelope. Data, scalars, and every canonical
/// artifact stay bitwise correct — the books behind `wire_payload_bytes`
/// are untouched — so only the oracle's metrics-conservation invariant
/// can catch it, and only on a config that routes envelopes.
#[test]
fn must_catch_undercounted_metrics() {
    let mut spec = skew_victim();
    spec.inject = InjectConfig {
        undercount_metrics: true,
        ..InjectConfig::default()
    };
    let d = check_spec(&spec).expect_err("undercounted telemetry must be detected");
    assert!(
        d.config.contains("wire-strict") || d.config.starts_with("chan"),
        "only envelope paths record wire telemetry, diverged at {d}"
    );
    assert!(
        d.detail.contains("metrics conservation violated"),
        "must be caught by the conservation invariant, not a data compare: {d}"
    );
}

/// A block-distributed 2-D array written under a *cyclic* partition
/// (`dist_by`): every superstep performs non-owner writes that the
/// optimized backend must flush home with `flush_range` — which the
/// injection skips entirely.
fn flush_victim() -> FuzzSpec {
    FuzzSpec {
        seed: 0,
        nprocs: 2,
        n1: 42,
        n2: [40, 8],
        arrays: vec![
            ArraySpec {
                rank2: true,
                cyclic: false,
                index_for: None,
            },
            ArraySpec {
                rank2: true,
                cyclic: true,
                index_for: None,
            },
        ],
        body: vec![FStmt::Loop(LoopSpec {
            write: 0,
            dist_by: Some(1),
            self_read: false,
            reads: vec![],
            reduce: None,
            use_t: false,
            use_acc: false,
            sweep_t: false,
        })],
        time: None,
        inject: InjectConfig {
            skip_flush_range: true,
            ..InjectConfig::default()
        },
    }
}

#[test]
fn must_catch_skipped_flush_range() {
    let spec = flush_victim();
    let d = check_spec(&spec).expect_err("skipped flush_range must be detected");
    assert!(
        d.config.starts_with("sm_opt"),
        "flush_range only exists on the ctl path, diverged at {d}"
    );
}

/// Two block-distributed 2-D arrays and one *symbolic* loop inside a time
/// loop: step `t` writes column `2 + t` of `a0` from column `3 + t` of
/// `a1`. Node 0 owns columns 0–3, so at `t = 0` everything it reads is
/// its own, and at `t = 1` it needs node 1's column 4 — which a schedule
/// memoized at `t = 0` never makes accessible.
fn sweep_victim() -> FuzzSpec {
    let a2 = ArraySpec {
        rank2: true,
        cyclic: false,
        index_for: None,
    };
    FuzzSpec {
        seed: 0,
        nprocs: 2,
        n1: 96,
        n2: [40, 8],
        arrays: vec![a2.clone(), a2],
        body: vec![FStmt::Loop(LoopSpec {
            write: 0,
            dist_by: None,
            self_read: false,
            reads: vec![ReadSpec {
                array: 1,
                off: [0, 1],
                via: None,
            }],
            reduce: None,
            use_t: false,
            use_acc: false,
            sweep_t: true,
        })],
        time: Some((0, 1, 3)),
        inject: InjectConfig {
            stale_resolve_schedule: true,
            ..InjectConfig::default()
        },
    }
}

/// The inspector memo must be keyed by what the schedule depends on: for
/// a symbolic loop that includes the environment, so it is not memoized
/// at all. Keyed by loop alone, step `t = 1` walks step 0's covers, node
/// 0 computes from its never-fetched (zero) copy of column 4, and the
/// very first backend in the matrix — the default protocol alone —
/// disagrees with the reference. Unarmed, the same program passes: the
/// divergence is the injection's, not the victim's.
#[test]
fn must_catch_stale_resolve_schedule() {
    let mut spec = sweep_victim();
    let d = check_spec(&spec).expect_err("a stale inspector schedule must be detected");
    assert_eq!(d.config, "sm_unopt/serial", "diverged at {d}");
    assert!(d.detail.contains("array `a0` diverges"), "{d}");
    spec.inject = InjectConfig::default();
    check_spec(&spec).expect("the symbolic victim itself must pass the oracle");
}

/// The taxonomy sweep: every engine-detectable fault in the shared
/// [`Fault`] taxonomy, armed through [`Fault::arm`] on its canonical
/// victim program, must make the oracle report a divergence. Faults the
/// taxonomy routes to the model checker (whose symptom needs states the
/// engine's layouts never reach) are must-catch over in `fgdsm-model`'s
/// mutation sweep instead — this test pins that nothing falls through.
#[test]
fn must_catch_every_engine_fault_in_taxonomy() {
    for f in Fault::ALL {
        match f.detected_by() {
            Detector::Engine | Detector::Both => {
                let mut spec = match f {
                    Fault::SkewSendRange
                    | Fault::CorruptEnvelope
                    | Fault::CorruptFrameLen
                    | Fault::UndercountMetrics => skew_victim(),
                    Fault::SkipFlushRange => flush_victim(),
                    Fault::StaleResolveSchedule => sweep_victim(),
                    Fault::StaleOwnerPush => unreachable!("model-level fault"),
                };
                spec.inject = Default::default();
                f.arm(&mut spec.inject);
                if f == Fault::CorruptFrameLen {
                    // Transport-level: only the socket path frames
                    // messages, so this fault is must-catch through the
                    // tcp oracle (skipped when the sandbox forbids
                    // sockets — `must_catch_corrupt_frame_len` carries
                    // the full assertions).
                    if fgdsm_hpf::tcp_available() {
                        check_spec_tcp(&spec)
                            .expect_err(&format!("taxonomy fault {} must be caught", f.name()));
                    } else {
                        eprintln!(
                            "notice: sandbox forbids sockets; corrupt_frame_len covered by \
                             must_catch_corrupt_frame_len when they are available"
                        );
                    }
                    continue;
                }
                check_spec(&spec)
                    .expect_err(&format!("taxonomy fault {} must be caught", f.name()));
            }
            Detector::Model => {
                // Covered by fgdsm-model's must-catch mutation sweep.
                assert_eq!(f, Fault::StaleOwnerPush);
            }
        }
    }
}

/// Pad a diverging spec with junk (an unused array, an extra harmless
/// loop, a time wrap) and check the shrinker strips it back down while
/// preserving the divergence, then renders a reproducer.
#[test]
fn shrinker_minimizes_divergent_cases() {
    let mut spec = skew_victim();
    spec.arrays.push(ArraySpec {
        rank2: false,
        cyclic: true,
        index_for: None,
    });
    spec.body.push(FStmt::Loop(LoopSpec {
        write: 2,
        dist_by: None,
        self_read: true,
        reads: vec![ReadSpec {
            array: 1,
            off: [1, 0],
            via: None,
        }],
        reduce: Some(0),
        use_t: true,
        use_acc: true,
        sweep_t: false,
    }));
    spec.body.push(FStmt::Scalar(0));
    spec.time = Some((0, 3, 2));
    assert!(
        check_spec(&spec).is_err(),
        "padded victim must still diverge"
    );

    let small = shrink(&spec);
    let d = check_spec(&small).expect_err("shrunk spec must still diverge");
    assert!(
        small.body.len() < spec.body.len(),
        "shrinker failed to drop the junk statements"
    );
    assert!(
        small.arrays.len() < spec.arrays.len(),
        "shrinker failed to drop the unused array"
    );
    assert!(
        small.time.is_none(),
        "shrinker failed to unwrap the time loop"
    );

    let repro = small.to_rust();
    assert!(
        repro.contains("#[test]"),
        "reproducer must be a runnable test"
    );
    assert!(
        repro.contains("check_spec(&spec).unwrap()"),
        "missing oracle call:\n{repro}"
    );
    assert!(
        repro.contains("skew_send_range: true"),
        "missing injection knob:\n{repro}"
    );
    println!("shrunk divergence: {d}\n{repro}");
}
