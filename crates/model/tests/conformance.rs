//! Conformance: enumerated model sequences replayed through the real
//! `Dsm` — the in-process fast path and the channel-backed wire path —
//! must land on the same directory entries, tags, and memory contents
//! as the abstract model. With a real engine injection armed, the same
//! replays must *diverge* (the injections are bugs the model catches).

use fgdsm_model::{enumerate_sequences, replay_on_dsm, ModelConfig, Op, Proto};
use fgdsm_protocol::{Fault, Faults};

/// Stride-sample `want` sequences out of an enumeration.
fn sample(seqs: &[Vec<Op>], want: usize) -> Vec<&Vec<Op>> {
    let stride = (seqs.len() / want).max(1);
    seqs.iter().step_by(stride).take(want).collect()
}

#[test]
fn eager_sequences_conform_on_the_fast_path() {
    let cfg = ModelConfig::small(Proto::Eager).with_depth(4);
    let seqs = enumerate_sequences(&cfg, 4, true, 50_000);
    let picked = sample(&seqs, 100);
    assert!(picked.len() >= 100, "enumeration too small: {}", seqs.len());
    for seq in picked {
        replay_on_dsm(&cfg, seq, false, Faults::default()).unwrap_or_else(|e| {
            panic!(
                "fast-path divergence on {:?}: {e}",
                seq.iter().map(Op::to_string).collect::<Vec<_>>()
            )
        });
    }
}

#[test]
fn eager_sequences_conform_on_the_chan_wire_path() {
    let cfg = ModelConfig::small(Proto::Eager).with_depth(4);
    let seqs = enumerate_sequences(&cfg, 4, true, 50_000);
    let picked = sample(&seqs, 100);
    assert!(picked.len() >= 100, "enumeration too small: {}", seqs.len());
    for seq in picked {
        replay_on_dsm(&cfg, seq, true, Faults::default()).unwrap_or_else(|e| {
            panic!(
                "wire-path divergence on {:?}: {e}",
                seq.iter().map(Op::to_string).collect::<Vec<_>>()
            )
        });
    }
}

#[test]
fn three_node_sequences_conform() {
    let cfg = ModelConfig::small(Proto::Eager).with_nodes(3).with_depth(3);
    let seqs = enumerate_sequences(&cfg, 3, true, 50_000);
    for seq in sample(&seqs, 60) {
        replay_on_dsm(&cfg, seq, false, Faults::default())
            .unwrap_or_else(|e| panic!("3-node divergence on {seq:?}: {e}"));
    }
}

#[test]
fn update_sequences_conform() {
    let cfg = ModelConfig::small(Proto::Update).with_depth(4);
    let seqs = enumerate_sequences(&cfg, 4, false, 50_000);
    for seq in sample(&seqs, 60) {
        replay_on_dsm(&cfg, seq, false, Faults::default())
            .unwrap_or_else(|e| panic!("update divergence on {seq:?}: {e}"));
    }
}

/// A frame the worker refuses fails the replay, although the
/// coordinator scattered its bytes before sending it: on the wire path
/// the transport's verdict is part of the comparison.
#[test]
fn a_frame_the_worker_refuses_diverges_on_the_wire_path() {
    let cfg = ModelConfig::small(Proto::Eager);
    let seq: Vec<Op> = ["read p=1 b=0", "release"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    replay_on_dsm(&cfg, &seq, true, Faults::default()).expect("clean replay must conform");
    let inj = Faults::default().with(Fault::CorruptFrameLen);
    let err = replay_on_dsm(&cfg, &seq, true, inj).expect_err("a refused frame must diverge");
    assert!(err.contains("exceeds cap"), "{err}");
}

/// Armed engine injections must make the real run diverge from the
/// clean model — each fault, at least one witnessing sequence.
#[test]
fn engine_injections_diverge_from_the_clean_model() {
    // skew_send_range: the push is silently dropped (one-block ranges),
    // so the reader's window keeps its stale copy.
    let cfg = ModelConfig::small(Proto::Eager);
    let skew_seq: Vec<Op> = [
        "write p=0 b=0 w=0 multi=false",
        "implicit_writable r=1 b=0",
        "send_range o=0 r=1 b=0",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    replay_on_dsm(&cfg, &skew_seq, false, Faults::default()).expect("clean replay must conform");
    let inj = Faults::default().with(Fault::SkewSendRange);
    replay_on_dsm(&cfg, &skew_seq, false, inj)
        .expect_err("skew_send_range must diverge from the clean model");

    // skip_flush_range: the writer's window copy never reaches the
    // owner and no tag/directory transition happens at all.
    let flush_seq: Vec<Op> = [
        "implicit_writable r=1 b=0",
        "write p=1 b=0 w=0 multi=false",
        "flush_range f=1 o=0 b=0",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    replay_on_dsm(&cfg, &flush_seq, false, Faults::default()).expect("clean replay must conform");
    let inj = Faults::default().with(Fault::SkipFlushRange);
    replay_on_dsm(&cfg, &flush_seq, false, inj)
        .expect_err("skip_flush_range must diverge from the clean model");

    // stale_owner_push: needs a third-party home — the owner steals the
    // block from its home, then pushes; the injected engine reads the
    // home's never-updated copy instead.
    let cfg3 = ModelConfig::small(Proto::Eager).with_nodes(3);
    let stale_seq: Vec<Op> = [
        "write p=1 b=0 w=0 multi=false",
        "implicit_writable r=2 b=0",
        "send_range o=1 r=2 b=0",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    replay_on_dsm(&cfg3, &stale_seq, false, Faults::default()).expect("clean replay must conform");
    let inj = Faults::default().with(Fault::StaleOwnerPush);
    replay_on_dsm(&cfg3, &stale_seq, false, inj)
        .expect_err("stale_owner_push must diverge from the clean model");
}
