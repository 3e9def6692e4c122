//! Tier-1 closure runs: the clean model must close its bounded state
//! space with zero violations, for both protocols, and the
//! contract-bypass invisibility theorem must verify on real witnesses.

use fgdsm_model::{check, contract_invisibility, ModelConfig, Proto, DEFAULT_DEPTH};
use fgdsm_tempest::knob::Knobs;

/// Exploration depth: `FGDSM_MODEL_DEPTH`, else the model's default.
fn depth() -> usize {
    Knobs::from_env().model_depth.unwrap_or(DEFAULT_DEPTH)
}

fn assert_closed(cfg: &ModelConfig) -> usize {
    let out = check(cfg);
    if let Some(v) = &out.violation {
        panic!("clean model found a violation:\n{}", v.render());
    }
    assert!(out.closed);
    assert!(
        out.states > 1 && out.transitions > 0,
        "closure explored nothing ({} states, {} transitions)",
        out.states,
        out.transitions
    );
    out.states
}

/// The headline run: every interleaving of 2 nodes over 1 block under
/// the eager protocol — reads, writes (both flavors), releases, and the
/// full §4.2 ctl vocabulary — to the configured depth.
#[test]
fn eager_two_nodes_one_block_closes() {
    let cfg = ModelConfig::small(Proto::Eager).with_depth(depth());
    let states = assert_closed(&cfg);
    // The space must be non-trivial: the ctl ops alone give hundreds of
    // reachable states at the default depth.
    assert!(states > 100, "suspiciously small closure: {states} states");
}

/// Same bound for the write-update protocol (no ctl vocabulary — the
/// real protocol reports `supports_ctl = false`).
#[test]
fn update_two_nodes_one_block_closes() {
    assert_closed(&ModelConfig::small(Proto::Update).with_depth(depth()));
}

/// Three nodes bring in the states two cannot reach: 4-hop reads with a
/// third-party reader, third-party homes for flush/push folding, and
/// multi-writer sets of size two with a reader.
#[test]
fn eager_three_nodes_smoke() {
    let cfg = ModelConfig::small(Proto::Eager)
        .with_nodes(3)
        .with_depth(depth().min(4));
    assert_closed(&cfg);
}

/// Two blocks: cross-block interactions (windows on one block while the
/// other moves through Multi, releases touching both).
#[test]
fn eager_two_blocks_smoke() {
    let cfg = ModelConfig::small(Proto::Eager)
        .with_blocks(2)
        .with_depth(depth().min(4));
    assert_closed(&cfg);
}

#[test]
fn update_three_nodes_smoke() {
    let cfg = ModelConfig::small(Proto::Update)
        .with_nodes(3)
        .with_depth(depth().min(5));
    assert_closed(&cfg);
}

/// The §4.2 soundness theorem, on enumerated witnesses: erasing the ctl
/// primitives from a legal interleaving and replaying it under the pure
/// default protocol reaches the same sequential outcome.
#[test]
fn contract_bypass_is_invisible() {
    let cfg = ModelConfig::small(Proto::Eager).with_depth(depth());
    let verified = contract_invisibility(&cfg, 5, 50);
    assert!(
        verified >= 10,
        "too few invisibility witnesses verified: {verified}"
    );
}
