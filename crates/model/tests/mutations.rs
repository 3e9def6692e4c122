//! Must-catch mutation sweep: every seeded protocol/contract bug must
//! produce a violation with a *minimal* counterexample trace, and the
//! printed reproducer must round-trip (parse back and replay to the
//! same violation).

use fgdsm_fuzz::{detected_by, Detector, Fault};
use fgdsm_model::{check, replay, ModelConfig, Mutation, Op, Proto};

/// The checker configuration each mutation needs (some hazards only
/// exist with a third-party node) and the length of the minimal
/// counterexample the BFS must find.
fn arena(m: Mutation) -> (ModelConfig, usize) {
    let base = ModelConfig::small(Proto::Eager).with_depth(6);
    match m {
        // A read miss drops the requester's sharer bit: one read.
        Mutation::ForgottenSharerBit => (base, 1),
        // A steal forgets one reader: read, then a foreign write.
        Mutation::DroppedInvalidate => (base, 2),
        // 4-hop read served before the owner's flush lands: needs a
        // reader that is neither owner nor home.
        Mutation::ReorderedAck => (base.with_nodes(3), 2),
        // Window write never copied home: open, write, flush.
        Mutation::SkipFlushRange => (base, 3),
        // Promise recorded, delivery dropped: write, open, send, recv.
        Mutation::SkewSendRange => (base, 4),
        // Stale push from a third-party home: steal (owner ≠ home),
        // open, send, recv.
        Mutation::StaleOwnerPush => (base.with_nodes(3), 4),
        Mutation::None => unreachable!(),
    }
}

/// The fuzz crate's taxonomy and this sweep agree: a fault routed to the
/// model (alone or with the engine) is a seeded mutation of the same
/// name, and a mutation named like a fault is one routed to the model.
#[test]
fn faults_routed_to_the_model_are_its_mutations() {
    for f in Fault::ALL {
        let routed = matches!(detected_by(f), Detector::Model | Detector::Both);
        let seeded = Mutation::ALL.iter().any(|m| m.name() == f.name());
        assert_eq!(
            seeded,
            routed,
            "{}: a model mutation {seeded}, routed to the model {routed}",
            f.name()
        );
    }
}

#[test]
fn every_mutation_is_caught_with_a_minimal_trace() {
    for m in Mutation::ALL {
        let (cfg, minimal) = arena(m);

        // The same arena must be clean without the mutation — the
        // violation is the bug, not the configuration.
        let clean = check(&cfg);
        assert!(
            clean.violation.is_none(),
            "clean arena for {} found a violation:\n{}",
            m.name(),
            clean.violation.unwrap().render()
        );

        let out = check(&cfg.with_mutation(m));
        let v = out
            .violation
            .unwrap_or_else(|| panic!("mutation {} was not caught", m.name()));
        println!("{}", v.render());
        assert_eq!(
            v.trace.len(),
            minimal,
            "mutation {} caught with a non-minimal trace:\n{}",
            m.name(),
            v.render()
        );
    }
}

/// The counterexample-to-reproducer bridge: the rendered trace parses
/// back into the same ops, and the emitted `#[test]` body's core call —
/// `replay(&cfg, &ops)` — fails exactly as promised.
#[test]
fn reproducer_round_trips() {
    for m in Mutation::ALL {
        let (cfg, _) = arena(m);
        let mutated = cfg.with_mutation(m);
        let v = check(&mutated).violation.expect("mutation must be caught");

        // Display → FromStr round-trip of every op in the trace.
        let reparsed: Vec<Op> = v
            .trace
            .iter()
            .map(|op| op.to_string().parse().unwrap())
            .collect();
        assert_eq!(reparsed, v.trace, "trace of {}", m.name());

        // The reproducer text embeds the same ops and the violation.
        let text = v.reproducer();
        assert!(text.contains("#[test]"), "reproducer is a test");
        assert!(
            text.contains(&format!("Mutation::{m:?}")),
            "reproducer pins the mutation"
        );
        for op in &v.trace {
            assert!(
                text.contains(&format!("\"{op}\"")),
                "reproducer embeds op `{op}`"
            );
        }

        // And the replay it performs does fail.
        let err = replay(&mutated, &v.trace).expect_err("replayed counterexample must fail");
        assert_eq!(err.trace, v.trace);
    }
}

/// A recorded trace replays cleanly when the mutation is off — the
/// interleavings themselves are legal; only the seeded bug breaks them.
#[test]
fn counterexample_traces_are_legal_interleavings() {
    for m in [Mutation::SkewSendRange, Mutation::SkipFlushRange] {
        let (cfg, _) = arena(m);
        let v = check(&cfg.with_mutation(m)).violation.unwrap();
        replay(&cfg, &v.trace).unwrap_or_else(|e| {
            panic!(
                "clean replay of {}'s counterexample failed: {}",
                m.name(),
                e.message
            )
        });
    }
}
