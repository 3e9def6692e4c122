//! Where each must-catch [`Fault`] is caught: by the differential
//! fuzzer's engine-level oracle ([`crate::check_spec`]), by the
//! `fgdsm-model` checker's mutation sweep (a minimal counterexample
//! trace), or by both. The faults themselves are defined once, in
//! `fgdsm-protocol`; a fault whose symptom the engine's layouts never
//! produce (e.g. [`Fault::StaleOwnerPush`], which needs a third-party
//! home) is still must-catch — at the model level.

use fgdsm_protocol::Fault;

/// Where a seeded fault is provably detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detector {
    /// The engine-level differential oracle ([`crate::check_spec`])
    /// reports a divergence or a loud failure.
    Engine,
    /// The `fgdsm-model` bounded checker finds an invariant-violating
    /// interleaving and prints a minimal counterexample trace.
    Model,
    /// Both harnesses catch it independently.
    Both,
}

/// Where `f` is provably caught. Wire faults only exist below the
/// model's level of abstraction, so the model sweep covers the
/// data-movement mutations and the engine suite covers the rest.
pub fn detected_by(f: Fault) -> Detector {
    match f {
        Fault::SkewSendRange | Fault::SkipFlushRange => Detector::Both,
        // `UndercountMetrics` never changes data movement, so the model
        // has nothing to observe; the engine oracle's
        // metrics-conservation invariant is its only detector. The
        // inspector memo of `StaleResolveSchedule`, the walk's scan of
        // lost homed blocks and its like-runs are engine state the model
        // has no counterpart of.
        Fault::CorruptEnvelope
        | Fault::CorruptFrameLen
        | Fault::UndercountMetrics
        | Fault::StaleResolveSchedule
        | Fault::LostHomeSkipped
        | Fault::RunCrossesHome => Detector::Engine,
        // Engine layouts keep owner == home for pushed ranges, so the
        // symptom needs the model's 3-node third-party-home states.
        Fault::StaleOwnerPush => Detector::Model,
    }
}
