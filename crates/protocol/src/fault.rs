//! The must-catch faults, defined once: every seeded bug of the §4.2
//! contract, the coherence protocol, the wire and the engine that the
//! harnesses must detect — the differential fuzzer's oracle
//! (`fgdsm-fuzz`) or the bounded model checker (`fgdsm-model`). A run
//! arms a [`Faults`] set (`fgdsm_hpf::InjectConfig::faults`) and each
//! check site tests its own variant, so adding a fault is one entry in
//! the `faults!` list below, its arm in the fuzz crate's `detected_by`
//! and its check site.

use std::fmt;

/// Declares [`Fault`] from one list of variants, each with its doc and
/// its name, so `ALL` and `name()` cannot leave one out; `ALL`'s length
/// is written out, and the compiler holds it to the list.
macro_rules! faults {
    ($($(#[$doc:meta])* $fault:ident => $name:literal,)*) => {
        /// One seeded must-catch fault. Each is off unless armed; each
        /// silently breaks one thing the harnesses claim to check.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Fault {
            $($(#[$doc])* $fault,)*
        }

        impl Fault {
            /// Every fault, in declaration order.
            pub const ALL: [Fault; 9] = [$(Fault::$fault),*];

            /// Stable snake_case name, as the harnesses report it.
            pub fn name(self) -> &'static str {
                match self {
                    $(Fault::$fault => $name,)*
                }
            }
        }
    };
}

faults! {
    /// Off-by-one section bound: `send_range` delivers one block fewer
    /// than the contract promised, leaving the readers' last block
    /// writable over stale data — the §3 `a(513,1)`/`a(1,2)` failure
    /// mode. Acts inside `plan_sends`, so a kept schedule and a direct
    /// `send_range` misbehave alike.
    SkewSendRange => "skew_send_range",
    /// `flush_range` skipped entirely: a non-owner writer's
    /// modifications never reach the owner, so later owner-side sends
    /// push stale data.
    SkipFlushRange => "skip_flush_range",
    /// One shot: flip a version bit in the first frame delivered in
    /// strict wire mode (a carrier or `WireMode::Strict`). The one
    /// decoder ([`crate::WireView::parse`]) must reject it with a typed
    /// error and fail the run loudly — a vacuous decoder would apply the
    /// intact payload and diverge from nothing.
    CorruptEnvelope => "corrupt_envelope",
    /// One shot: the coordinator overwrites the length prefix of the
    /// first data frame it writes to a node with an oversized value, on
    /// either carrier (`chan` or `tcp`). The node's framing layer must
    /// reject it against [`crate::MAX_MESSAGE_BYTES`] before allocating,
    /// and the run must fail loudly.
    CorruptFrameLen => "corrupt_frame_len",
    /// `send_range` pushes the *home's* copy instead of the recorded
    /// exclusive owner's whenever the home is a third party: the §4.3
    /// RTOE hazard, a stale owner memo pushing a copy that was never
    /// flushed home.
    StaleOwnerPush => "stale_owner_push",
    /// One shot: skip the coordinator's per-class `payload_bytes`
    /// telemetry counter for the first envelope encoded while metrics
    /// are on. Data, the double-entry books and every canonical artifact
    /// stay correct, so only the metrics-conservation invariant (Σ
    /// per-class payload counters == the wire's payload total) can catch
    /// it.
    UndercountMetrics => "undercount_metrics",
    /// The default-protocol schedule's slot ignores its key after its
    /// first build, so every later instance walks the first one's
    /// covers — of a symbolic loop whose sections moved, of an indirect
    /// loop whose index array was rewritten — and blocks only the new
    /// ones reach are never made accessible.
    StaleResolveSchedule => "stale_resolve_schedule",
    /// The default walk visits only a schedule's kept ranges and never
    /// scans for the blocks a node lost of the pages homed at it: a home
    /// that a non-owner's write or a reader's downgrade took a block from
    /// computes from its stale copy.
    LostHomeSkipped => "lost_home_skipped",
    /// The eager protocol's like-run of faults ignores its home bound: a
    /// reader's run across two homes' adjacent pages services the second
    /// home's blocks as if the first held them, so their directory names
    /// the wrong home and their home never receives the owner's flush.
    RunCrossesHome => "run_crosses_home",
}

impl Fault {
    fn bit(self) -> u16 {
        1 << self as u16
    }
}

const _: () = assert!(Fault::ALL.len() <= u16::BITS as usize, "a Faults holds 16");

/// A set of armed [`Fault`]s, empty by default. `Copy`, so every layer
/// holds its own: the one-shot faults [`take`](Faults::take) themselves
/// out of the copy that fires them.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults(u16);

impl Faults {
    /// This set with `f` armed too.
    pub fn with(self, f: Fault) -> Faults {
        Faults(self.0 | f.bit())
    }

    /// Is `f` armed?
    pub fn has(self, f: Fault) -> bool {
        self.0 & f.bit() != 0
    }

    /// Disarm `f`, saying whether it was armed: a one-shot fault fires
    /// where this returns `true`, once.
    pub fn take(&mut self, f: Fault) -> bool {
        let armed = self.has(f);
        self.0 &= !f.bit();
        armed
    }
}

impl fmt::Debug for Faults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let armed = Fault::ALL.into_iter().filter(|&x| self.has(x));
        f.debug_set().entries(armed.map(Fault::name)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ALL` lists every variant once, in declaration order: the match
    /// has no wildcard, so a new variant does not compile here until it
    /// is given a slot, and `ALL` must agree with every slot and with
    /// the discriminants.
    #[test]
    fn all_lists_every_variant_once() {
        let slot = |f: Fault| match f {
            Fault::SkewSendRange => 0,
            Fault::SkipFlushRange => 1,
            Fault::CorruptEnvelope => 2,
            Fault::CorruptFrameLen => 3,
            Fault::StaleOwnerPush => 4,
            Fault::UndercountMetrics => 5,
            Fault::StaleResolveSchedule => 6,
            Fault::LostHomeSkipped => 7,
            Fault::RunCrossesHome => 8,
        };
        for (i, f) in Fault::ALL.into_iter().enumerate() {
            assert_eq!((slot(f), f as usize), (i, i), "{f:?}");
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        for (i, a) in Fault::ALL.into_iter().enumerate() {
            let name = a.name();
            assert!(name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'));
            for b in &Fault::ALL[i + 1..] {
                assert_ne!(name, b.name(), "{a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn with_and_has_round_trip() {
        assert!(Fault::ALL.iter().all(|&f| !Faults::default().has(f)));
        for f in Fault::ALL {
            let one = Faults::default().with(f);
            for g in Fault::ALL {
                assert_eq!(one.has(g), f == g, "{f:?} armed, {g:?} asked");
            }
            assert_eq!(one.with(f), one, "arming twice is arming once");
        }
        let all = Fault::ALL.into_iter().fold(Faults::default(), Faults::with);
        assert!(Fault::ALL.iter().all(|&f| all.has(f)));
    }

    #[test]
    fn take_fires_once_and_clears_only_its_own() {
        let both = Faults::default()
            .with(Fault::CorruptEnvelope)
            .with(Fault::UndercountMetrics);
        let mut set = both;
        assert!(set.take(Fault::CorruptEnvelope));
        assert!(!set.take(Fault::CorruptEnvelope), "a second shot");
        assert_eq!(set, Faults::default().with(Fault::UndercountMetrics));
        assert!(!set.take(Fault::CorruptFrameLen), "never armed");
        assert!(set.take(Fault::UndercountMetrics));
        assert_eq!(set, Faults::default());
        assert_eq!(
            format!("{both:?}"),
            r#"{"corrupt_envelope", "undercount_metrics"}"#
        );
    }
}
