#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
# Runs offline — no network, no external services.
set -eux

cargo build --release
# Tier-1 suite under both superstep parallelism modes: serial and 4
# threads (FGDSM_PAR drives the compute phase AND the resolve phase's
# plan/apply stage). Reports are virtual-time and must be identical
# either way.
FGDSM_PAR=0 cargo test -q
FGDSM_PAR=4 cargo test -q
cargo test -q --workspace
# Profile-report smoke: the jacobi run self-asserts a well-formed
# Chrome-trace export, a per-loop table that sums exactly to the
# whole-run report, and the co-residency (false-sharing) demo; the
# emitted table must be non-empty. The Chrome export written via
# FGDSM_CHROME must also be byte-identical between serial and threaded
# runs (the in-process determinism suite checks the same property for
# every app and backend).
FGDSM_TEST=1 FGDSM_PROFILE_OUT=target/profile_smoke.json \
    FGDSM_CHROME=target/profile_chrome_par0.json FGDSM_PAR=0 \
    cargo run --release -q -p fgdsm-bench --bin profile_report -- jacobi \
    > target/profile_report_smoke.txt
grep -q "sweep" target/profile_report_smoke.txt
FGDSM_TEST=1 FGDSM_PROFILE_OUT=target/profile_smoke.json \
    FGDSM_CHROME=target/profile_chrome_par4.json FGDSM_PAR=4 \
    cargo run --release -q -p fgdsm-bench --bin profile_report -- jacobi > /dev/null
cmp target/profile_chrome_par0.json target/profile_chrome_par4.json
# Wire-format determinism: the whole determinism suite again with every
# backend forced through envelope encode/decode (FGDSM_WIRE=strict), and
# the chan profile-report smoke with its wire-accounting invariants
# (frames > 0, payload <= cluster bytes_sent, clean heatmap attribution).
FGDSM_WIRE=strict cargo test -q -p fgdsm-bench --test determinism
FGDSM_TEST=1 FGDSM_BACKEND=chan FGDSM_PROFILE_OUT=target/profile_chan_smoke.json \
    cargo run --release -q -p fgdsm-bench --bin profile_report -- jacobi \
    > target/profile_chan_smoke.txt
grep -q "wire:" target/profile_chan_smoke.txt
# Socket-backed runtime gate: probe whether the sandbox allows sockets
# (TCP loopback first, Unix-domain fallback) with the node binary's
# probe mode, then run the tcp suites over real node processes — fault
# tolerance (a killed/wedged node must yield a typed error, no hang, no
# partial artifact), wire accounting with cross-process ByeStats
# reconciliation, whole-suite byte-identity against sm_opt, and the
# profile-report smoke with its predicted-vs-measured latency table.
# A sandbox with no sockets logs the skip and stays green (the test
# gates themselves also self-skip via tcp_available()).
if ./target/release/fgdsm-node --probe tcp; then
    FGDSM_NET=tcp
elif ./target/release/fgdsm-node --probe uds; then
    echo "ci: TCP loopback binds forbidden; falling back to Unix-domain sockets"
    FGDSM_NET=uds
else
    echo "ci: sandbox forbids sockets; skipping the tcp runtime gate"
    FGDSM_NET=
fi
if [ -n "$FGDSM_NET" ]; then
    export FGDSM_NET
    cargo test -q --test tcp_fault -- --nocapture
    cargo test -q -p fgdsm-bench --test wire_tcp
    cargo test -q -p fgdsm-bench --test determinism tcp_is_byte_identical_to_sm_opt
    # Telemetry gate: canonical artifacts byte-identical metrics on/off,
    # and a metered tcp suite populating per-class histograms on both
    # sides of the socket, conserving payload accounting, and splicing a
    # merged coordinator+worker Perfetto trace the JSON parser accepts.
    cargo test -q -p fgdsm-bench --test telemetry
    # The tcp profile-report smoke additionally self-asserts the
    # calibration rows (Table-1 predicted vs measured histograms) and the
    # merged Chrome document; scratch output paths keep the committed
    # bench-scale calibration.json and the merged-trace export untouched.
    FGDSM_TEST=1 FGDSM_BACKEND=tcp FGDSM_PROFILE_OUT=target/profile_tcp_smoke.json \
        FGDSM_CALIB_OUT=target/calibration_smoke.json \
        FGDSM_MERGED_CHROME=target/merged_chrome_smoke.json \
        cargo run --release -q -p fgdsm-bench --bin profile_report -- jacobi \
        > target/profile_tcp_smoke.txt
    grep -q "predicted vs measured wire latency" target/profile_tcp_smoke.txt
    grep -q "calibration" target/profile_tcp_smoke.txt
    unset FGDSM_NET
fi
# Host-time smoke: fgbench (benchmark/, a package of its own — invoked
# here, never edited) must build against this tree's public API, pass
# its unit tests, and complete its ~30 s --quick set with every execute
# checked bitwise against the reference. Host-time *numbers* are gated
# by the pipeline's parent-vs-change fgbench run, not asserted here.
cargo test -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick
# Bounded model checker: exhaustive small-model closure of the abstract
# coherence protocol + §4.2 contract (both protocol variants), the
# must-catch mutation sweep (each seeded bug yields a minimal printed
# counterexample), and conformance replays of enumerated sequences
# through the real Dsm on the fast path and the chan wire path.
cargo test -q -p fgdsm-model
# Differential fuzz corpus: a fixed seed corpus (200 cases unless the
# caller overrides FGDSM_FUZZ_CASES) through reference vs all backends.
# A failure prints the failing seed and a shrunk standalone reproducer.
cargo test -q --test fuzz_corpus -- --nocapture
# A 50-case slice of the same corpus with the strict wire mode forced on
# the whole oracle matrix — cheap insurance that envelope routing stays
# divergence-free under randomized programs, not just the curated suite.
FGDSM_WIRE=strict FGDSM_FUZZ_CASES=50 cargo test -q --test fuzz_corpus -- --nocapture
# Property suites (proptest is an optional, offline-vendored dev feature).
cargo test -q --workspace \
    --features fgdsm-section/proptest,fgdsm-tempest/proptest,fgdsm-protocol/proptest,fgdsm-hpf/proptest
cargo clippy --all-targets -- -D warnings
cargo fmt --check
