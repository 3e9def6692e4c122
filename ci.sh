#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
# Runs offline — no network, no external services.
set -eux

cargo build --release
# The frozen surface first: fgbench (benchmark/, never edited) compiles
# against this tree's public API, so an accidental break fails here in
# seconds instead of after the workspace test run.
cargo check -q --all-targets --manifest-path benchmark/Cargo.toml
# Every suite, once. Modes (serial/threaded, fast/strict wire, metered,
# chan/tcp/uds carriers) are ExecConfig values the tests name themselves:
# the determinism matrices, the fuzz corpus with its strict and tcp
# slices, node fault tolerance, wire accounting, telemetry, the model
# checker and the property suites all run here. Socket-backed tests
# self-skip with a notice where the sandbox forbids sockets.
cargo test -q --workspace
# Profile-report smokes, one per carrier: each run self-asserts a
# well-formed Chrome export, a per-loop table that sums exactly to the
# whole-run report and the co-residency demo; chan adds the wire
# accounting invariants, tcp the calibration rows and the merged
# coordinator+worker Chrome document (or a notice where the sandbox
# forbids sockets). --out-dir keeps the committed bench-scale artifacts
# untouched.
FGDSM_TEST=1 cargo run --release -q -p fgdsm-bench --bin profile_report -- \
    --backend chan --out-dir target/profile_smoke_chan jacobi > target/profile_smoke_chan.txt
grep -q "sweep" target/profile_smoke_chan.txt
grep -q "wire:" target/profile_smoke_chan.txt
grep -q "batches" target/profile_smoke_chan.txt
FGDSM_TEST=1 cargo run --release -q -p fgdsm-bench --bin profile_report -- \
    --backend tcp --out-dir target/profile_smoke_tcp jacobi > target/profile_smoke_tcp.txt
grep -q "predicted vs measured wire latency\|sandbox forbids sockets" target/profile_smoke_tcp.txt
# Host-time smoke: fgbench (benchmark/, a package of its own — invoked
# here, never edited) must build against this tree's public API, pass
# its unit tests, and complete its ~30 s --quick set with every execute
# checked bitwise against the reference. Host-time *numbers* are gated
# by the pipeline's parent-vs-change fgbench run, not asserted here.
cargo test -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick
cargo clippy --all-targets -- -D warnings
cargo fmt --check
# Tree size, measured here so ROADMAP and CHANGES quote the gate's
# numbers instead of hand counts: non-test .rs lines (each file up to its
# `#[cfg(test)]`) under crates/*/src and src/, `#[test]` functions,
# FGDSM_* knobs, `unsafe` sites, caches keyed by an address under
# crates/hpf/src/exec/, suite-kernel lines that still index the
# segment point by point (`ctx.mem[` under crates/apps/src/; the kernels
# walk runs — DESIGN 5c — so what is left should be gathers and boundary
# rows), free lists (`VecPool`/`carcass` under crates/*/src) and ordered
# containers constructed in the contract and message-passing executors.
# Two of them can fail the gate: the per-loop table is indexed by loop
# id, and a loop's address must not come back; resolve executes a
# schedule kept in the plan (DESIGN 5c), so neither may a free list for
# per-superstep plans, nor a map built in an executor.
set +x
lines=$(find crates/*/src src -name '*.rs' -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}' {} +)
tests=$(cat $(find crates src tests -name '*.rs') | grep -c '#\[test\]')
knobs=$(grep -ohE 'FGDSM_[A-Z_]+' crates/tempest/src/knob.rs | sort -u | wc -l)
unsafes=$(cat $(find crates src -name '*.rs') | grep -cE 'unsafe +(\{|fn|impl)')
addrs=$(cat crates/hpf/src/exec/*.rs | grep -c 'as \*const' || true)
points=$(cat crates/apps/src/*.rs | grep -c 'ctx\.mem\[' || true)
pools=$(cat $(find crates/*/src -name '*.rs') | grep -c 'VecPool\|carcass' || true)
maps=$(cat crates/hpf/src/exec/sm_opt.rs crates/hpf/src/exec/mp.rs | grep -c 'BTreeMap\|BTreeSet' || true)
echo "tree-size: $lines non-test .rs lines, $tests #[test], $knobs FGDSM_* knobs, $unsafes unsafe sites, $addrs address-keyed caches under exec/, $points per-point kernel sites, $pools free lists, $maps ordered containers in exec/{sm_opt,mp}.rs"
if grep -rn 'as \*const ParLoop' crates/hpf/src/exec; then
    echo "ci.sh: a per-loop cache keyed by a loop address is back under crates/hpf/src/exec/" >&2
    exit 1
fi
if [ "$pools" -ne 0 ] || [ "$maps" -ne 0 ]; then
    echo "ci.sh: a plan free list ($pools) or an executor-side ordered container ($maps) is back" >&2
    exit 1
fi
