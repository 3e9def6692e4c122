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
# The phase probe: the host ms row as medians of untraced executes.
FGDSM_TEST=1 cargo run --release -q -p fgdsm-bench --bin profile_report -- \
    --phases 3 shallow > target/profile_smoke_phases.txt
grep -q "host ms" target/profile_smoke_phases.txt
# Host-time smoke: fgbench (benchmark/, a package of its own — invoked
# here, never edited) must build against this tree's public API, pass
# its unit tests, and complete its ~30 s --quick set with every execute
# checked bitwise against the reference. Host-time *numbers* are gated
# by the pipeline's parent-vs-change fgbench run, not asserted here.
cargo test -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick
cargo clippy --all-targets -- -D warnings
cargo fmt --check
# Doc links: an intra-doc link that resolves to nothing (or to two
# things) is a doc that points nowhere, and a public doc linking a
# private item points where a reader of the public docs cannot follow,
# so both fail here.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps -q
# Tree size, measured here so ROADMAP and CHANGES quote the gate's
# numbers instead of hand counts: non-test .rs lines (each file up to its
# `#[cfg(test)]`) under crates/*/src and src/, `pub` item declarations
# in that same non-test code, `#[test]` functions, FGDSM_* knobs,
# `unsafe` sites, caches keyed by an address under
# crates/hpf/src/exec/, suite-kernel lines that still index the
# segment point by point (`ctx.mem[` under crates/apps/src/; the kernels
# walk runs — DESIGN 5c — so what is left should be gathers and boundary
# rows), plan free lists (`VecPool`/`carcass` under crates/*/src), fresh
# segment allocations (`vec![0.0` in the non-test part of
# crates/tempest/src/shard.rs and crates/hpf/src/exec/{engine,mp}.rs:
# segment-sized buffers come from the one cross-execute segment arena,
# crates/tempest/src/arena.rs, DESIGN 5), schedules
# an executor builds for one instance instead of taking from its plan's
# slot (`*Schedule::default()` under crates/hpf/src/exec/), ordered
# containers constructed in the contract and message-passing executors,
# `Section`s that keep their dims in a heap `Vec`, point-enumerating
# fallbacks left in `Range`'s set operations (range.rs up to its tests),
# tag arrays (`Vec<Access>` under crates/tempest/src), and block-keyed
# ordered maps and per-twin boxes (`BTreeMap<u32, BlockHeat>` or
# `Box<[f64]>` in the non-test part of crates/{tempest,protocol}/src),
# string-keyed metric sites (`ClassKeys`, `merge_tagged` or
# `BTreeMap<String` in the non-test part of crates/*/src), per-frame
# buffer sites (`Vec<Vec<u8>>` in the non-test part of
# crates/{protocol,net}/src, the one frozen `route` signature excepted),
# and compat names outside compat (`WireMsg`, `WireHeader`, `PoolMode`,
# `resolve_parallel` or `fn route(` in the non-test part of crates/*/src
# and src/ outside crates/*/src/compat.rs, comments included; the
# crate-root `pub use compat::` re-exports, `ExecConfig`'s `pool` and
# `resolve_parallel` fields and their initialisers, and the signature of
# the one provided `WireTransport::route` excepted), and fault fields
# outside the `Fault` enum (a must-catch fault's snake_case name as a
# `pub` field or a `.` field access in the non-test part of
# crates/*/src and src/), beside the number of faults `Fault::ALL`
# holds, and typed unwinds (`panic_any`, or a `downcast` to `WireError`,
# in the non-test part of crates/*/src and src/).
# The `pub` count has no threshold: an item no other crate, example,
# bench, integration test or benchmark/ names is `pub(crate)`, and the
# clippy step above (`-D warnings`, so rustc's dead_code lint fails it)
# is the gate that keeps unused crate-private code from coming back.
# Six of them can fail the gate: the per-loop table is indexed by loop
# id, and a loop's address must not come back; resolve executes a
# schedule kept in the plan (DESIGN 5c), so neither may a free list for
# per-superstep plans, an instance-owned schedule, nor a map built in an
# executor — the one reuse across executes is the segment arena, so a
# segment or gather output allocated beside it fails too; the run-time
# analysis is allocation-free (DESIGN 5c), so `Section` keeps its dims
# inline; and access tags are word bitsets the range walk scans 64
# blocks at a time (DESIGN 5c), so a per-block tag array must not come
# back beside them. A fault, attributed message or pushed block folds
# into block heat with one probe of a block-keyed table, and a twin is a
# slice of one store reused across intervals (DESIGN 5d), so neither a
# tree walk per fold nor a heap box per twin may come back on the fault
# path. Telemetry is a `(stage, class)` table indexed by enum and kind
# byte (DESIGN 5g), so a metric keyed by a string must not come back on
# the metered path. A strict-wire transfer lives in one batch buffer per
# destination from `post` to the socket and is applied in place at both
# ends (DESIGN 5e), so a list of per-frame buffers must not come back
# between the encoder and the link — only the blocking `route` probe,
# whose signature benchmark/ names, still takes and returns one. The
# surface benchmark/ names but no run takes — the owned envelope, the
# blocking route, the pool mode — is a shim built on the production API
# in one `compat` module per crate (DESIGN 5e), so a production path
# must not grow back into it: a compat name outside compat fails. A
# seeded must-catch fault is one `Fault` variant carried as one `Faults`
# set from the config to every check site (DESIGN 8), so a fault written
# again as a field of its own — a bool per fault in a config, an
# injection struct, a copy between them — fails. A wire failure is a
# value: the first one is kept and returned from `Dsm::wire_finish` and
# `engine::run` (DESIGN 5e), and a panic means a bug, so a typed error
# thrown as a panic payload, or caught and downcast back, fails.
set +x
lines=$(find crates/*/src src -name '*.rs' -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}' {} +)
pubs=$(find crates/*/src src -name '*.rs' -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /^[ \t]*pub ((unsafe|const) )*(fn|struct|enum|const|static|trait|type) /{n++} END{print n}' {} +)
tests=$(cat $(find crates src tests -name '*.rs') | grep -c '#\[test\]')
knobs=$(grep -ohE 'FGDSM_[A-Z_]+' crates/tempest/src/knob.rs | sort -u | wc -l)
unsafes=$(cat $(find crates src -name '*.rs') | grep -cE 'unsafe +(\{|fn|impl)')
addrs=$(cat crates/hpf/src/exec/*.rs | grep -c 'as \*const' || true)
points=$(cat crates/apps/src/*.rs | grep -c 'ctx\.mem\[' || true)
pools=$(cat $(find crates/*/src -name '*.rs') | grep -c 'VecPool\|carcass' || true)
owned=$(cat crates/hpf/src/exec/*.rs | grep -cE '(Resolve|Ctl|Mp)Schedule::default\(\)' || true)
maps=$(cat crates/hpf/src/exec/sm_opt.rs crates/hpf/src/exec/mp.rs | grep -c 'BTreeMap\|BTreeSet' || true)
heapdims=$(awk '/^pub struct Section /,/^}/' crates/section/src/section.rs | grep -c 'Vec<' || true)
enums=$(awk '/^#\[cfg\(test\)\]/{exit} /refusing to enumerate/' crates/section/src/range.rs | wc -l)
tagarrays=$(cat crates/tempest/src/*.rs | grep -c 'Vec<Access>' || true)
blockmaps=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /BTreeMap<u32, BlockHeat>|Box<\[f64\]>/{n++} END{print n+0}' $(find crates/tempest/src crates/protocol/src -name '*.rs'))
strkeys=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /ClassKeys|merge_tagged|BTreeMap<String/{n++} END{print n+0}' $(find crates/*/src -name '*.rs'))
framebufs=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /Vec<Vec<u8>>/ && !/fn route\(/{n++} END{print n+0}' $(find crates/protocol/src crates/net/src -name '*.rs'))
compat=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /(^|[^A-Za-z0-9_])(WireMsg|WireHeader|PoolMode)([^A-Za-z0-9_]|$)|resolve_parallel|fn route\(/ && !(FILENAME ~ /\/lib\.rs$/ && /^pub use compat::/) && !(FILENAME ~ /exec\/mod\.rs$/ && /^ *(pub )?(pool|resolve_parallel): /) && !(FILENAME ~ /node\.rs$/ && /^    fn route\(&mut self, dst: usize, frames: Vec<Vec<u8>>\)/){n++} END{print n+0}' $(find crates/*/src src -name '*.rs' ! -name compat.rs))
faultfields=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /(pub |\.)(skew_send_range|skip_flush_range|stale_owner_push|corrupt_envelope|corrupt_frame_len|undercount_metrics|stale_resolve_schedule|lost_home_skipped|run_crosses_home)([^A-Za-z0-9_]|$)/{n++} END{print n+0}' $(find crates/*/src src -name '*.rs'))
unwinds=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /panic_any|downcast(_ref|_mut)?::<[^>]*WireError/{n++} END{print n+0}' $(find crates/*/src src -name '*.rs'))
nfaults=$(grep -oE 'ALL: \[Fault; [0-9]+\]' crates/protocol/src/fault.rs | grep -oE '[0-9]+')
fresh=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /vec!\[0\.0/{n++} END{print n+0}' crates/tempest/src/shard.rs crates/hpf/src/exec/engine.rs crates/hpf/src/exec/mp.rs)
echo "tree-size: $lines non-test .rs lines, $pubs pub items, $tests #[test], $knobs FGDSM_* knobs, $unsafes unsafe sites, $addrs address-keyed caches under exec/, $points per-point kernel sites, $pools free lists, $owned instance-owned schedules, $maps ordered containers in exec/{sm_opt,mp}.rs, $heapdims heap-dim Sections, $enums enumerating fallbacks in range.rs, $tagarrays tag arrays, $fresh fresh segment allocations, $blockmaps block-keyed ordered maps and per-twin boxes, $strkeys string-keyed metric sites, $framebufs per-frame buffer sites, $compat compat names outside compat, $faultfields fault fields outside the enum, $unwinds typed unwinds, $nfaults must-catch faults"
if grep -rn 'as \*const ParLoop' crates/hpf/src/exec; then
    echo "ci.sh: a per-loop cache keyed by a loop address is back under crates/hpf/src/exec/" >&2
    exit 1
fi
if [ "$pools" -ne 0 ] || [ "$owned" -ne 0 ] || [ "$maps" -ne 0 ]; then
    echo "ci.sh: a plan free list ($pools), an instance-owned schedule ($owned) or an executor-side ordered container ($maps) is back" >&2
    exit 1
fi
if [ "$heapdims" -ne 0 ]; then
    echo "ci.sh: Section keeps its dims in a heap Vec again ($heapdims)" >&2
    exit 1
fi
if [ "$tagarrays" -ne 0 ]; then
    echo "ci.sh: a per-block tag array is back under crates/tempest/src ($tagarrays)" >&2
    exit 1
fi
if [ "$fresh" -ne 0 ]; then
    echo "ci.sh: a segment-sized buffer is allocated outside the segment arena ($fresh)" >&2
    exit 1
fi
if [ "$blockmaps" -ne 0 ]; then
    echo "ci.sh: a block-keyed ordered map or a per-twin box is back on the fault path ($blockmaps)" >&2
    exit 1
fi
if [ "$strkeys" -ne 0 ]; then
    echo "ci.sh: a string-keyed metric is back ($strkeys)" >&2
    exit 1
fi
if [ "$framebufs" -ne 0 ]; then
    echo "ci.sh: a per-frame buffer list is back between the wire encoder and the link ($framebufs)" >&2
    exit 1
fi
if [ "$compat" -ne 0 ]; then
    echo "ci.sh: a compat name is used outside the compat modules ($compat)" >&2
    exit 1
fi
if [ "$faultfields" -ne 0 ]; then
    echo "ci.sh: a must-catch fault is a field outside the Fault enum again ($faultfields)" >&2
    exit 1
fi
if [ "$unwinds" -ne 0 ]; then
    echo "ci.sh: a wire error travels as a panic payload again ($unwinds)" >&2
    exit 1
fi
