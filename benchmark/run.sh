#!/usr/bin/env bash
# The benchmark's one command. Builds the root package (for the
# `fgdsm-node` worker binary the tcp backend spawns) and `fgbench`,
# then runs one of:
#
#   run.sh                       full set: 5 rounds x 6 workloads + traced pass,
#                                every metric printed, benchmark/out/result.json
#   run.sh --quick               smoke: 1 round x 3 samples, ladder medians of 1
#   run.sh --selfcheck           full set twice on this tree, then compare; fails
#                                unless every pairing is ok
#   run.sh compare <a> <b>       two result files against BENCHMARK.json's bounds
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                one run in the BENCHMARK.json driver contract:
#                                the last line of stdout is the result object
#
# Other options of the full set (--rounds, --seconds, --seed, --out) pass
# through to `fgbench all`. Everything but results goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "run.sh: $root is not the fgdsm repository (no Cargo.toml and crates/); nothing to benchmark" >&2
    exit 2
fi

# One target directory for both builds when the caller names one (the
# driver does); otherwise each package keeps its own default.
root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline >&2
CARGO_TARGET_DIR="$bench_target" cargo build --release --offline \
    --manifest-path benchmark/Cargo.toml >&2

abs() { case "$1" in /*) echo "$1" ;; *) echo "$root/$1" ;; esac; }
export FGDSM_NODE_BIN="$(abs "$root_target")/release/fgdsm-node"
fgbench="$(abs "$bench_target")/release/fgbench"

case "${1:-}" in
    --workload) exec "$fgbench" "$@" ;;
    compare) exec "$fgbench" "$@" ;;
    --selfcheck)
        shift
        "$fgbench" all "$@" --out benchmark/out/selfcheck_a.json
        "$fgbench" all "$@" --out benchmark/out/selfcheck_b.json
        exec "$fgbench" compare benchmark/out/selfcheck_a.json benchmark/out/selfcheck_b.json
        ;;
    # A caller's own --out comes first and wins.
    --quick) exec "$fgbench" all "$@" --out benchmark/out/quick.json ;;
    *) exec "$fgbench" all "$@" --out benchmark/out/result.json ;;
esac
