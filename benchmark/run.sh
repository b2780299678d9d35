#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (offline, from
# source, into $CARGO_TARGET_DIR or benchmark/target) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, each in a child process of its own: untraced for the
#       end-to-end metrics, then traced for the per-layer metrics. Prints
#       every metric by name with its unit, checks outputs, exits nonzero on
#       any failed check, and gathers the runs in benchmark/out/results-seed<N>.json.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result object.
#   benchmark/run.sh compare A.json B.json      (see compare.sh)
#   benchmark/run.sh manifest                   prints BENCHMARK.json
#
# Run it from the root of the repository.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: stdout ends with the result object.
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
case "${1:-}" in
    compare | manifest) exec "$target/release/edm-benchmark" "$@" ;;
    *) exec "$target/release/edm-benchmark" --out-dir "$here/out" "$@" ;;
esac
