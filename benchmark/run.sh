#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. One command for
# both the driver (`--workload W --seed N --seconds S --trace 0|1`, see
# /BENCHMARK.json) and a person:
#
#   benchmark/run.sh [--seed N] [--workload NAME|all] [--seconds S]
#                    [--traced] [--against FILE]
#
# Everything after the build is the binary's own command line; see
# benchmark/README.md. Run it from the repository root.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
export CARGO_TARGET_DIR="$target"
out="$here/out"

traced=0
prev=""
for arg in "$@"; do
    if [ "$arg" = --traced ] || { [ "$prev" = --trace ] && [ "$arg" = 1 ]; }; then
        traced=1
    fi
    prev="$arg"
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
run=("$target/release/oll-benchmark" run --out "$out" --bounds "$here/../BENCHMARK.json")

if [ "$traced" = 1 ]; then
    # Event counts come from a second build with lock telemetry compiled
    # in; it never produces a timing the default build is compared on.
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
        --features telemetry --target-dir "$target/telemetry"
    mkdir -p "$out"
    "$target/telemetry/release/oll-benchmark" counts "$@" >"$out/counts.json"
    run+=(--counts "$out/counts.json")
fi

exec "${run[@]}" "$@"
