#!/usr/bin/env bash
# Schema and exit-code check a CI lane can call: every workload end to
# end plus one traced run, at 1 slice of 100 ms per configuration (the
# numbers mean nothing at that length), and one run that must fail.
# Under 15 s once built. Run it from the repository root.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
quick=(--seed 1 --seconds 1 --slice-ms 100 --slices 1)

for w in solo read_only read_mostly write_heavy kv_cache; do
    bash "$here/run.sh" --workload "$w" "${quick[@]}" --trace 0 | tail -n 1 |
        "$target/release/oll-benchmark" check --trace 0
done
bash "$here/run.sh" --workload solo "${quick[@]}" --trace 1 | tail -n 1 |
    "$target/release/oll-benchmark" check --trace 1

if bash "$here/run.sh" --workload no_such_workload "${quick[@]}" --trace 0 >/dev/null 2>&1; then
    echo "smoke: a run of an unknown workload must exit non-zero" >&2
    exit 1
fi
echo "smoke: ok"
