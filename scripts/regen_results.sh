#!/usr/bin/env bash
# Regenerate the committed measurement artifacts from the evaluation
# binaries, so the checked-in numbers can always be reproduced (and
# refreshed) with one command on the current machine:
#
#   fig5_results.txt / fig5_results.csv   full Figure 5 sweep
#   BENCH_async.json                      the million-task async drain
#
# Everything about how fast the locks are and what one lock option
# costs — end to end, per layer, with a noise bound and a machine
# fingerprint — is benchmark/run.sh's to say (see benchmark/README.md);
# it leaves no file here.
#
# Usage:  ./scripts/regen_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building release binaries"
cargo build --release -p oll-workloads --features async

echo "==> fig5_results.{txt,csv}: full panel sweep"
target/release/fig5 --panel all --threads 1,2,4,8,16 --runs 3 \
    --csv fig5_results.csv | tee fig5_results.txt

echo "==> BENCH_async.json: 1M tasks on 8 workers (fig5_async)"
# The async lock family's headline demonstration: one million
# concurrently queued lock-user tasks on eight worker threads, every
# task granted or cleanly cancelled, zero surplus and zero queued
# waiters at exit.
target/release/fig5_async --tasks 1000000 --workers 8 --json BENCH_async.json
target/release/fig5check BENCH_async.json --expect-async-tasks 1000000

echo "==> done; review the diffs before committing"
