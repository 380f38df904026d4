#!/usr/bin/env bash
# Crash-point recovery matrix across real process boundaries.
#
# For each durable-write index K, runs the release binary under a seeded
# `crash-at-write-K` disk-fault plan (the process aborts with exit code
# 86 at the K-th checkpoint write — before it, mid-write with a torn
# temp file, or after the commit rename, drawn from the seed), restarts
# with --resume against whatever the crash left on disk, and asserts the
# recovered --json summary is byte-identical to an uninterrupted run's.
# Both durable-state consumers are swept: `squatphi watch` (watermark
# checkpoints) and `squatphi repro` (stage checkpoints).
#
# The in-process half of the matrix (panicking crash hook, every K,
# 1/4/8 threads) lives in crates/core/tests/durable_state.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

CRASH_EXIT=86
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cargo build --release -p squatphi-cli
SQUATPHI=target/release/squatphi
REPRO="$SQUATPHI repro"

# -- watch: watermark checkpoints ------------------------------------------

"$SQUATPHI" watch --seed 7 --events 1000 --json > "$WORK/watch-baseline.json"

for k in 1 2 3 4 5; do
    dir="$WORK/watch-ckpt-$k"
    set +e
    "$SQUATPHI" watch --seed 7 --events 1000 --checkpoint "$dir" \
        --disk-faults "crash-at-write-$k" --disk-fault-seed "$k" \
        > /dev/null 2> "$WORK/watch-crash-$k.log"
    status=$?
    set -e
    if [ "$status" -ne "$CRASH_EXIT" ]; then
        echo "crash_matrix: watch K=$k exited $status, expected $CRASH_EXIT" >&2
        cat "$WORK/watch-crash-$k.log" >&2
        exit 1
    fi
    "$SQUATPHI" watch --seed 7 --events 1000 --checkpoint "$dir" --resume --json \
        > "$WORK/watch-resumed-$k.json"
    if ! cmp "$WORK/watch-baseline.json" "$WORK/watch-resumed-$k.json"; then
        echo "crash_matrix: watch K=$k resumed summary diverged" >&2
        exit 1
    fi
    echo "crash_matrix: watch K=$k crashed and recovered byte-identically"
done

# -- repro: stage checkpoints (scan, crawl, train) -------------------------

$REPRO --scale 2000 --threads 1 --json \
    > "$WORK/repro-baseline.json" 2> "$WORK/repro-baseline.log"

for k in 1 2 3; do
    dir="$WORK/repro-ckpt-$k"
    set +e
    $REPRO --scale 2000 --threads 1 --checkpoint "$dir" \
        --disk-faults "crash-at-write-$k" --disk-fault-seed "$k" --json \
        > /dev/null 2> "$WORK/repro-crash-$k.log"
    status=$?
    set -e
    if [ "$status" -ne "$CRASH_EXIT" ]; then
        echo "crash_matrix: repro K=$k exited $status, expected $CRASH_EXIT" >&2
        cat "$WORK/repro-crash-$k.log" >&2
        exit 1
    fi
    $REPRO --scale 2000 --threads 1 --checkpoint "$dir" --resume --json \
        > "$WORK/repro-resumed-$k.json" 2> "$WORK/repro-resume-$k.log"
    if ! cmp "$WORK/repro-baseline.json" "$WORK/repro-resumed-$k.json"; then
        echo "crash_matrix: repro K=$k resumed summary diverged" >&2
        exit 1
    fi
    echo "crash_matrix: repro K=$k crashed and recovered byte-identically"
done

echo "crash_matrix: OK (all crash points recovered byte-identically)"
