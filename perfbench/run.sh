#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload <serve_trickle|serve_burst|search|mc> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own output goes to stderr, so the last
# line on stdout is the benchmark's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p dispersal-bench --bin dispersal >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# Exit status 4: a library call stalled (see src/watchdog.rs); 5: the
# load generator fell behind, so the run is invalid. Either way run again,
# three times at most; each stalled call counts as attempted and failed.
bench="$CARGO_TARGET_DIR/release/perfbench"
stalls=0
for attempt in 1 2 3 4; do
    status=0
    "$bench" "$@" --stalls "$stalls" || status=$?
    case "$status" in
        4) stalls=$((stalls + 1)) ;;
        5) ;;
        *) exit "$status" ;;
    esac
    echo "perfbench: attempt $attempt ended with status $status; running again" >&2
done
exit "$status"
