#!/usr/bin/env bash
# Builds the `serve` binary and the benchmark harness from this checkout,
# then runs the harness from the repository root.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick]
#   benchmark/run.sh pin
#   benchmark/run.sh compare --base RUN.json... --change RUN.json...
#
# Without --workload every workload runs, each in its own process.
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the root).
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "run.sh: no workspace (Cargo.toml and crates/) next to benchmark/" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p lvp-bench --bin serve
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

bin="$CARGO_TARGET_DIR/release/benchmark"
case "${1:-}" in
    pin | compare) exec "$bin" "$@" ;;
    *) exec "$bin" run --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@" ;;
esac
