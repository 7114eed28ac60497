#!/usr/bin/env bash
# Build the library and the `p4testgen` binary from source, then run the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); results
# and spans are written under .bench_build/perfbench/.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -d tests/golden_suites ]]; then
    echo "perfbench: run from the root of a p4testgen checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin p4testgen >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
PERFBENCH_RUSTC="$(rustc --version)" exec "$CARGO_TARGET_DIR/release/perfbench" \
    --p4testgen "$CARGO_TARGET_DIR/release/p4testgen" "$@"
