#!/usr/bin/env bash
# Builds spot-server (from the repository workspace) and the perfbench
# binary, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload direct-closed --seed 1 --seconds 30 --trace 0
#
# The last line of standard output is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p spot-bench --bin spot-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/spot-server" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
