#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments (see perfbench/README.md). Build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
