#!/usr/bin/env bash
# Build the benchmark (release) and run one measurement.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Cargo's output goes to stderr; stdout carries the manifest line and, last,
# the JSON result line. Seeded data and scratch files live in perfbench/work.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2
exec "$target/release/perfbench" --work "$here/work" "$@"
