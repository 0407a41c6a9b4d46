#!/usr/bin/env bash
# Build the benchmark once (release, offline), then exec the binary with the
# arguments given. See README.md for the modes:
#   run.sh [--seed N]                 every workload untraced, then traced
#   run.sh --workload W --seed N --seconds S --trace 0|1    one run
#   run.sh --calibrate K              K untraced sets and their spreads
#   run.sh --smoke                    2 s runs with the output oracle on
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
JET_BENCH_RUSTC="$(rustc -V)"
JET_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export JET_BENCH_RUSTC JET_BENCH_COMMIT JET_BENCH_OUT="$here/out"
exec "$target/release/jet-benchmark" "$@"
