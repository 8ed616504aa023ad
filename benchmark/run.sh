#!/usr/bin/env bash
# The repository's benchmark entry point (BENCHMARK.json names this file).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one contract run
#   benchmark/run.sh [--seed N] [--smoke] [--check-repeat]           the whole suite
#   benchmark/run.sh --print-benchmark-json                          BENCHMARK.json's text
#
# Builds the benchmark package (and, through its path dependencies, the
# serving stack) from source with the release profile, then runs it.
# Everything it writes lands in benchmark/out/ and the cargo target dir.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# stdout belongs to the benchmark's report; cargo's chatter goes to stderr.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

rustc_version="$(rustc --version 2>/dev/null || echo unknown)"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec "$target/release/e2nvm-benchmark" \
    --out "$here/out" --rustc "$rustc_version" --commit "$commit" "$@"
