#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--trace 0|1]
#   benchmark/run.sh calib [--runs N]
#
# Builds the release seqd, sequence-rtg and seqbench binaries (untimed) into
# one target directory, then runs seqbench, which drives the first two as
# child processes. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
# Cargo's progress goes to stderr; stdout carries only seqbench's results.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p seqd --bin seqd -p sequence-rtg --bin sequence-rtg
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/seqbench" --out "$here/out" "$@"
