#!/usr/bin/env bash
# Builds `ndet` and the benchmark harness from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload worst-sweep --seed 1 --seconds 15 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default: target/); caches and
# traces of the run go to its perfbench/ subdirectory.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cd "$root"

cargo build --release --offline --quiet --bin ndet >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --ndet "$target/release/ndet" --out "$target/perfbench" "$@"
