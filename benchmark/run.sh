#!/usr/bin/env bash
# The repo benchmark's one command: build the benchmark package from source,
# then run it.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# The result line is the last line of stdout; everything else goes to
# stderr. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR means relative to where we were called from.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Trace files land in benchmark/out, relative to the repo root.
cd "$here/.."
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# A run that does not reach quiescence is a failed output check, not a hang.
if command -v timeout >/dev/null 2>&1; then
    exec timeout 170 "$target/release/c4h-benchmark" "$@"
fi
exec "$target/release/c4h-benchmark" "$@"
