#!/usr/bin/env bash
# The round's ruler: non-test, non-comment, non-blank lines, each file
# counted up to its top-level `#[cfg(test)]`; a file whose `mod` is itself
# declared under `#[cfg(test)]` (a test-only oracle) is not counted at all.
# Prints per-crate totals, the five largest files of `core`, the
# `Cloud4Home` field count, and the workspace-internal dependency edges.
# With `--gate` (CI's lint job), fails when the largest file of `core`, the
# field count or the edge count is over its limit, or when
# `crates/telemetry/src` names one of `core`'s op types: `telemetry` is the
# recorder alone (its event log and exporters, the histogram, the gauge
# series), and op concepts stay in `core`.
set -euo pipefail
max_core_file=1100
max_fields=24
max_edges=25
core_op_types='CauseKind|LedgerEvent|OpLedger|LEDGER_NONE|FlightRecorder|Postmortem|SlidingHistogram|OpKind|StageSpan'
cd "$(dirname "${BASH_SOURCE[0]}")/.."

lines() {
    awk '/^#\[cfg\(test\)\]/{exit} {l=$0; sub(/^[ \t]+/,"",l); if(l==""||l~/^\/\//)next; n++} END{print n+0}' "$1"
}

# The product source files under a directory: every `.rs` file except the
# test-only modules, i.e. `#[cfg(test)]` followed by `mod name;` in the
# parent (`name.rs` or `name/` beside `lib.rs`/`main.rs`/`mod.rs`, under
# `parent/` otherwise).
product_files() {
    local skip
    skip=$(find "$1" -name '*.rs' | while IFS= read -r f; do
        d=$(dirname "$f")
        b=$(basename "$f" .rs)
        case $b in lib | main | mod) ;; *) d="$d/$b" ;; esac
        awk -v d="$d" '
            /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { t = 1; next }
            t && /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
                m = $0; sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", m); sub(/;.*/, "", m)
                print d "/" m ".rs"; print d "/" m "/"
            }
            { t = 0 }' "$f"
    done)
    find "$1" -name '*.rs' | while IFS= read -r f; do
        keep=1
        while IFS= read -r s; do
            [ -n "$s" ] && case $f in "$s"*) keep=0 ;; esac
        done <<< "$skip"
        [ "$keep" = 1 ] && echo "$f"
    done
}

all=0
for c in crates/*/; do
    t=0
    while IFS= read -r f; do t=$((t + $(lines "$f"))); done < <(product_files "${c%/}/src")
    echo "$t ${c%/}"
    all=$((all + t))
done
echo "$all total"

echo "largest files in core:"
largest=$(product_files crates/core/src | while IFS= read -r f; do echo "$(lines "$f") $f"; done | sort -rn | head -5)
echo "$largest"

# Fields of `pub struct Cloud4Home { .. }`: lines that declare `name: Type,`.
fields=$(awk '/^pub struct Cloud4Home \{/{on=1;next} on&&/^\}/{exit} on&&/^    (pub(\([a-z]+\))? )?[a-z_0-9]+: /{n++} END{print n+0}' crates/core/src/runtime.rs)
echo "Cloud4Home fields: $fields"

# Coupling: the `c4h-*` and `cloud4home` lines under `[dependencies]` in
# the crates' manifests (dev-dependencies are not edges).
edges=$(awk 'FNR == 1 { on = 0 } /^\[/ { on = ($0 == "[dependencies]"); next }
    on && /^(c4h-|cloud4home)/ { n++ } END { print n + 0 }' crates/*/Cargo.toml)
echo "internal dependency edges: $edges"

if [ "${1:-}" = --gate ]; then
    top=${largest%% *}
    [ "$top" -le "$max_core_file" ] || { echo "gate: largest core file has $top lines (limit $max_core_file)" >&2; exit 1; }
    [ "$fields" -le "$max_fields" ] || { echo "gate: Cloud4Home has $fields fields (limit $max_fields)" >&2; exit 1; }
    [ "$edges" -le "$max_edges" ] || { echo "gate: $edges internal dependency edges (limit $max_edges)" >&2; exit 1; }
    if grep -rnwE "$core_op_types" crates/telemetry/src >&2; then
        echo "gate: crates/telemetry/src names core's op types (above)" >&2
        exit 1
    fi
fi
