#!/usr/bin/env bash
# The round's ruler: non-test, non-comment, non-blank lines, each file
# counted up to its top-level `#[cfg(test)]`. Prints per-crate totals, the
# five largest files of `core`, and the `Cloud4Home` field count. With
# `--gate` (CI's lint job), fails when the largest file of `core` or the
# field count is over its limit.
set -euo pipefail
max_core_file=1100
max_fields=24
cd "$(dirname "${BASH_SOURCE[0]}")/.."

lines() {
    awk '/^#\[cfg\(test\)\]/{exit} {l=$0; sub(/^[ \t]+/,"",l); if(l==""||l~/^\/\//)next; n++} END{print n+0}' "$1"
}

all=0
for c in crates/*/; do
    t=0
    while IFS= read -r f; do t=$((t + $(lines "$f"))); done < <(find "$c/src" -name '*.rs')
    echo "$t ${c%/}"
    all=$((all + t))
done
echo "$all total"

echo "largest files in core:"
largest=$(find crates/core/src -name '*.rs' | while IFS= read -r f; do echo "$(lines "$f") $f"; done | sort -rn | head -5)
echo "$largest"

# Fields of `pub struct Cloud4Home { .. }`: lines that declare `name: Type,`.
fields=$(awk '/^pub struct Cloud4Home \{/{on=1;next} on&&/^\}/{exit} on&&/^    (pub(\([a-z]+\))? )?[a-z_0-9]+: /{n++} END{print n+0}' crates/core/src/runtime.rs)
echo "Cloud4Home fields: $fields"

if [ "${1:-}" = --gate ]; then
    top=${largest%% *}
    [ "$top" -le "$max_core_file" ] || { echo "gate: largest core file has $top lines (limit $max_core_file)" >&2; exit 1; }
    [ "$fields" -le "$max_fields" ] || { echo "gate: Cloud4Home has $fields fields (limit $max_fields)" >&2; exit 1; }
fi
