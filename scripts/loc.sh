#!/usr/bin/env bash
# Non-test line count of the library sources: every `.rs` file under
# `crates/*/src` except `crates/compat` and files named `tests.rs`, each
# read up to (not including) its first column-0 `#[cfg(test)]`.  Prints
# one line per crate and a total.  Usage: scripts/loc.sh [repo-root]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

total=0
for dir in crates/*/; do
    name="$(basename "$dir")"
    [ "$name" = compat ] || [ ! -d "$dir/src" ] && continue
    n=$(find "$dir/src" -name '*.rs' ! -name tests.rs -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
