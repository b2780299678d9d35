#!/usr/bin/env bash
# The line count the simplicity PRs quote ("PR 14's counting rule"), per
# crate and in total over crates/*/src:
#
#   * blank lines and `//` comment lines (doc comments included) do not
#     count;
#   * each .rs file is cut at its top-level `#[cfg(test)]` followed by a
#     `mod` line — the unit-test module and everything after it;
#   * any other top-level `#[cfg(test)]` consumes itself and the next
#     line (a test-only `use` or `thread_local!` opener).
#
# `loc.sh [DIR]` counts the tree rooted at DIR (default: this repo), so
# a parent checkout can be measured with the change's script.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

for crate in crates/*/; do
    find "$crate/src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" '
        FNR == 1 { cut = 0; pending = 0 }
        cut { next }
        pending {
            pending = 0
            if ($0 ~ /^(pub )?mod /) { cut = 1 }
            next
        }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%-10s %6d\n", crate, n }
    '
done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
