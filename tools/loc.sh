#!/usr/bin/env bash
# Count the program's lines: the non-blank lines of crates/*/src/**/*.rs
# that lie outside #[cfg(test)] items, per crate.
#
#   tools/loc.sh [REV]
#
# With REV (any git revision), also counts REV's committed crates/ and
# prints the delta per crate and in total. Comments and doc comments
# count; blank lines and test modules, test-only functions, fields and
# statements (with their doc comments and attributes) do not. An item
# after #[cfg(test)] ends where its first brace closes, or, without
# braces, at the first line ending in ';' or ','.
set -euo pipefail

if [ $# -gt 1 ]; then
    sed -n '5,5p' "$0" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)

# count DIR: "crate lines" per crate under DIR/crates.
count() {
    (cd "$1" && find crates -path 'crates/*/src/*' -name '*.rs' | sort | xargs awk '
        # Code only: no escapes, strings, char literals or line comments,
        # so braces in them do not count.
        function code(s) {
            gsub(/\\./, "", s); gsub(/"[^"]*"/, "", s); gsub(/'"'"'[^'"'"']'"'"'/, "", s)
            sub(/\/\/.*/, "", s)
            return s
        }
        FNR == 1 {
            n[crate] += pend; skip = 0; pend = 0
            split(FILENAME, p, "/"); crate = p[2]; seen[crate] = 1
        }
        {
            line = $0
            if (!skip && line ~ /^[ \t]*#\[cfg\(test\)\]/) {
                # The doc comments and attributes above belong to the item.
                skip = 1; depth = 0; opened = 0; pend = 0
                sub(/^[ \t]*#\[cfg\(test\)\]/, "", line)
            }
            if (skip) {
                c = code(line)
                o = gsub(/\{/, "{", c); depth += o - gsub(/\}/, "}", c)
                if (o) opened = 1
                sub(/[ \t]+$/, "", c)
                if ((opened && depth <= 0) || (!opened && c ~ /[;,]$/)) skip = 0
                next
            }
            if (line ~ /^[ \t]*(\/\/\/|#\[)/) pend++
            else if (line ~ /[^ \t]/) { n[crate] += pend + 1; pend = 0 }
        }
        END { n[crate] += pend; for (k in seen) print k, n[k] + 0 }
    ' | sort)
}

now=$(count "$root")
if [ $# -eq 0 ]; then
    awk '{ printf "%-10s %7d\n", $1, $2; t += $2 } END { printf "%-10s %7d\n", "total", t }' <<<"$now"
    exit 0
fi

old_tree=$(mktemp -d)
trap 'rm -rf "$old_tree"' EXIT
git -C "$root" archive "$1" crates | tar -x -C "$old_tree"
old=$(count "$old_tree")
printf '%-10s %7s %7s %7s\n' crate "$1" now delta
join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$old") <(echo "$now") | awk '
    { printf "%-10s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }
'
