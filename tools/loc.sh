#!/usr/bin/env bash
# Count the program's lines: the non-blank lines of crates/*/src/**/*.rs
# that lie outside #[cfg(test)] items, per crate.
#
#   tools/loc.sh [REV]
#
# With REV (any git revision), also counts REV's committed crates/ and
# prints the delta per crate and in total, then one row per file whose
# count changed (a file only one side has counts 0 on the other). Comments and doc comments
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

# count DIR: "file lines" per file under DIR/crates.
count() {
    (cd "$1" && find crates -path 'crates/*/src/*' -name '*.rs' | sort | xargs awk '
        # Code only: no escapes, strings, char literals or line comments,
        # so braces in them do not count.
        function code(s) {
            gsub(/\\./, "", s); gsub(/"[^"]*"/, "", s); gsub(/'"'"'[^'"'"']'"'"'/, "", s)
            sub(/\/\/.*/, "", s)
            return s
        }
        FNR == 1 { n[file] += pend; skip = 0; pend = 0; file = FILENAME; n[file] += 0 }
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
            else if (line ~ /[^ \t]/) { n[file] += pend + 1; pend = 0 }
        }
        END { n[file] += pend; for (k in n) if (k != "") print k, n[k] }
    ' | sort)
}

# crates: sum "file lines" rows into "crate lines" rows.
crates() {
    awk '{ split($1, p, "/"); n[p[2]] += $2 } END { for (k in n) print k, n[k] }' | sort
}

files=$(count "$root")
now=$(crates <<<"$files")
if [ $# -eq 0 ]; then
    awk '{ printf "%-10s %7d\n", $1, $2; t += $2 } END { printf "%-10s %7d\n", "total", t }' <<<"$now"
    exit 0
fi

old_tree=$(mktemp -d)
trap 'rm -rf "$old_tree"' EXIT
git -C "$root" archive "$1" crates | tar -x -C "$old_tree"
old_files=$(count "$old_tree")
old=$(crates <<<"$old_files")
printf '%-10s %7s %7s %7s\n' crate "$1" now delta
join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$old") <(echo "$now") | awk '
    { printf "%-10s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }
'
echo
printf '%-40s %7s %7s %7s\n' file "$1" now delta
join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$old_files") <(echo "$files") | awk '
    $2 != $3 { printf "%-40s %7d %7d %+7d\n", $1, $2, $3, $3 - $2 }
'
