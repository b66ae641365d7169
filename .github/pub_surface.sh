#!/bin/sh
# Public surface with no consumer: every `pub fn` in a crate's non-test
# code (each `src/` file up to its first `#[cfg(test)]`, as loc.sh counts)
# whose name appears in no `.rs` file outside that crate (vendor/ and
# build outputs excluded). Prints `file:line name` per function, then the
# count. Each one is kept only for a reason (its crate's tests/ or a
# binary of its crate calls it, a doctest uses it, tests compare against
# it); anything else is deleted or made `pub(crate)`.
#
# Given a ceiling, exits 1 when the count is above it, so a new `pub fn`
# without a consumer fails CI. Run from the repository root:
# .github/pub_surface.sh [CEILING]
export LC_ALL=C
all=$(mktemp) && words=$(mktemp) && list=$(mktemp) || exit 1
trap 'rm -f "$all" "$words" "$list"' EXIT
find . -name '*.rs' -not -path './vendor/*' -not -path '*/target/*' | sort > "$all"
for crate in crates/*/; do
  grep -v "^\./${crate}" "$all" | xargs cat | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u > "$words"
  find "${crate}src" -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_test = 0 }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && match($0, /^[ \t]*pub fn [A-Za-z0-9_]+/) {
      n = split(substr($0, RSTART, RLENGTH), w, " ")
      print w[n], FILENAME ":" FNR
    }' | sort -k1,1 | join -v 1 - "$words" | awk '{ print $2, $1 }'
done | sort > "$list"
count=$(wc -l < "$list" | tr -d ' ')
cat "$list"
echo "$count pub fn with no caller outside their crate"
if [ -n "$1" ] && [ "$count" -gt "$1" ]; then
  echo "above the ceiling of $1: delete the new ones, make them pub(crate), or give them a consumer" >&2
  exit 1
fi
