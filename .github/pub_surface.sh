#!/bin/sh
# Public surface with no consumer: every `pub fn` in a crate's non-test
# code (each `src/` file up to its first `#[cfg(test)]`, as loc.sh counts)
# whose name appears in no `.rs` file outside that crate (vendor/ and
# build outputs excluded). Each one is a candidate to delete or to make
# `pub(crate)`. Prints `file:line name` per function, then the count.
# Informational: it always exits 0. Run from the repository root:
# .github/pub_surface.sh
export LC_ALL=C
all=$(mktemp) && words=$(mktemp) || exit 1
trap 'rm -f "$all" "$words"' EXIT
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
done | sort | awk '{ print } END { printf "%d pub fn with no caller outside their crate\n", NR }'
