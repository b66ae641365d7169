#!/bin/sh
# Line-count table, per crate: lines of each file under src/ before its
# first `#[cfg(test)]` (non-test), lines from there on plus tests/ (test),
# and `pub fn` count. Run from the repository root: .github/loc.sh
for crate in crates/*/; do
  find "$crate" -name '*.rs' | sort | xargs awk -v crate="$(basename "$crate")" '
    FNR == 1 { in_test = (FILENAME !~ /\/src\//) }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    { if (in_test) test++; else { code++; if ($0 ~ /^[ \t]*pub fn /) pubfn++ } }
    END { printf "%-12s non-test %6d  test %6d  pub fn %4d\n", crate, code, test, pubfn }'
done | awk '{ print; c += $3; t += $5; p += $8 }
  END { printf "%-12s non-test %6d  test %6d  pub fn %4d\n", "crates/", c, t, p }'
