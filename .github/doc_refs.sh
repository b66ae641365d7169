#!/bin/sh
# Citation gate for the prose docs. Lists every miss, one a line, then the
# count, and exits 1 if there is any. DESIGN.md, README.md and
# EXPERIMENTS.md are checked for five things:
#
#   path     every cited repo path (crates/, tests/, src/, examples/,
#            results/, vendor/, .github/, benchmark/) exists; generated
#            output (benchmark/out/, benchmark/target/) is not checked;
#   fn       every `file.rs::name` names a `fn name` in that file;
#   metric   every backticked metric name (core., serve., autotuner.,
#            infer., nn., hlo., sim., dataset., obs.) is a string literal
#            in a .rs file under crates/ or in BENCHMARK.json; a name
#            ending in `.*` is a prefix of one;
#   section  every DESIGN.md section that code (.rs under crates/, src/,
#            tests/, examples/, benchmark/) or README.md names, as
#            DESIGN.md "X" or DESIGN.md § *X* (also written as a link,
#            [DESIGN.md](DESIGN.md) § *X*), is a heading of DESIGN.md;
#   design   DESIGN.md names "PR <n>" at most once (its pointer to
#            CHANGELOG.md) and is no larger than MAX_DESIGN_BYTES.
#
# Run from the repository root: .github/doc_refs.sh
export LC_ALL=C
MAX_DESIGN_BYTES=40960
docs="DESIGN.md README.md EXPERIMENTS.md"
misses=$(mktemp) && headings=$(mktemp) || exit 1
trap 'rm -f "$misses" "$headings"' EXIT
miss() { echo "$1" >> "$misses"; }

for doc in $docs; do
  # path: a token that starts at a word boundary with a checked root.
  grep -oE '(^|[^A-Za-z0-9_./-])(crates|tests|src|examples|results|vendor|\.github|benchmark)/[A-Za-z0-9_./-]*' "$doc" \
    | sed -E 's/^[^A-Za-z.]//; s/[.]+$//' | sort -u | while read -r p; do
      case "$p" in benchmark/out/* | benchmark/target/*) continue ;; esac
      [ -e "$p" ] || miss "$doc: path: $p does not exist"
    done

  # fn: `path/file.rs::name`.
  grep -oE '[A-Za-z0-9_./-]+\.rs::[A-Za-z0-9_]+' "$doc" | sort -u | while read -r c; do
    f=${c%%::*} && name=${c##*::}
    if [ ! -f "$f" ]; then
      miss "$doc: fn: $c cites a file that does not exist"
    elif ! grep -qE "fn $name([^A-Za-z0-9_]|\$)" "$f"; then
      miss "$doc: fn: $c: no fn $name in $f"
    fi
  done

  # metric: dotted names inside backtick spans.
  grep -oE '`[^`]+`' "$doc" \
    | grep -oE '(^|[^A-Za-z0-9_./-])(core|serve|autotuner|infer|nn|hlo|sim|dataset|obs)(\.[a-z0-9_]+)+(\.\*)?' \
    | sed -E 's/^[^a-z]//' | grep -vE '\.(rs|log|json|md|toml|sh|txt|blob|tpuds)$' | sort -u | while read -r m; do
      case "$m" in
        *.\*) lit="\"${m%\*}" ;;
        *) lit="\"$m\"" ;;
      esac
      grep -rqF --include='*.rs' "$lit" crates || grep -qF "$lit" BENCHMARK.json \
        || miss "$doc: metric: $m is no metric name under crates/ or in BENCHMARK.json"
    done
done

# section: a reference may wrap across lines (and comment markers), so
# each file is read as one line.
grep -E '^#+ ' DESIGN.md | sed -E 's/^#+ //' > "$headings"
{ find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*'; echo README.md; } | sort \
  | while read -r f; do
      awk '{ sub(/^[ \t]*(\/\/[\/!]?)?[ \t]*/, ""); printf "%s ", $0 } END { print "" }' "$f" \
        | grep -oE 'DESIGN\.md(\]\(DESIGN\.md\))?,? (§ )?("[^"]+"|\*[^*]+\*)' \
        | sed -E 's/^DESIGN\.md(\]\(DESIGN\.md\))?,? (§ )?["*]//; s/["*]$//' | sort -u | while read -r s; do
            grep -qxF "$s" "$headings" || miss "$f: section: DESIGN.md has no heading \"$s\""
          done
    done

# design: one pointer to CHANGELOG.md, and the ceiling.
prs=$(grep -c 'PR [0-9]' DESIGN.md)
[ "$prs" -le 1 ] || miss "DESIGN.md: design: $prs lines name a PR (at most 1)"
bytes=$(wc -c < DESIGN.md | tr -d ' ')
[ "$bytes" -le "$MAX_DESIGN_BYTES" ] \
  || miss "DESIGN.md: design: $bytes bytes, above the ceiling of $MAX_DESIGN_BYTES"

count=$(wc -l < "$misses" | tr -d ' ')
cat "$misses"
echo "$count misses in the docs' citations (DESIGN.md: $bytes bytes)"
[ "$count" -eq 0 ]
