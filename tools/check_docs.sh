#!/usr/bin/env bash
# Docs gate: fails when the architecture/scenario docs drift from the tree.
#
#   1. Every relative markdown link in docs/*.md and README.md must resolve
#      to an existing file or directory (anchors and external URLs skipped).
#   2. Every src/ subdirectory must be mentioned somewhere in docs/ — a new
#      layer cannot land without a place in the architecture map.
#   3. Every scenario registered in src/runner/scenarios.cc must be
#      mentioned somewhere in docs/ — the catalogue in scenarios.md cannot
#      silently fall behind the registry. Fewer extracted names than
#      Register*(registry) calls in RegisterBuiltinScenarios is an error too.
#   4. Every CLI binary under tools/*.cc must be mentioned in docs/ or
#      README.md — a new tool cannot land undocumented.
#
# Pure grep/awk over the source: no build needed, so CI runs it in seconds.

set -euo pipefail
cd "$(dirname "$0")/.."

errors=0
complain() {
  echo "check_docs: $*" >&2
  errors=1
}

# --- 1. relative links resolve -------------------------------------------
for f in docs/*.md README.md; do
  dir=$(dirname "$f")
  # Extract (...) targets of inline markdown links, one per line.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
      *' '*) continue ;;  # C++ lambdas in code blocks look like [](args)
    esac
    path="${target%%#*}"        # strip any anchor
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      complain "broken link in $f: ($target)"
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//')
done

# --- 2. every src/ subdir is documented ----------------------------------
for d in src/*/; do
  name=$(basename "$d")
  if ! grep -rq "src/$name" docs/; then
    complain "src/$name is not mentioned anywhere in docs/"
  fi
done

# --- 3. every registered scenario is documented --------------------------
# The name is the first string literal after `r.Register(`, on the same
# line or a later one.
scenarios=$(awk '
  /r\.Register\(/ { pending = 1; sub(/.*r\.Register\(/, "") }
  pending && match($0, /"[a-z0-9_]+"/) {
    print substr($0, RSTART + 1, RLENGTH - 2); pending = 0
  }
' src/runner/scenarios.cc)
# One Register*(registry) call per scenario in RegisterBuiltinScenarios: a
# registration shape the extraction above misses must not silently drop
# scenarios from this check.
registrations=$(awk '
  /^void RegisterBuiltinScenarios\(/ { inside = 1; next }
  inside && /^}/ { inside = 0 }
  inside && /Register[A-Za-z]*\(registry\);/ { n++ }
  END { print n + 0 }
' src/runner/scenarios.cc)
extracted=$(printf '%s' "$scenarios" | grep -c . || true)
if [ "$extracted" -eq 0 ]; then
  complain "could not extract any scenario names from src/runner/scenarios.cc"
elif [ "$extracted" -lt "$registrations" ]; then
  complain "extracted $extracted scenario names from src/runner/scenarios.cc, but" \
           "RegisterBuiltinScenarios makes $registrations Register*(registry) calls"
fi
for s in $scenarios; do
  if ! grep -rqw "$s" docs/; then
    complain "registered scenario '$s' is not mentioned anywhere in docs/"
  fi
done

# --- 4. every CLI tool is documented -------------------------------------
for t in tools/*.cc; do
  name=$(basename "$t" .cc)
  if ! grep -rqw "$name" docs/ README.md; then
    complain "tool '$name' (tools/$name.cc) is not mentioned in docs/ or README.md"
  fi
done

if [ "$errors" -ne 0 ]; then
  exit 1
fi
echo "check_docs: OK (links resolve; $(ls -d src/*/ | wc -l) src dirs and $(echo "$scenarios" | wc -l) scenarios covered)"
