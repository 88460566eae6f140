#!/usr/bin/env bash
# Golden-byte corpus check: regenerates the canonical scenario output set
# (tools/scenario_outputs.sh: every scenario's campaign stdout table, CSV,
# per-replication CSV, JSON and WLSR file, plus a two-point sweep's stdout
# table, CSV and WLSR file, and for city_grid a 16-BSS campaign whose cutoff
# prunes receivers) and compares every file against the committed
# sha256 manifest. Any change to a default-mode output byte fails; an
# intended change regenerates the manifest in the same commit:
#
#   tools/scenario_outputs.sh build/src/wlansim_run /tmp/corpus
#   (cd /tmp/corpus && LC_ALL=C sha256sum $(LC_ALL=C ls)) > tests/golden/scenario_outputs.sha256
#
# Usage: golden_corpus.sh <wlansim_run binary> <scratch dir>

set -euo pipefail

BIN=$1
OUT=$2
HERE=$(cd "$(dirname "$0")" && pwd)
MANIFEST="$HERE/golden/scenario_outputs.sha256"

rm -rf "$OUT"
"$HERE/../tools/scenario_outputs.sh" "$BIN" "$OUT"
cd "$OUT"
# The file set itself is part of the contract: nothing missing, nothing new.
diff <(awk '{print $2}' "$MANIFEST") <(LC_ALL=C ls)
sha256sum --check --quiet "$MANIFEST"
echo "golden corpus: $(wc -l < "$MANIFEST") files match"
