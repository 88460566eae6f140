#!/usr/bin/env bash
# Produces the canonical scenario output set behind the golden-byte corpus
# ctest (tests/golden_corpus.sh, manifest tests/golden/scenario_outputs.sha256):
# for every scenario named on the command line (or every registered scenario
# when none is), one short campaign (stdout table, aggregate CSV,
# per-replication CSV, aggregate JSON, WLSR file) and one two-point sweep
# (stdout table, long CSV, WLSR file), with fixed seeds and shortened
# simulated time so the whole matrix runs in a few seconds. city_grid adds a
# third run, a 16-BSS campaign (CSV and WLSR file) whose reception cutoff
# prunes real receivers.
#
# Usage: scenario_outputs.sh <wlansim_run binary> <output dir> [scenario...]
#
# The per-scenario extra parameters only shorten runtimes — they are normal
# scenario parameters, so they appear in the sweep CSVs identically for any
# binary and never mask a behavioural difference.

set -euo pipefail

BIN=$1
OUT=$2
shift 2
mkdir -p "$OUT"

if [ $# -gt 0 ]; then
  scenarios="$*"
else
  scenarios=$("$BIN" --list | awk '{print $2}' | grep -E '^[a-z0-9_]+$' | grep -vx scenario)
fi

# short_params <scenario>  -> --param flags that shrink simulated time
short_params() {
  case "$1" in
    roaming) echo "--param sim_time_s=6" ;;
    pipeline_probe) echo "" ;;
    dense_multi_bss) echo "--param sim_time_s=1 --param n_bss=2" ;;
    city_grid) echo "--param sim_time_s=1 --param n_bss=4" ;;
    *) echo "--param sim_time_s=1" ;;
  esac
}

# sweep_axis <scenario> -> the two-point sweep axis
sweep_axis() {
  case "$1" in
    saturation) echo "n_stas=1,2" ;;
    hidden_terminal) echo "rtscts=false,true" ;;
    edca) echo "qos=false,true" ;;
    dense_multi_bss) echo "stas_per_bss=1,2" ;;
    city_grid) echo "stas_per_bss=1,2" ;;
    rate_vs_distance) echo "distance=30,60" ;;
    ism_interference) echo "oven_distance=0,3" ;;
    adhoc_vs_infra) echo "adhoc=true,false" ;;
    coexistence) echo "protection=false,true" ;;
    fragmentation) echo "frag_threshold=512,2346" ;;
    roaming) echo "speed=10,20" ;;
    pipeline_probe) echo "n_metrics=1,2" ;;
    sensor_coexistence) echo "n_sensors=2,4" ;;
    lora_coexistence) echo "duty_pct=1,10" ;;
    *) echo "" ;;
  esac
}

for s in $scenarios; do
  extra=$(short_params "$s")
  # shellcheck disable=SC2086
  "$BIN" --scenario="$s" $extra --reps=2 --seed=5 \
    --csv="$OUT/$s-campaign.csv" --reps-csv="$OUT/$s-reps.csv" \
    --json="$OUT/$s-campaign.json" --binary-out="$OUT/$s-campaign.wlsr" \
    > "$OUT/$s-campaign.txt"
  axis=$(sweep_axis "$s")
  if [ -n "$axis" ]; then
    # shellcheck disable=SC2086
    "$BIN" --scenario="$s" $extra --sweep "$axis" --reps=2 --seed=5 --jobs=0 \
      --csv="$OUT/$s-sweep.csv" --binary-out="$OUT/$s-sweep.wlsr" > "$OUT/$s-sweep.txt"
  fi
  if [ "$s" = city_grid ]; then
    # A grid large enough that the -100 dBm cutoff really prunes: about 32
    # of 47 receivers hear each send, so these bytes pin the channel's
    # bounded-radius receiver enumeration, not just its all-receivers case.
    "$BIN" --scenario=city_grid --param n_bss=16 --param sim_time_s=1 --reps=2 --seed=5 \
      --csv="$OUT/city_grid-pruned-campaign.csv" \
      --binary-out="$OUT/city_grid-pruned-campaign.wlsr" > /dev/null
  fi
done

echo "scenario_outputs: wrote $(ls "$OUT" | wc -l) files to $OUT"
