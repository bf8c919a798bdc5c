#!/usr/bin/env bash
# Figure-driver golden check: runs every paper figure/table driver with
# --quick and diffs its stdout against the checked-in golden output.
#
#   tests/golden/check.sh <bench-dir> [threads] [out-dir]
#
# <bench-dir> holds the built drivers (e.g. build/bench).  [threads] is
# passed as --threads (default 1); stdout must not depend on it.  With
# [out-dir] the outputs are written there and not compared (regenerating
# the goldens: tests/golden/check.sh build/bench 1 tests/golden).
#
# finality_scale runs single-threaded (no --threads flag) and prints a
# wall-clock column ("wall s"); that column is cut from the table before the
# comparison.  Exit status: 0 when every output matches.
set -euo pipefail

bench_dir=${1:?usage: check.sh <bench-dir> [threads] [out-dir]}
threads=${2:-1}
out_dir=${3:-}
golden_dir=$(cd "$(dirname "$0")" && pwd)

drivers="fig1_illustration fig2_forkchoice fig3_power_dist fig4_equality
fig5_unpredictability fig6_scalability fig7_attack fig8_forks
fig9_epoch_length table1_comparison ablation_selfish finality_scale"

# Drop the last cell of every table row and border (the wall-clock column).
strip_wall() { sed -E '/^[|+]/ s/[^|+]*[|+]$//'; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for d in $drivers; do
  out="$tmp/$d.txt"
  if [ "$d" = finality_scale ]; then
    "$bench_dir/$d" --quick 2>/dev/null | strip_wall > "$out"
  else
    "$bench_dir/$d" --quick --threads "$threads" 2>/dev/null > "$out"
  fi
  if [ -n "$out_dir" ]; then
    cp "$out" "$out_dir/$d.txt"
  elif diff -u "$golden_dir/$d.txt" "$out" > "$tmp/$d.diff"; then
    echo "golden ok: $d"
  else
    echo "golden MISMATCH: $d"
    head -40 "$tmp/$d.diff"
    status=1
  fi
done
exit $status
