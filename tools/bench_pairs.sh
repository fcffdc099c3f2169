#!/usr/bin/env bash
# Run alternating pairs of the end-to-end benchmark on two trees and
# judge them against BENCHMARK.json's bounds.
#
#   tools/bench_pairs.sh PARENT CHANGE WORKLOAD SEED PAIRS OUTDIR
#
# PARENT and CHANGE are checkouts.  Build each one first with
#
#   dune build --profile release bench/e2e/run.exe bench/e2e/compare.exe
#
# (the script times only release binaries, and reads compare.exe and
# BENCHMARK.json from CHANGE).  Each pair runs both trees' run.exe once,
# untraced, at --seconds 15 on WORKLOAD and SEED; the parent runs first
# in odd pairs and the change in even ones.  The runs are written to
# OUTDIR/parent/NN.json and OUTDIR/change/NN.json (NN = 01, 02, ...),
# so compare.exe pairs them by name, and its verdicts are printed last.
# OUTDIR must not exist or be empty.  The exit status is compare.exe's:
# 1 when a metric is worse than its bound.
set -euo pipefail

if [ $# -ne 6 ]; then
  echo "usage: $0 PARENT CHANGE WORKLOAD SEED PAIRS OUTDIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
out=$6

for tree in "$parent" "$change"; do
  exe=$tree/_build/default/bench/e2e/run.exe
  profile=$tree/_build/default/bench/e2e/build_profile.ml
  if [ ! -x "$exe" ] || ! grep -q '"release"' "$profile" 2>/dev/null; then
    echo "$0: $exe is not a release build;" \
      "run dune build --profile release bench/e2e/run.exe in $tree" >&2
    exit 2
  fi
done
compare=$change/_build/default/bench/e2e/compare.exe
if [ ! -x "$compare" ]; then
  echo "$0: $compare is missing; build it in $change" >&2
  exit 2
fi
mkdir -p "$out/parent" "$out/change"
if [ -n "$(ls -A "$out/parent")$(ls -A "$out/change")" ]; then
  echo "$0: $out already holds runs" >&2
  exit 2
fi

run() {
  local side=$1 tree=$2 nn=$3
  "$tree/_build/default/bench/e2e/run.exe" --workload "$workload" --seed "$seed" \
    --seconds 15 --trace 0 --out "$out/$side/$nn.json" > /dev/null
  echo "pair $nn: $side done" >&2
}

for i in $(seq 1 "$pairs"); do
  nn=$(printf '%02d' "$i")
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$nn"
    run change "$change" "$nn"
  else
    run change "$change" "$nn"
    run parent "$parent" "$nn"
  fi
done

"$compare" "$out/parent" "$out/change" "$change/BENCHMARK.json"
