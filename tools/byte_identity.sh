#!/usr/bin/env bash
# Write the 60 seeded outputs of a built tree into a fresh directory, so
# two trees can be compared with `diff -r`.
#
#   tools/byte_identity.sh TREE OUTDIR
#
# TREE is a checkout built with `dune build` (any profile); OUTDIR must
# not exist or be empty.  Every command runs inside OUTDIR, so the trace
# files the commands name match between two trees.  Compare two trees
# with
#
#   tools/byte_identity.sh PARENT parent-out
#   tools/byte_identity.sh CHANGE change-out
#   diff -r parent-out change-out
#
# Lines that carry wall-clock times ("finished in", "streamed to") are
# stripped.  10-35 s per tree.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 TREE OUTDIR" >&2
  exit 2
fi
tree=$(cd "$1" && pwd)
cli=$tree/_build/default/bin/plookup_cli.exe
if [ ! -x "$cli" ]; then
  echo "$0: $cli is missing; build the tree first (dune build)" >&2
  exit 2
fi
mkdir -p "$2"
if [ -n "$(ls -A "$2")" ]; then
  echo "$0: $2 is not empty" >&2
  exit 2
fi
cd "$2"

strip() { grep -v 'finished in' | grep -v 'streamed to' || true; }

$cli run --scale 1.0 --csv | strip > run_full.txt          # all 19 ids, seed 42
$cli run --scale 0.1 -j 2 --csv | strip > run_j2.txt
$cli run churn day --scale 0.3 --mttf 80 --mttr 30 --horizon 2000 --cache --csv | strip > churn_day.txt
for r in off sync; do   # the line above runs repair full; these reach off and sync
  $cli run churn day --scale 0.3 --repair $r --csv | strip > churn_day_$r.txt
done
# Loss and duplication on the synchronous path, where repair runs: lost
# digest pulls and duplicated repair sends reach the daemon's count.
$cli run day --scale 0.3 --loss 0.05 --duplication 0.02 --csv | strip > day_faults.txt
$cli trace day --scale 0.05 --loss 0.05 --duplication 0.02 --metrics-dump | strip > trace_day_faults.txt
for e in churn day latency loss table2 fig6 hash-y coord-load coord-replicas; do
  $cli trace $e --scale 0.05 --trace-out trace_$e.jsonl --metrics-dump | strip > trace_$e.txt
done
# Jitter on the engine path.
$cli run day latency --scale 0.1 --loss 0.05 --duplication 0.02 --jitter 3 --csv | strip > jitter.txt
$cli trace day --scale 0.05 --loss 0.05 --duplication 0.02 --jitter 3 --trace-out trace_day_jitter.jsonl --metrics-dump | strip > trace_day_jitter.txt
# trace takes every context flag run takes (CLI 1.29.0 on): a cached day
# and a sync-repaired churn, traced.
$cli trace day --scale 0.05 --cache --trace-out trace_day_cache.jsonl --metrics-dump | strip > trace_day_cache.txt
$cli trace churn --scale 0.05 --repair sync --trace-out trace_churn_sync.jsonl --metrics-dump | strip > trace_churn_sync.txt
# Cached and uncached async lookups on the lossy network: lost and
# duplicated replies interleave their merges through the cluster's table.
$cli trace day --scale 0.05 --cache --loss 0.05 --duplication 0.02 --trace-out trace_day_cache_faults.jsonl --metrics-dump | strip > trace_day_cache_faults.txt
for s in full fixed-40 randomserver-20 roundrobin-2 roundrobinha-2x2 hash-2 hash-3 chord-2 dxhash-2 multiprobe-2x2; do
  $cli demo $s > demo_$s.txt; $cli sweep $s > sweep_$s.txt
done
for ex in "$tree"/_build/default/examples/*.exe; do "$ex" > ex_$(basename "$ex").txt; done
