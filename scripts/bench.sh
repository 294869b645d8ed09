#!/usr/bin/env bash
# Benchmark stages that record the perf trajectory as BENCH_*.json
# artifacts in the repo root. Heavier than ci.sh; run on demand.
#
#   scripts/bench.sh            # default scale (4,000 transactions)
#   BENCH_SCALE=20000 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${BENCH_SCALE:-4000}"

echo "==> cargo build --release (bench harness, xtask)"
cargo build -q --release -p negassoc-bench -p xtask

# Every gate reads its number through the validator's own JSON parser:
# a missing field, a `null` or a non-scalar fails the read (and, under
# `set -e`, the script) instead of comparing against an empty string.
jget() { ./target/release/xtask json-get "$@"; }
# gate FILE PATH OP BAR: fail unless the value at PATH satisfies OP BAR.
gate() {
  local v
  v="$(jget "$1" "$2")" || exit 1
  awk -v v="$v" -v bar="$4" "BEGIN { exit !(v $3 bar) }" \
    || { echo "bench: $1 $2 = $v misses the $3 $4 bar" >&2; exit 1; }
  echo "bench: $1 $2 = $v ($3 $4 bar)"
}

echo "==> ablations: positive miners, counting backends, improved driver"
# Fixed 2,000-transaction scale (the scale EXPERIMENTS.md quotes); the
# run itself asserts that variants expected to agree do. No bar: the
# artifact is the record.
./target/release/paper ablate
./target/release/xtask validate-json BENCH_ablation.json

echo "==> counting backends: flat vs bitmap x 1/2/4 threads (scale $SCALE)"
./target/release/paper counting --scale "$SCALE"

echo "==> BENCH_counting.json"
./target/release/xtask validate-json BENCH_counting.json
# The artifact must carry the fixed 100,000-transaction scale alongside
# the primary one (last in the document): behavior past toy sizes is on
# the record, always.
gate BENCH_counting.json scales.-1.transactions == 100000

# The vertical-counting bar: on the primary scale (first in the
# document), the sequential L2 pass — the dominant pass, largest
# candidate set — must run >= 3x faster under the TID-bitmap backend
# than under the flat subset-hash-map baseline. The same bar holds at
# the fixed 100,000-transaction scale: the L2 pass is where the bitmap
# backend's pair matrix runs, and its lead must hold past toy sizes.
gate BENCH_counting.json scales.0.l2_speedup_bitmap_vs_flat '>=' 3.0
gate BENCH_counting.json scales.-1.l2_speedup_bitmap_vs_flat '>=' 3.0

# The thread-scaling bar: with the bitmap backend, 4 workers must beat
# the sequential run — but only on a machine that has real cores to
# scale onto. On a single-CPU box the pool can only add overhead, so
# the gate is explicitly skipped (the JSON still records the honest
# number).
cores="$(jget BENCH_counting.json available_parallelism)"
if [ "$cores" -ge 2 ]; then
  gate BENCH_counting.json scales.0.bitmap_speedup_x4 '>' 1.0
else
  x4="$(jget BENCH_counting.json scales.0.bitmap_speedup_x4 2> /dev/null || echo null)"
  echo "bench: x4 > 1 gate skipped (single-CPU machine; recorded ${x4})"
fi

echo "==> sharded counting: bounded-memory gate"
# The sharded rows (primary scale) mine the same dataset through a
# 1/4/16-shard manifest (one shard resident at a time). The
# bounded-memory bar: the peak candidate set per pass must be
# *identical* across shard counts — candidate memory is a function of
# the data, never of how it is sharded — while the largest resident
# shard must strictly shrink. A comparison needs at least two rows.
gate BENCH_counting.json scales.0.sharded.1.shards '>' 0
i=1
while jget BENCH_counting.json "scales.0.sharded.$i.shards" > /dev/null 2>&1; do
  prev="scales.0.sharded.$((i - 1))"
  gate BENCH_counting.json "scales.0.sharded.$i.max_pass_candidates" == \
    "$(jget BENCH_counting.json "$prev.max_pass_candidates")"
  gate BENCH_counting.json "scales.0.sharded.$i.largest_shard" '<' \
    "$(jget BENCH_counting.json "$prev.largest_shard")"
  i=$((i + 1))
done

echo "==> run control plane: cancel-token overhead (scale $SCALE)"
./target/release/paper ctrl --scale "$SCALE"
# The control plane's acceptance bar: armed token checks must cost < 2%
# wall time over the token-free baseline, as the median of the
# interleaved pairs' ratios.
gate BENCH_ctrl.json overhead_pct '<' 2.0

echo "==> observability: no-op-sink overhead (scale $SCALE)"
./target/release/paper obs --scale "$SCALE"
# The observability acceptance bar: emission points with a no-op sink
# attached must cost < 2% wall time over an unobserved run, as the
# median of the interleaved pairs' ratios.
gate BENCH_obs.json overhead_pct '<' 2.0

echo "==> rule serving: basket-match throughput (scale $SCALE)"
./target/release/paper serve --scale "$SCALE"
./target/release/xtask validate-json BENCH_serve.json
# The serving layer's correctness contracts are recorded in the artifact
# and enforced here: the indexed matcher must agree with the full-scan
# oracle on every basket, and the mid-batch hot swap must not tear.
gate BENCH_serve.json oracle_agreement == true
gate BENCH_serve.json hot_swap_survived == true
# The throughput bar: >= 10,000 queries/sec on the 4,000-transaction
# snapshot (interactive latency with plenty of headroom).
gate BENCH_serve.json queries_per_sec '>=' 10000.0

echo "bench: artifacts written"
