#!/usr/bin/env bash
# Benchmark stages that record the perf trajectory as BENCH_*.json
# artifacts in the repo root. Heavier than ci.sh; run on demand.
#
#   scripts/bench.sh            # default scale (4,000 transactions)
#   BENCH_SCALE=20000 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${BENCH_SCALE:-4000}"

echo "==> cargo build --release (bench harness)"
cargo build -q --release -p negassoc-bench

echo "==> counting backends: flat vs hashtree vs bitmap x 1/2/4 threads (scale $SCALE)"
./target/release/paper counting --scale "$SCALE"

echo "==> BENCH_counting.json"
# The artifact is the record; surface the headline so the run log has it
# too. Speedup > 1 needs real cores: on a single-CPU machine the worker
# pool can only add overhead, and the JSON will honestly say so.
grep -E '"available_parallelism"|"transactions"|"speedup_vs_sequential"|"l2_speedup_bitmap_vs_flat"|"bitmap_speedup_x4"' BENCH_counting.json

# The artifact must carry the fixed 100,000-transaction scale alongside
# the primary one: behavior past toy sizes is on the record, always.
grep -q '"transactions": 100000' BENCH_counting.json \
  || { echo "bench: missing the 100,000-transaction scale" >&2; exit 1; }

# The vertical-counting bar: on the primary scale (first in the
# document), the sequential L2 pass — the dominant pass, largest
# candidate set — must run >= 3x faster under the TID-bitmap backend
# than under the flat subset-hash-map baseline.
l2="$(sed -n 's/.*"l2_speedup_bitmap_vs_flat": \([0-9.]*\).*/\1/p' BENCH_counting.json | head -1)"
[ -n "$l2" ] || { echo "bench: no l2_speedup_bitmap_vs_flat headline" >&2; exit 1; }
awk -v s="$l2" 'BEGIN { exit !(s >= 3.0) }' \
  || { echo "bench: bitmap L2 speedup ${l2}x < 3x bar" >&2; exit 1; }
echo "bench: bitmap L2 speedup ${l2}x (>= 3x bar)"

# The same bar at the fixed 100,000-transaction scale (last in the
# document): the L2 pass is where the bitmap backend's pair matrix runs,
# and its lead over the flat baseline must hold past toy sizes too.
l2big="$(sed -n 's/.*"l2_speedup_bitmap_vs_flat": \([0-9.]*\).*/\1/p' BENCH_counting.json | tail -1)"
[ -n "$l2big" ] || { echo "bench: no 100k l2_speedup_bitmap_vs_flat" >&2; exit 1; }
awk -v s="$l2big" 'BEGIN { exit !(s >= 3.0) }' \
  || { echo "bench: 100k bitmap L2 speedup ${l2big}x < 3x bar" >&2; exit 1; }
echo "bench: 100k bitmap L2 speedup ${l2big}x (>= 3x bar)"

# The thread-scaling bar: with the bitmap backend, 4 workers must beat
# the sequential run — but only on a machine that has real cores to
# scale onto. On a single-CPU box the pool can only add overhead, so
# the gate is explicitly skipped (the JSON still records the honest
# number).
cores="$(sed -n 's/.*"available_parallelism": \([0-9]*\).*/\1/p' BENCH_counting.json | head -1)"
x4="$(sed -n 's/.*"bitmap_speedup_x4": \([0-9.]*\).*/\1/p' BENCH_counting.json | head -1)"
if [ "${cores:-1}" -ge 2 ]; then
  [ -n "$x4" ] || { echo "bench: no bitmap_speedup_x4 headline" >&2; exit 1; }
  awk -v s="$x4" 'BEGIN { exit !(s > 1.0) }' \
    || { echo "bench: bitmap x4 speedup ${x4} <= 1 on a ${cores}-core machine" >&2; exit 1; }
  echo "bench: bitmap x4 speedup ${x4} (> 1 bar, ${cores} cores)"
else
  echo "bench: x4 > 1 gate skipped (single-CPU machine; recorded ${x4:-null})"
fi

echo "==> sharded counting: bounded-memory gate"
# The sharded rows mine the same dataset through a 1/4/16-shard manifest
# (one shard resident at a time). The bounded-memory bar: the peak
# candidate set per pass must be *identical* across shard counts —
# candidate memory is a function of the data, never of how it is sharded
# — while the largest resident shard must strictly shrink.
grep '"shards"' BENCH_counting.json
sed -n 's/.*"max_pass_candidates": \([0-9]*\).*/\1/p' BENCH_counting.json \
  | awk 'NR == 1 { first = $1 } $1 != first { exit 1 }' \
  || { echo "bench: peak candidate memory varies with shard count" >&2; exit 1; }
sed -n 's/.*"largest_shard": \([0-9]*\).*/\1/p' BENCH_counting.json \
  | awk 'NR > 1 && $1 >= prev { exit 1 } { prev = $1 }' \
  || { echo "bench: resident shard size did not shrink with shard count" >&2; exit 1; }
echo "bench: peak candidate memory independent of shard count"

echo "==> run control plane: cancel-token overhead (scale $SCALE)"
./target/release/paper ctrl --scale "$SCALE"

echo "==> BENCH_ctrl.json"
# The control plane's acceptance bar: armed token checks must cost < 2%
# median wall time over the token-free baseline.
grep -E '"median_baseline_s"|"median_controlled_s"|"overhead_pct"' BENCH_ctrl.json
pct="$(sed -n 's/.*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_ctrl.json)"
awk -v p="$pct" 'BEGIN { exit !(p < 2.0) }' \
  || { echo "bench: token-check overhead ${pct}% >= 2% bar" >&2; exit 1; }
echo "bench: control-plane overhead ${pct}% (< 2% bar)"

echo "==> observability: no-op-sink overhead (scale $SCALE)"
./target/release/paper obs --scale "$SCALE"

echo "==> BENCH_obs.json"
# The observability acceptance bar: emission points with a no-op sink
# attached must cost < 2% median wall time over an unobserved run.
grep -E '"median_baseline_s"|"median_observed_s"|"overhead_pct"' BENCH_obs.json
opct="$(sed -n 's/.*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_obs.json)"
awk -v p="$opct" 'BEGIN { exit !(p < 2.0) }' \
  || { echo "bench: no-op-sink overhead ${opct}% >= 2% bar" >&2; exit 1; }
echo "bench: observability overhead ${opct}% (< 2% bar)"

echo "==> rule serving: basket-match throughput (scale $SCALE)"
./target/release/paper serve --scale "$SCALE"

echo "==> BENCH_serve.json"
cargo run -q --release -p xtask -- validate-json BENCH_serve.json
grep -E '"queries_per_sec"|"oracle_agreement"|"hot_swap_survived"' BENCH_serve.json
# The serving layer's correctness contracts are recorded in the artifact
# and enforced here: the indexed matcher must agree with the full-scan
# oracle on every basket, and the mid-batch hot swap must not tear.
grep -q '"oracle_agreement": true' BENCH_serve.json \
  || { echo "bench: indexed matcher diverged from the oracle" >&2; exit 1; }
grep -q '"hot_swap_survived": true' BENCH_serve.json \
  || { echo "bench: hot swap tore a response mid-batch" >&2; exit 1; }
# The throughput bar: >= 10,000 queries/sec on the 4,000-transaction
# snapshot (interactive latency with plenty of headroom).
qps="$(sed -n 's/.*"queries_per_sec": \([0-9.]*\).*/\1/p' BENCH_serve.json)"
[ -n "$qps" ] || { echo "bench: no queries_per_sec headline" >&2; exit 1; }
awk -v q="$qps" 'BEGIN { exit !(q >= 10000.0) }' \
  || { echo "bench: serving throughput ${qps} queries/sec < 10k bar" >&2; exit 1; }
echo "bench: serving throughput ${qps} queries/sec (>= 10k bar)"

echo "bench: artifacts written"
