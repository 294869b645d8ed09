#!/usr/bin/env bash
# The full verification ladder, cheapest first. Referenced from
# ROADMAP.md as the tier-1 gate; any step failing fails the run.
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

# Examples and test targets are not built by the steps above;
# compile every target so an API change cannot strand one of them.
# The tree compiles without warnings; any `warning` line fails the step.
echo "==> cargo check --release --all-targets (no warnings)"
cargo check --release --all-targets 2>&1 | tee "$SMOKE/check.log"
if grep -q '^warning' "$SMOKE/check.log"; then
  echo "ci: cargo check reported warnings; fix them" >&2
  exit 1
fi

# Clippy over every target, offline; any clippy warning fails the step.
echo "==> cargo clippy --all-targets (deny warnings)"
cargo clippy --all-targets --offline -- -D warnings

# Lints run before the test suites: a lint violation is cheaper to
# report than a full test run, and one uncached analyze pass over the
# workspace takes ~40 ms (2-vCPU VM, median of 20 runs).
echo "==> xtask analyze --deny-all"
cargo run -q --release -p xtask -- analyze --deny-all

echo "==> xtask analyze --json | xtask validate-json (report round-trip)"
cargo run -q --release -p xtask -- analyze --json > "$SMOKE/analyze.json"
cargo run -q --release -p xtask -- validate-json "$SMOKE/analyze.json"

echo "==> committed BENCH_*.json: valid, and every field a bench.sh gate reads"
# The artifacts are the performance record; a field a gate needs must
# not disappear from them unnoticed. json-get fails on a missing path,
# a null or a non-scalar.
XTASK=./target/release/xtask
for f in BENCH_*.json; do
  "$XTASK" validate-json "$f"
done
for gated in \
  BENCH_counting.json:available_parallelism BENCH_counting.json:scales.-1.transactions \
  BENCH_counting.json:scales.0.l2_speedup_bitmap_vs_flat \
  BENCH_counting.json:scales.-1.l2_speedup_bitmap_vs_flat \
  BENCH_counting.json:scales.0.bitmap_speedup_x4 BENCH_counting.json:scales.0.sharded.1.shards \
  BENCH_counting.json:scales.0.sharded.0.max_pass_candidates \
  BENCH_counting.json:scales.0.sharded.1.max_pass_candidates \
  BENCH_counting.json:scales.0.sharded.0.largest_shard \
  BENCH_counting.json:scales.0.sharded.1.largest_shard \
  BENCH_ctrl.json:overhead_pct BENCH_obs.json:overhead_pct BENCH_serve.json:oracle_agreement \
  BENCH_serve.json:hot_swap_survived BENCH_serve.json:queries_per_sec; do
  "$XTASK" json-get "${gated%%:*}" "${gated#*:}" > /dev/null
done
echo "ci: committed artifacts carry every gated field"

echo "==> cargo test -q"
cargo test -q

echo "==> fault-injection smoke (checkpoint/resume round trip)"
NEGRULES=./target/release/negrules
"$NEGRULES" generate --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --transactions 300 --seed 11 > /dev/null
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --backend flat --out "$SMOKE/clean.csv" > /dev/null
# A run with an injected permanent fault must fail but leave checkpoints.
if "$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --checkpoint-dir "$SMOKE/ckpt" \
  --inject-fail-pass 2 > /dev/null 2>&1; then
  echo "smoke: injected run unexpectedly succeeded" >&2
  exit 1
fi
[ -n "$(ls -A "$SMOKE/ckpt")" ] || { echo "smoke: no checkpoints written" >&2; exit 1; }
# Resuming from those checkpoints must reproduce the clean output exactly.
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --checkpoint-dir "$SMOKE/ckpt" \
  --out "$SMOKE/resumed.csv" > /dev/null
diff "$SMOKE/clean.csv" "$SMOKE/resumed.csv"
echo "smoke: resumed output byte-identical to the clean run"

echo "==> chaos soak (seeded cancel/fault/thread schedules, bitwise resume)"
cargo test -q --release -p negassoc --test chaos_soak

echo "==> interrupt smoke (exit-code contract: deadline cancel, resume)"
# An expired deadline must exit 3 (interrupted) — not 0, not 1 — and with
# --checkpoint-dir the re-run must finish with output identical to clean.
set +e
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --checkpoint-dir "$SMOKE/ckpt-int" \
  --deadline 0 > /dev/null 2> "$SMOKE/int.err"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "smoke: --deadline 0 exited $rc, want 3" >&2
  cat "$SMOKE/int.err" >&2
  exit 1
fi
grep -q "interrupted" "$SMOKE/int.err" || { echo "smoke: missing interrupt notice" >&2; exit 1; }
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --checkpoint-dir "$SMOKE/ckpt-int" \
  --out "$SMOKE/after-interrupt.csv" > /dev/null
diff "$SMOKE/clean.csv" "$SMOKE/after-interrupt.csv"
echo "smoke: interrupted run exited 3, resume byte-identical to the clean run"

echo "==> multi-thread smoke (worker-pool counting, crash + threaded resume)"
# Determinism contract: worker threads change wall time, never output.
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --threads 4 --pass-stats \
  --out "$SMOKE/threads4.csv" > /dev/null
diff "$SMOKE/clean.csv" "$SMOKE/threads4.csv"
# Crash a threaded run mid-pass, then resume it threaded: still identical.
if "$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --threads 4 --checkpoint-dir "$SMOKE/ckpt-mt" \
  --inject-fail-pass 2 > /dev/null 2>&1; then
  echo "smoke: threaded injected run unexpectedly succeeded" >&2
  exit 1
fi
[ -n "$(ls -A "$SMOKE/ckpt-mt")" ] || { echo "smoke: no threaded checkpoints" >&2; exit 1; }
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --threads 4 --checkpoint-dir "$SMOKE/ckpt-mt" \
  --out "$SMOKE/threads4-resumed.csv" > /dev/null
diff "$SMOKE/clean.csv" "$SMOKE/threads4-resumed.csv"
echo "smoke: threaded runs byte-identical to the sequential run"

echo "==> observability smoke (traced mine, JSON-lines validation)"
# A traced run must emit JSON lines the workspace's own strict parser
# accepts, and --metrics must surface the counter table. The pass table
# (--pass-stats), the trace's pass_end lines and run_end's passes all
# come from one pass ledger, so the three counts must agree.
pass_rows() {
  grep -cE '^ +[0-9]+  [A-Za-z0-9_]+ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9.]+s$' "$1" || true
}
check_pass_counts() { # <stdout of a --pass-stats run> <its trace>
  local rows ends run_end
  rows="$(pass_rows "$1")"
  ends="$(grep -c '"event":"pass_end"' "$2" || true)"
  run_end="$(sed -n 's/.*"event":"run_end","passes":\([0-9]*\).*/\1/p' "$2")"
  if [ "$rows" -eq 0 ] || [ "$rows" != "$ends" ] || [ "$rows" != "$run_end" ]; then
    echo "smoke: $1: $rows pass rows, $ends pass_end lines, run_end passes '$run_end'" >&2
    exit 1
  fi
}
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --threads 2 --pass-stats \
  --trace "$SMOKE/trace.jsonl" --metrics > "$SMOKE/obs.out"
[ -s "$SMOKE/trace.jsonl" ] || { echo "smoke: empty trace" >&2; exit 1; }
cargo run -q --release -p xtask -- validate-json "$SMOKE/trace.jsonl" --lines
grep -q '"event":"run_end"' "$SMOKE/trace.jsonl" \
  || { echo "smoke: trace missing run_end" >&2; exit 1; }
grep -q "passes.completed" "$SMOKE/obs.out" \
  || { echo "smoke: --metrics table missing" >&2; exit 1; }
check_pass_counts "$SMOKE/obs.out" "$SMOKE/trace.jsonl"
# EstMerge's sample and batch passes are on the same ledger.
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --algorithm estmerge --pass-stats \
  --trace "$SMOKE/est.jsonl" > "$SMOKE/est.out"
check_pass_counts "$SMOKE/est.out" "$SMOKE/est.jsonl"
grep -qE '^ +1  est_sample ' "$SMOKE/est.out" \
  || { echo "smoke: estmerge pass table has no est_sample row" >&2; exit 1; }
echo "smoke: trace is valid JSON lines, metrics table present, pass counts agree"

echo "==> sharded smoke (manifest mining, shard quarantine, degraded exit 0)"
# An all-healthy manifest must reproduce the unsharded output bytewise.
"$NEGRULES" generate --data "$SMOKE/sh.nadb" --taxonomy "$SMOKE/sh-tax.txt" \
  --transactions 600 --seed 7 --shards 3 > /dev/null
"$NEGRULES" negatives --data "$SMOKE/sh.nadb" --taxonomy "$SMOKE/sh-tax.txt" \
  --min-support 0.05 --max-size 2 --backend flat --out "$SMOKE/sh-whole.csv" > /dev/null
"$NEGRULES" negatives --manifest "$SMOKE/sh.manifest" --taxonomy "$SMOKE/sh-tax.txt" \
  --min-support 0.05 --max-size 2 --out "$SMOKE/sh-manifest.csv" > /dev/null
diff "$SMOKE/sh-whole.csv" "$SMOKE/sh-manifest.csv"
# Destroy one shard's header. Strict mode must refuse and name the shard;
# --salvage must quarantine it, mine the rest, and still exit 0 with the
# degraded completeness stated.
printf 'XXXX' | dd of="$SMOKE/sh-shard-001.nadb" bs=1 seek=0 conv=notrunc 2> /dev/null
set +e
"$NEGRULES" negatives --manifest "$SMOKE/sh.manifest" --taxonomy "$SMOKE/sh-tax.txt" \
  --min-support 0.05 --max-size 2 > /dev/null 2> "$SMOKE/sh-strict.err"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
  echo "smoke: strict manifest load of a dead shard exited $rc, want 1" >&2
  exit 1
fi
grep -q "sh-shard-001.nadb" "$SMOKE/sh-strict.err" \
  || { echo "smoke: strict error does not name the offending shard" >&2; exit 1; }
"$NEGRULES" negatives --manifest "$SMOKE/sh.manifest" --taxonomy "$SMOKE/sh-tax.txt" \
  --min-support 0.05 --max-size 2 --salvage \
  > "$SMOKE/sh-degraded.out" 2> "$SMOKE/sh-degraded.err"
grep -q "quarantine:" "$SMOKE/sh-degraded.err" \
  || { echo "smoke: degraded run missing quarantine report" >&2; exit 1; }
grep -q "completeness: complete except 1 quarantined shard" "$SMOKE/sh-degraded.out" \
  || { echo "smoke: degraded run missing completeness line" >&2; exit 1; }
echo "smoke: sharded manifest mined; dead shard quarantined with exit 0"

echo "==> backend matrix smoke (flat/bitmap byte-identical output)"
# Counting strategy must never move the answer: both --backend choices,
# sequential and threaded, reproduce the clean (flat) run bytewise.
for be in flat bitmap; do
  "$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
    --min-support 0.05 --max-size 2 --backend "$be" \
    --out "$SMOKE/backend-$be.csv" > /dev/null
  diff "$SMOKE/clean.csv" "$SMOKE/backend-$be.csv"
done
# The removed hash tree is a usage error (exit 2) naming what remains.
set +e
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --backend hashtree > /dev/null 2> "$SMOKE/hashtree.err"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "smoke: --backend hashtree exited $rc, want 2" >&2
  exit 1
fi
grep -q "hashtree was removed" "$SMOKE/hashtree.err" \
  && grep -q "\`bitmap\` (the default) or \`flat\`" "$SMOKE/hashtree.err" \
  || { echo "smoke: --backend hashtree error does not name bitmap and flat" >&2; exit 1; }
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --max-size 2 --backend bitmap --threads 4 \
  --out "$SMOKE/backend-bitmap-t4.csv" > /dev/null
diff "$SMOKE/clean.csv" "$SMOKE/backend-bitmap-t4.csv"
# Full depth (the default --max-size): the bitmap backend counts L2 in
# its pair matrix and L3+ plus the mixed-size negative pass by AND +
# popcount, so this diff covers both layouts against the flat reference.
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --backend flat --out "$SMOKE/deep-flat.csv" > /dev/null
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --backend bitmap --out "$SMOKE/deep-bitmap.csv" > /dev/null
"$NEGRULES" negatives --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --min-support 0.05 --backend bitmap --threads 4 \
  --out "$SMOKE/deep-bitmap-t4.csv" > /dev/null
diff "$SMOKE/deep-flat.csv" "$SMOKE/deep-bitmap.csv"
diff "$SMOKE/deep-flat.csv" "$SMOKE/deep-bitmap-t4.csv"
# And through a shard manifest (a fresh one: the quarantine stage above
# deliberately corrupted sh-shard-001).
"$NEGRULES" generate --data "$SMOKE/bm.nadb" --taxonomy "$SMOKE/bm-tax.txt" \
  --transactions 600 --seed 7 --shards 3 > /dev/null
"$NEGRULES" negatives --manifest "$SMOKE/bm.manifest" --taxonomy "$SMOKE/bm-tax.txt" \
  --min-support 0.05 --max-size 2 --backend bitmap \
  --out "$SMOKE/backend-bitmap-sharded.csv" > /dev/null
diff "$SMOKE/sh-whole.csv" "$SMOKE/backend-bitmap-sharded.csv"
# Multi-chunk, full depth: every smoke above fits one 1,024-transaction
# bitmap chunk and stops at L2 or L3. Tall 3k at 1% runs L1-L4 plus the
# negative pass over three chunks, so the row map, the prefix-shared AND
# kernel and the per-worker chunk split are diffed against flat here.
"$NEGRULES" generate --data "$SMOKE/t3k.nadb" --taxonomy "$SMOKE/t3k.txt" \
  --preset tall --transactions 3000 --seed 5 > /dev/null
"$NEGRULES" negatives --data "$SMOKE/t3k.nadb" --taxonomy "$SMOKE/t3k.txt" \
  --min-support 0.01 --backend flat --out "$SMOKE/t3k-flat.csv" > /dev/null
for threads in 1 4; do
  "$NEGRULES" negatives --data "$SMOKE/t3k.nadb" --taxonomy "$SMOKE/t3k.txt" \
    --min-support 0.01 --threads "$threads" --out "$SMOKE/t3k-bitmap-t$threads.csv" > /dev/null
  diff "$SMOKE/t3k-flat.csv" "$SMOKE/t3k-bitmap-t$threads.csv"
done
echo "smoke: bitmap byte-identical to flat, incl. threaded, sharded, full-depth and multi-chunk"

echo "==> snapshot byte pin (NARS bytes of Tall 3k at two confidence levels)"
# Export orders rules by ranked sides, the writer fills sections in place
# and CRC-32 runs slicing-by-8; none of it may move a byte. The POSIX
# cksum values (CRC, length) pin NARS v2: the v1 bytes the itemset-
# comparing sort and the byte-at-a-time CRC produced, with the version
# byte set to 2 and the stored 'X' index section cut. Reuses the Tall 3k
# dataset above.
pin_snapshot() {
  local want="$1"
  shift
  "$NEGRULES" export-snapshot --data "$SMOKE/t3k.nadb" --taxonomy "$SMOKE/t3k.txt" \
    --min-support 0.01 "$@" --out "$SMOKE/t3k-pin.nars" > /dev/null
  local got
  got="$(cksum < "$SMOKE/t3k-pin.nars")"
  if [ "$got" != "$want" ]; then
    echo "pin: export-snapshot $* wrote cksum '$got', want '$want'" >&2
    exit 1
  fi
}
pin_snapshot "2593360771 23484"
pin_snapshot "3971756848 68172" --min-conf 0.3
echo "pin: NARS bytes unchanged at both confidence levels"

echo "==> serve smoke (snapshot export, server vs offline oracle, SIGINT drain)"
# Mine a small dataset into a versioned snapshot, serve it, answer a
# scripted basket batch over TCP, and diff the served bytes against the
# offline full-scan oracle — any antecedent-index bug fails the diff. A
# mid-batch hot-swap and a SIGINT drain (clean exit 0) ride along.
"$NEGRULES" export-snapshot --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --out "$SMOKE/rules-v1.nars" --min-support 0.05 --min-ri 0.3 \
  --snapshot-version 1 > /dev/null
"$NEGRULES" export-snapshot --data "$SMOKE/d.nadb" --taxonomy "$SMOKE/t.txt" \
  --out "$SMOKE/rules-v2.nars" --min-support 0.05 --min-ri 0.5 \
  --snapshot-version 2 > /dev/null
# Basket batch: every taxonomy root and leaf as a singleton, some pairs,
# plus malformed lines (unknown item, empty) that must render as error
# bodies identically on both paths.
awk -F'\t' '{ print $1 } NR % 3 == 0 && prev != "" { print prev ", " $1 } { prev = $1 }' \
  "$SMOKE/t.txt" > "$SMOKE/baskets.txt"
printf 'no-such-item\n   \n' >> "$SMOKE/baskets.txt"
"$NEGRULES" match --snapshot "$SMOKE/rules-v1.nars" --taxonomy "$SMOKE/t.txt" \
  --baskets "$SMOKE/baskets.txt" --out "$SMOKE/oracle-v1.txt" > /dev/null
"$NEGRULES" match --snapshot "$SMOKE/rules-v2.nars" --taxonomy "$SMOKE/t.txt" \
  --baskets "$SMOKE/baskets.txt" --out "$SMOKE/oracle-v2.txt" > /dev/null
"$NEGRULES" serve --snapshot "$SMOKE/rules-v1.nars" --taxonomy "$SMOKE/t.txt" \
  --workers 2 > "$SMOKE/serve.out" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$SMOKE/serve.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "smoke: server never became ready" >&2; cat "$SMOKE/serve.out" >&2; exit 1; }
"$NEGRULES" query --addr "$ADDR" --ping | grep -q "pong snapshot 1" \
  || { echo "smoke: bad ping" >&2; exit 1; }
"$NEGRULES" query --addr "$ADDR" --baskets "$SMOKE/baskets.txt" \
  --out "$SMOKE/served-v1.txt" > /dev/null
diff "$SMOKE/oracle-v1.txt" "$SMOKE/served-v1.txt"
# Hot-swap to snapshot v2 over the wire; served answers must now match
# the v2 oracle byte-for-byte.
"$NEGRULES" query --addr "$ADDR" --swap "$SMOKE/rules-v2.nars" \
  | grep -q "swapped snapshot version 1 -> 2" \
  || { echo "smoke: hot swap failed" >&2; exit 1; }
"$NEGRULES" query --addr "$ADDR" --baskets "$SMOKE/baskets.txt" \
  --out "$SMOKE/served-v2.txt" > /dev/null
diff "$SMOKE/oracle-v2.txt" "$SMOKE/served-v2.txt"
# SIGINT is the server's normal shutdown: graceful drain, exit 0.
kill -INT "$SERVE_PID"
set +e
wait "$SERVE_PID"
rc=$?
set -e
if [ "$rc" -ne 0 ]; then
  echo "smoke: server exited $rc on SIGINT, want 0" >&2
  cat "$SMOKE/serve.out" >&2
  exit 1
fi
grep -q "served .* requests" "$SMOKE/serve.out" \
  || { echo "smoke: server drain stats missing" >&2; exit 1; }
# The indexed matcher answers by concatenating the lines a snapshot
# renders at load; the oracle formats every rule from its fields. The
# Tall 3k pin snapshot (conf 0.3, the last pinned above) answers tens of
# thousands of rule lines to this batch, so the diff covers the fixed-
# point number formatting as well as the index. Singletons and pairs
# match a few rules each; every 8 consecutive names (one subtree) and
# every 64th name (spread over the whole taxonomy) make multi-item
# baskets, the latter matching most of the 2,159 rules, so long runs of
# matched rules are diffed too.
awk -F'\t' '{ print $1 } NR % 3 == 0 && prev != "" { print prev ", " $1 } { prev = $1 }' \
  "$SMOKE/t3k.txt" > "$SMOKE/t3k-baskets.txt"
awk -F'\t' '{ b = NR % 8 == 1 ? $1 : b ", " $1 } NR % 8 == 0 { print b }' \
  "$SMOKE/t3k.txt" >> "$SMOKE/t3k-baskets.txt"
awk -F'\t' '{ b[NR % 64] = b[NR % 64] (NR > 64 ? ", " : "") $1 }
  END { for (k = 0; k < 64; k++) print b[k] }' "$SMOKE/t3k.txt" >> "$SMOKE/t3k-baskets.txt"
"$NEGRULES" match --snapshot "$SMOKE/t3k-pin.nars" --taxonomy "$SMOKE/t3k.txt" \
  --baskets "$SMOKE/t3k-baskets.txt" --out "$SMOKE/t3k-oracle.txt" > /dev/null
"$NEGRULES" match --snapshot "$SMOKE/t3k-pin.nars" --taxonomy "$SMOKE/t3k.txt" \
  --baskets "$SMOKE/t3k-baskets.txt" --indexed --out "$SMOKE/t3k-indexed.txt" > /dev/null
diff "$SMOKE/t3k-oracle.txt" "$SMOKE/t3k-indexed.txt"
# Every answer starts with a `snapshot` or `error:` line; count the rule
# lines after it.
longest="$(awk '/^(snapshot|error:) / { if (n > max) max = n; n = 0; next } { n++ }
  END { if (n > max) max = n; print max + 0 }' "$SMOKE/t3k-oracle.txt")"
if [ "$longest" -le 1000 ]; then
  echo "smoke: longest Tall 3k answer has $longest rule lines, want > 1000" >&2
  exit 1
fi
echo "smoke: served and indexed answers byte-identical to the oracle (longest: $longest rule lines); SIGINT drained exit 0"

echo "ci: all checks passed"
