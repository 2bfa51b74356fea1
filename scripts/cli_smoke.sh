#!/bin/sh
# Shard-and-merge smoke for the railcorr CLI (registered as ctest
# `cli/shard_merge_smoke` and run by CI):
#   1. evaluate a tiny sweep grid as 2 shards and as 1 shard,
#   2. merge both ways — the outputs must be byte-identical
#      (the cross-shard determinism contract),
#   3. run an --include-sizing grid as one sweep (cells share ISD
#      searches, corridor worst cases and sizing jobs through the stage
#      memo) and as one-cell shards (nothing to share), merge both and
#      check the bytes agree, then run an --include-sizing grid that
#      mixes a 2-rung and a 5-rung ladder in one rung wave at 1 and 4
#      threads and as 3 shards, and check the bytes agree,
#   4. run the first grid under --accuracy fast as one sweep and as 2
#      shards, merge both and check the bytes agree and line 1 carries
#      the fast-mode banner tag,
#   5. corrupt one shard row and check merge exits nonzero,
#   6. pin the CLI error matrix: exit codes AND messages of the
#      sweep/orchestrate/cache usage-error paths (wrong-flag
#      combinations, refused resumes, unknown RAILCORR_SIMD /
#      RAILCORR_ACCURACY values) so orchestrating scripts can rely on
#      them.
#
# usage: cli_smoke.sh <railcorr-binary>
set -eu

BIN="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# A fast grid: shallow repeater sweep, coarse search steps, 2x2 axes.
cat > "$TMP/plan.sweep" <<'PLAN'
base = paper
set max_repeaters = 2
set isd_search.isd_step_m = 100
set isd_search.sample_step_m = 50
axis radio.lp_eirp_dbm = 37, 40
axis timetable.trains_per_hour = 8, 12
PLAN

"$BIN" sweep --plan "$TMP/plan.sweep" --shard 0/2 --out "$TMP/shard0.csv"
"$BIN" sweep --plan "$TMP/plan.sweep" --shard 1/2 --out "$TMP/shard1.csv"
"$BIN" sweep --plan "$TMP/plan.sweep" --shard 0/1 --out "$TMP/full.csv"

"$BIN" merge --out "$TMP/merged_sharded.csv" \
    "$TMP/shard0.csv" "$TMP/shard1.csv"
"$BIN" merge --out "$TMP/merged_single.csv" "$TMP/full.csv"

if ! cmp "$TMP/merged_sharded.csv" "$TMP/merged_single.csv"; then
  echo "FAIL: sharded merge differs from single-process run" >&2
  exit 1
fi

# The stage memo is invisible in the bytes: the whole-grid sweep runs
# 2 ISD searches, 4 corridor worst cases and 2 sizing jobs for its 8
# cells, while each one-cell shard computes every stage itself.
cat > "$TMP/memo.sweep" <<'PLAN'
base = paper
set max_repeaters = 2
set isd_search.isd_step_m = 100
set isd_search.sample_step_m = 50
set sizing.years = 1
axis radio.lp_eirp_dbm = 37, 40
axis corridor.segments = 2, 3
axis timetable.trains_per_hour = 8, 12
PLAN
"$BIN" sweep --plan "$TMP/memo.sweep" --include-sizing \
    --out "$TMP/memo_full.csv"
"$BIN" merge --out "$TMP/memo_single.csv" "$TMP/memo_full.csv"
cell_shards=""
i=0
while [ "$i" -lt 8 ]; do
  "$BIN" sweep --plan "$TMP/memo.sweep" --include-sizing --shard "$i/8" \
      --out "$TMP/memo_cell$i.csv"
  cell_shards="$cell_shards $TMP/memo_cell$i.csv"
  i=$((i + 1))
done
# shellcheck disable=SC2086  # one path per word
"$BIN" merge --out "$TMP/memo_cells.csv" $cell_shards
if ! cmp "$TMP/memo_cells.csv" "$TMP/memo_single.csv"; then
  echo "FAIL: one-cell shards differ from the memoized single sweep" >&2
  exit 1
fi

# Mixed ladders: in each weather group's second rung wave the 2-rung
# ladder's last rung (720 Wp, run over the full years) steps beside
# the paper ladder's second (540 Wp, which stops at its first day of
# downtime). Thread count and shard split must not show in the bytes.
cat > "$TMP/ladders.sweep" <<'PLAN'
base = paper
set max_repeaters = 2
set isd_search.isd_step_m = 100
set isd_search.sample_step_m = 50
set sizing.years = 1
set sizing.locations = madrid, berlin, oslo
axis sizing.ladder = 540:720;720:2880, 540:720;540:1440;600:1440;600:2160;720:2160
axis timetable.trains_per_hour = 8, 20
PLAN
for threads in 1 4; do
  "$BIN" sweep --plan "$TMP/ladders.sweep" --include-sizing \
      --threads "$threads" --out "$TMP/ladders_t$threads.csv"
done
if ! cmp "$TMP/ladders_t1.csv" "$TMP/ladders_t4.csv"; then
  echo "FAIL: mixed-ladder sweep differs between 1 and 4 threads" >&2
  exit 1
fi
for i in 0 1 2; do
  "$BIN" sweep --plan "$TMP/ladders.sweep" --include-sizing --shard "$i/3" \
      --out "$TMP/ladders_shard$i.csv"
done
"$BIN" merge --out "$TMP/ladders_single.csv" "$TMP/ladders_t1.csv"
"$BIN" merge --out "$TMP/ladders_sharded.csv" "$TMP/ladders_shard0.csv" \
    "$TMP/ladders_shard1.csv" "$TMP/ladders_shard2.csv"
if ! cmp "$TMP/ladders_sharded.csv" "$TMP/ladders_single.csv"; then
  echo "FAIL: mixed-ladder shards differ from the single sweep" >&2
  exit 1
fi

# Fast accuracy mode keeps the cross-shard contract within the mode,
# and every fast-mode document is tagged so it never mixes with exact
# rows or with fast rows of an older build ("accuracy=fast-ulp").
"$BIN" sweep --plan "$TMP/plan.sweep" --accuracy fast \
    --out "$TMP/fast_full.csv"
"$BIN" sweep --plan "$TMP/plan.sweep" --accuracy fast --shard 0/2 \
    --out "$TMP/fast0.csv"
"$BIN" sweep --plan "$TMP/plan.sweep" --accuracy fast --shard 1/2 \
    --out "$TMP/fast1.csv"
"$BIN" merge --out "$TMP/fast_single.csv" "$TMP/fast_full.csv"
"$BIN" merge --out "$TMP/fast_sharded.csv" "$TMP/fast0.csv" "$TMP/fast1.csv"
if ! cmp "$TMP/fast_sharded.csv" "$TMP/fast_single.csv"; then
  echo "FAIL: fast-mode sharded merge differs from the single sweep" >&2
  exit 1
fi
for doc in fast_full fast0 fast1 fast_single; do
  case "$(head -n 1 "$TMP/$doc.csv")" in
    *" accuracy=fast-ulp2") ;;
    *)
      echo "FAIL: $doc.csv line 1 lacks the accuracy=fast-ulp2 tag" >&2
      exit 1
      ;;
  esac
done

# A corrupted row under a now-stale integrity trailer is caught by the
# trailer check first: an I/O-integrity input error (exit 1), not a
# determinism-contract violation.
sed 's/^0,37,8,/0,37,8,CORRUPTED/' "$TMP/shard0.csv" > "$TMP/shard0_stale.csv"
set +e
"$BIN" merge "$TMP/shard0_stale.csv" "$TMP/full.csv" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: stale-trailer corruption exited $code, expected 1" >&2
  exit 1
fi

# With the trailer stripped the document is structurally valid again,
# so the same corrupted row now means overlapping cells with differing
# bytes — the dedicated contract-violation exit code (2, not 1).
grep -v '^@railcorr-crc ' "$TMP/shard0.csv" \
    | sed 's/^0,37,8,/0,37,8,CORRUPTED/' > "$TMP/shard0_bad.csv"
set +e
"$BIN" merge "$TMP/shard0_bad.csv" "$TMP/full.csv" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
  echo "FAIL: corrupted duplicate row exited $code, expected 2" >&2
  exit 1
fi

# Garbage input is a usage error (1), not a determinism violation.
echo "not a shard document" > "$TMP/garbage.csv"
set +e
"$BIN" merge "$TMP/garbage.csv" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: garbage input exited $code, expected 1" >&2
  exit 1
fi

# --- 6: the CLI error matrix ------------------------------------------
# Each case pins BOTH the exit code and a stable message fragment:
# exit 1 = usage/configuration error, exit 2 = the grid you asked for
# is not the grid on disk (refused resume).
#
#   expect_error <code> <message-fragment> <args...>
expect_error() {
  want_code="$1"; want_msg="$2"; shift 2
  set +e
  got_msg="$("$BIN" "$@" 2>&1 >/dev/null)"
  got_code=$?
  set -e
  if [ "$got_code" -ne "$want_code" ]; then
    echo "FAIL: '$*' exited $got_code, expected $want_code" >&2
    exit 1
  fi
  case "$got_msg" in
    *"$want_msg"*) ;;
    *)
      echo "FAIL: '$*' stderr lacks '$want_msg': $got_msg" >&2
      exit 1
      ;;
  esac
}

# sweep flag misuse.
expect_error 1 "--progress requires --out" \
    sweep --plan "$TMP/plan.sweep" --progress
expect_error 1 "--cache-max-mb requires --cache-dir" \
    sweep --plan "$TMP/plan.sweep" --cache-max-mb 64
expect_error 1 "--plan FILE required" sweep
expect_error 1 "cannot read" sweep --plan "$TMP/no_such_plan.sweep"
# 2^64 + 1 is out of range: rejected, never wrapped to shard 1/2.
expect_error 1 "expected '<i>/<N>' with decimal numbers" \
    sweep --plan "$TMP/plan.sweep" --shard 18446744073709551617/2
# 2^44 + 1 MiB overflows a 64-bit byte count: rejected, never wrapped
# to a 1 MiB cap.
expect_error 1 "MiB overflows a byte count" \
    sweep --plan "$TMP/plan.sweep" --cache-dir "$TMP/c" \
    --cache-max-mb 17592186044417
# A non-finite heartbeat period would overflow the timer and flood the
# protocol stream.
expect_error 1 "--heartbeat must be >= 0 seconds, finite" \
    sweep --plan "$TMP/plan.sweep" --out "$TMP/hb.csv" --progress \
    --heartbeat inf

# merge flag misuse: an unknown option is not a shard path.
expect_error 1 "merge: unknown option '--outt'" \
    merge --outt "$TMP/x.csv" "$TMP/full.csv"

# orchestrate argument misuse.
expect_error 1 "--plan FILE and --out-dir DIR required" \
    orchestrate --workers 2
expect_error 1 "drop --out-dir" \
    orchestrate --resume "$TMP/run" --out-dir "$TMP/other"
expect_error 1 "--cache-max-mb requires --cache-dir" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/x" --cache-max-mb 8
expect_error 1 "--stall-timeout must be >= 0 seconds, finite" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/st" \
    --stall-timeout nan

# orchestrate resume error paths.
expect_error 1 "cannot read" orchestrate --resume "$TMP/no_such_run"
mkdir -p "$TMP/freshrun"
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/freshrun" \
    --workers 2 2>/dev/null >/dev/null
expect_error 1 "already holds an orchestrate.manifest" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/freshrun"
# A resume whose --plan disagrees with the recorded run: refused, and
# with the dedicated exit code 2, not a generic usage error.
sed 's/axis radio.lp_eirp_dbm = 37, 40/axis radio.lp_eirp_dbm = 37, 41/' \
    "$TMP/plan.sweep" > "$TMP/other_plan.sweep"
expect_error 2 "--resume refused" \
    orchestrate --resume "$TMP/freshrun" --plan "$TMP/other_plan.sweep"

# distributed-orchestration flag misuse: every transport flag is
# validated before any filesystem work, so a typo never strands a run.
expect_error 1 "requires --hosts" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d1" \
    --launcher 'ssh {host} {cmd}'
expect_error 1 "requires --hosts" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d2" \
    --fetch 'scp {host}:{remote} {local}'
expect_error 1 "--fetch-timeout requires --fetch" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d3" \
    --hosts h1 --launcher 'ssh {host} {cmd}' --fetch-timeout 5
expect_error 1 "unknown placeholder" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d4" \
    --hosts h1 --launcher 'ssh {hots} {cmd}'
expect_error 1 "must contain '{cmd}'" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d5" \
    --hosts h1 --launcher 'ssh {host}'
expect_error 1 "no --launcher template" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d6" --hosts h1,local
expect_error 1 "must match --hosts" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d7" \
    --hosts h1,h2 --launcher 'ssh {host} {cmd}' --threads 2,4,8
expect_error 1 "empty host name" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d8" \
    --hosts "h1,,h2" --launcher 'ssh {host} {cmd}'
expect_error 1 "duplicate host" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d9" \
    --hosts h1,h1 --launcher 'ssh {host} {cmd}'

# --threads follows the one list rule of --hosts and axis values: items
# are trimmed of blanks, and an empty item is an error naming the flag.
for threads in "2," ",2" "2,,2"; do
  expect_error 1 "malformed value for '--threads'" \
      orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/t_empty" \
      --threads "$threads"
done
expect_error 1 "--threads list (2 entries) must match --hosts (3" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/t_count" \
    --hosts h1,h2,h3 --launcher 'ssh {host} {cmd}' --threads "2, 2"
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/t_run" \
    --workers 2 --threads "1, 1" >/dev/null 2>&1
if ! cmp "$TMP/t_run/merged.csv" "$TMP/full.csv"; then
  echo "FAIL: --threads '1, 1' run differs from the single sweep" >&2
  exit 1
fi

# Unknown environment overrides: exit 1 before any output is written.
# "fast-ulp" is the mode's printed name, "avx" a near miss; both used
# to run silently with the default.
(
  RAILCORR_ACCURACY=fast-ulp
  export RAILCORR_ACCURACY
  expect_error 1 "RAILCORR_ACCURACY must be 'exact' or 'fast', got 'fast-ulp'" \
      sweep --plan "$TMP/plan.sweep" --out "$TMP/env_accuracy.csv"
)
(
  RAILCORR_SIMD=avx
  export RAILCORR_SIMD
  expect_error 1 "RAILCORR_SIMD must be 'scalar', 'avx2' or 'auto', got 'avx'" \
      sweep --plan "$TMP/plan.sweep" --out "$TMP/env_simd.csv"
  expect_error 1 "RAILCORR_SIMD must be 'scalar', 'avx2' or 'auto'" \
      orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/env_run"
)
for leftover in env_accuracy.csv env_simd.csv env_run; do
  if [ -e "$TMP/$leftover" ]; then
    echo "FAIL: a rejected environment override still wrote $leftover" >&2
    exit 1
  fi
done

# cache verb misuse.
expect_error 1 "expected a verb" cache
expect_error 1 "unknown verb" cache prune --dir "$TMP/cache"
expect_error 1 "--dir DIR required" cache stats
expect_error 1 "--max-mb N required" cache gc --dir "$TMP/cache"
# 2^44 MiB wraps a 64-bit byte count to 0, which would evict the whole
# store: rejected instead.
expect_error 1 "MiB overflows a byte count" \
    cache gc --dir "$TMP/cache" --max-mb 17592186044416
expect_error 1 "unknown option '--strict'" cache stats --dir x --strict

echo "cli shard+merge smoke OK"
