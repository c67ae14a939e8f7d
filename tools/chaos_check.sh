#!/usr/bin/env sh
# Crash-recovery and chaos acceptance check for the exec engine's checkpoint
# journal and for pcm::shard, the crash-tolerant multi-process sweep runner.
#
# Every phase byte-compares its CSV against one uninterrupted in-process
# reference run of the same bench binary:
#
#   1. In-process kill + resume: a checkpointed sweep is SIGKILLed as soon as
#      its journal shows a completed cell (no chance to flush, destruct, or
#      handle a signal — exactly the crash the journal is for), then resumed
#      with --resume.
#   2. Worker chaos: the same sweep with --shard-workers=N under a seeded
#      PCM_PROCESS_CHAOS kill schedule — several workers are SIGKILLed
#      mid-sweep (each strictly after journalling at least one cell); the
#      supervisor must restart them, reassign their unfinished cells, and
#      complete.
#   3. Supervisor kill + resume: a checkpointed sharded run is SIGKILLed
#      (workers die with it via their heartbeat pipes) as soon as its
#      journals show progress, then resumed with --resume.
#
# A killed sweep that finishes before the kill lands still exercises the
# full-resume path (every cell skipped) and must still reproduce the
# reference bytes.
#
# Usage: tools/chaos_check.sh <bench-binary> [trials] [workers]
#   e.g. tools/chaos_check.sh build/bench/fig11_bitonic_bpram_gcel 60 4

set -eu

BENCH="${1:?usage: $0 <bench-binary> [trials] [workers]}"
TRIALS="${2:-60}"
WORKERS="${3:-4}"
EXPERIMENT="$(basename "$BENCH" | cut -d_ -f1)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM
# Csv::write never mkdirs.
mkdir -p "$WORK/ref" "$WORK/killed" "$WORK/resumed" "$WORK/chaos" \
         "$WORK/shard-killed" "$WORK/shard-resumed"

# A journal record line in either format: v2 "<fnv16> cell ..." or v1 "cell ...".
RECORD='^([0-9a-f]{16} )?cell '
REF_CSV="$WORK/ref/$EXPERIMENT.csv"

# kill_at_first_cell PID JOURNAL_DIR: poll the journals under JOURNAL_DIR
# (base and shard files alike) for the first completed-cell record, then
# SIGKILL PID without ceremony and report how far the sweep got.
kill_at_first_cell() {
  pid="$1"
  dir="$2"
  killed=0
  i=0
  while [ "$i" -lt 2000 ]; do
    if grep -Eq "$RECORD" "$dir"/*.journal* 2>/dev/null; then
      if kill -KILL "$pid" 2>/dev/null; then
        killed=1
      fi
      break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      break  # finished before we could kill it; resume still gets tested
    fi
    sleep 0.01
    i=$((i + 1))
  done
  wait "$pid" 2>/dev/null || true

  if ! ls "$dir"/*.journal* >/dev/null 2>&1; then
    echo "FAIL: no journal file was written under $dir" >&2
    exit 1
  fi
  done_before="$(cat "$dir"/*.journal* | grep -Ec "$RECORD" || true)"
  if [ "$killed" -eq 1 ]; then
    echo "   killed mid-sweep with $done_before cells journalled"
  else
    echo "   sweep finished before the kill ($done_before cells journalled);"
    echo "   continuing — resume must still reproduce the reference bytes"
  fi
}

# expect_reference RESULTS_DIR WHAT: fail unless the run's CSV is
# byte-identical to the reference.
expect_reference() {
  csv="$1/$EXPERIMENT.csv"
  if [ ! -f "$csv" ]; then
    echo "FAIL: missing CSV output ($csv)" >&2
    exit 1
  fi
  if ! cmp -s "$REF_CSV" "$csv"; then
    echo "FAIL: $2 CSV differs from the in-process reference:" >&2
    diff "$REF_CSV" "$csv" >&2 || true
    exit 1
  fi
  echo "   OK: $2 output is byte-identical to the reference"
}

echo "== reference run (in-process, uninterrupted)"
PCM_RESULTS_DIR="$WORK/ref" "$BENCH" --trials="$TRIALS" --jobs=1 >/dev/null
if [ ! -f "$REF_CSV" ]; then
  echo "FAIL: missing reference CSV output ($REF_CSV)" >&2
  exit 1
fi

echo "== in-process checkpointed run, SIGKILL once the journal shows progress"
PCM_RESULTS_DIR="$WORK/killed" "$BENCH" --trials="$TRIALS" \
    --checkpoint="$WORK/journal" >/dev/null 2>&1 &
kill_at_first_cell $! "$WORK/journal"

echo "== resume the in-process sweep from its journal"
PCM_RESULTS_DIR="$WORK/resumed" "$BENCH" --trials="$TRIALS" \
    --checkpoint="$WORK/journal" --resume >/dev/null
expect_reference "$WORK/resumed" "resumed in-process"

echo "== sharded run under a seeded worker-kill schedule"
# kill=0.6 over the first 6 spawn ordinals: with $WORKERS initial workers a
# majority of early incarnations die mid-sweep and must be replaced. The
# schedule is a pure function of the seed, so failures reproduce exactly.
PCM_PROCESS_CHAOS="seed=7:kill=0.6:max=6" \
PCM_RESULTS_DIR="$WORK/chaos" \
  "$BENCH" --trials="$TRIALS" --shard-workers="$WORKERS" >/dev/null
expect_reference "$WORK/chaos" "chaos-sharded"

echo "== sharded checkpointed run, SIGKILL the supervisor mid-sweep"
# Progress shows up in the workers' shard journals first; the base journal
# only exists once the supervisor merges.
PCM_RESULTS_DIR="$WORK/shard-killed" "$BENCH" --trials="$TRIALS" \
    --shard-workers="$WORKERS" --checkpoint="$WORK/shard-journal" \
    >/dev/null 2>&1 &
kill_at_first_cell $! "$WORK/shard-journal"

echo "== resume the sharded sweep from base + shard journals"
PCM_RESULTS_DIR="$WORK/shard-resumed" "$BENCH" --trials="$TRIALS" \
    --shard-workers="$WORKERS" --checkpoint="$WORK/shard-journal" \
    --resume >/dev/null
expect_reference "$WORK/shard-resumed" "resumed sharded"

echo "OK: in-process and sharded sweeps survive SIGKILL+resume and worker chaos"
