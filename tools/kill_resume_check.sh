#!/usr/bin/env sh
# Crash-recovery check for the exec engine's checkpoint journal: a
# checkpointed sweep is SIGKILLed as soon as its journal shows a completed
# cell (no chance to flush, destruct, or handle a signal — exactly the crash
# the journal is for), then resumed with --resume. The resumed run's CSV
# must be byte-identical to one uninterrupted reference run of the same
# bench binary.
#
# A sweep that finishes before the kill lands still exercises the
# full-resume path (every cell skipped) and must still reproduce the
# reference bytes.
#
# Usage: tools/kill_resume_check.sh <bench-binary> [trials]
#   e.g. tools/kill_resume_check.sh build/bench/fig11_bitonic_bpram_gcel 20
# The kill_resume_fig11 ctest runs exactly that.

set -eu

BENCH="${1:?usage: $0 <bench-binary> [trials]}"
TRIALS="${2:-60}"
EXPERIMENT="$(basename "$BENCH" | cut -d_ -f1)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM
# Csv::write never mkdirs.
mkdir -p "$WORK/ref" "$WORK/killed" "$WORK/resumed"

# A journal record line: "<fnv16> cell ...".
RECORD='^[0-9a-f]{16} cell '
REF_CSV="$WORK/ref/$EXPERIMENT.csv"
CSV="$WORK/resumed/$EXPERIMENT.csv"
JOURNAL="$WORK/journal"

echo "== reference run (uninterrupted)"
PCM_RESULTS_DIR="$WORK/ref" "$BENCH" --trials="$TRIALS" --jobs=1 >/dev/null
if [ ! -f "$REF_CSV" ]; then
  echo "FAIL: missing reference CSV output ($REF_CSV)" >&2
  exit 1
fi

echo "== checkpointed run, SIGKILL once the journal shows progress"
PCM_RESULTS_DIR="$WORK/killed" "$BENCH" --trials="$TRIALS" \
    --checkpoint="$JOURNAL" >/dev/null 2>&1 &
pid=$!
killed=0
i=0
while [ "$i" -lt 2000 ]; do
  if grep -Eq "$RECORD" "$JOURNAL"/*.journal 2>/dev/null; then
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

if ! ls "$JOURNAL"/*.journal >/dev/null 2>&1; then
  echo "FAIL: no journal file was written under $JOURNAL" >&2
  exit 1
fi
done_before="$(cat "$JOURNAL"/*.journal | grep -Ec "$RECORD" || true)"
if [ "$killed" -eq 1 ]; then
  echo "   killed mid-sweep with $done_before cells journalled"
else
  echo "   sweep finished before the kill ($done_before cells journalled);"
  echo "   continuing — resume must still reproduce the reference bytes"
fi

echo "== resume the sweep from its journal"
PCM_RESULTS_DIR="$WORK/resumed" "$BENCH" --trials="$TRIALS" \
    --checkpoint="$JOURNAL" --resume >/dev/null
if [ ! -f "$CSV" ]; then
  echo "FAIL: missing CSV output ($CSV)" >&2
  exit 1
fi
if ! cmp -s "$REF_CSV" "$CSV"; then
  echo "FAIL: resumed CSV differs from the reference:" >&2
  diff "$REF_CSV" "$CSV" >&2 || true
  exit 1
fi
echo "OK: a SIGKILLed checkpointed sweep resumes to byte-identical output"
