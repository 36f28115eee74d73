#!/usr/bin/env bash
# End-to-end benchmark of mahjong-cpp: builds bench/e2e (which compiles the
# library from ../../src), runs the workloads, checks every output.
#
#   bench/e2e/run.sh [--seed N] [--seconds S]
#       Every workload untraced, then every workload traced; prints each
#       metric with its unit. Exits nonzero on a wrong output or trace.
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload; the last stdout line is the JSON result.
#   bench/e2e/run.sh --repeat N [--seed S] [--seconds S]
#       N >= 2 untraced runs per workload on seeds S, S+1, ...; prints
#       median, quartiles and spread per metric, and exits nonzero if the
#       even and odd runs differ by more than a metric's bound.
#   bench/e2e/run.sh --write-expected [--seed N]
#       Writes bench/e2e/expected/seed-N.json from the reference
#       configuration. Run it on the parent commit when adding a seed.
#
# Build outputs, results and traces go to $CARGO_TARGET_DIR/e2e
# (default .bench_build/e2e; a relative path is taken from the repo root).
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
TARGET=${CARGO_TARGET_DIR:-.bench_build}
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
BUILD="$TARGET/e2e"
BIN="$BUILD/e2e-bench"
WORKLOADS="m2obj-eclipse 2obj-pmd m2obj-small"

MODE=all WORKLOAD="" SEED=0 SECONDS_ARG=30 TRACE=0 REPEAT=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD=$2; MODE=one; shift 2 ;;
    --seed) SEED=$2; shift 2 ;;
    --seconds) SECONDS_ARG=$2; shift 2 ;;
    --trace) TRACE=$2; shift 2 ;;
    --repeat) REPEAT=$2; MODE=repeat; shift 2 ;;
    --write-expected) MODE=expected; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [ "$MODE" = repeat ] && [ "$REPEAT" -lt 2 ]; then
  echo "run.sh: --repeat needs at least 2 runs" >&2
  exit 2
fi

# Everything, the compiler's temporary files included, stays in the build
# directory.
mkdir -p "$BUILD/tmp"
export TMPDIR="$BUILD/tmp"
cmake -S "$HERE" -B "$BUILD" >&2
cmake --build "$BUILD" -j "$(nproc)" >&2
mkdir -p "$BUILD/traces" "$BUILD/expected" "$BUILD/results"

# Expected outputs for workload $1 under seed $2: the checked-in file, or
# else one computed here with the reference configuration and cached.
expected_for() {
  local file="$HERE/expected/seed-$2.json"
  if [ -f "$file" ]; then echo "$file"; return; fi
  file="$BUILD/expected/seed-$2-$1.json"
  if [ ! -f "$file" ]; then
    echo "e2e: no checked-in expected outputs for seed $2;" \
         "running the reference configuration" >&2
    "$BIN" --write-expected --seed "$2" --workload "$1" --out "$file.tmp" >&2
    mv "$file.tmp" "$file"
  fi
  echo "$file"
}

# One run: workload $1, seed $2, seconds $3, trace $4. Prints the result
# line; returns the benchmark's status, or 1 for a malformed trace.
run_one() {
  local expected trace_out="$BUILD/traces/$1.json" out status=0
  expected=$(expected_for "$1" "$2")
  rm -f "$trace_out"
  out=$("$BIN" --workload "$1" --seed "$2" --seconds "$3" --trace "$4" \
        --expected "$expected" --trace-out "$trace_out") || status=$?
  if [ "$4" = 1 ] && [ "$status" = 0 ] &&
     ! "$BUILD/trace-validate" "$trace_out" >&2; then
    echo "e2e: malformed trace $trace_out" >&2
    return 1
  fi
  printf '%s\n' "$out" | tail -n 1
  return "$status"
}

# The program under test sees only generated text, so the text must be a
# function of the seed: equal for equal seeds, different otherwise.
check_seed() {
  local w a b c
  for w in $WORKLOADS; do
    a=$("$BIN" --source-hash --workload "$w" --seed "$SEED")
    b=$("$BIN" --source-hash --workload "$w" --seed "$SEED")
    c=$("$BIN" --source-hash --workload "$w" --seed "$((SEED + 1))")
    if [ "$a" != "$b" ] || [ "$a" = "$c" ]; then
      echo "e2e: $w: generated text is not a function of the seed" >&2
      return 1
    fi
  done
  echo "e2e: seed check passed (same seed, same text; new seed, new text)" >&2
}

case "$MODE" in
  one)
    run_one "$WORKLOAD" "$SEED" "$SECONDS_ARG" "$TRACE"
    ;;
  expected)
    mkdir -p "$HERE/expected"
    "$BIN" --write-expected --seed "$SEED" \
           --out "$HERE/expected/seed-$SEED.json"
    echo "e2e: wrote $HERE/expected/seed-$SEED.json" >&2
    ;;
  all)
    check_seed
    status=0
    for trace in 0 1; do
      for w in $WORKLOADS; do
        echo "e2e: $w (trace $trace)" >&2
        run_one "$w" "$SEED" "$SECONDS_ARG" "$trace" \
          > "$BUILD/results/$w.trace$trace.json" || status=1
      done
    done
    python3 "$HERE/report.py" table "$ROOT/BENCHMARK.json" \
            "$BUILD/results" $WORKLOADS || status=1
    exit "$status"
    ;;
  repeat)
    check_seed
    status=0
    for ((i = 0; i < REPEAT; i++)); do
      for w in $WORKLOADS; do
        echo "e2e: $w run $i (seed $((SEED + i)))" >&2
        run_one "$w" "$((SEED + i))" "$SECONDS_ARG" 0 \
          > "$BUILD/results/$w.run$i.json" || status=1
      done
    done
    python3 "$HERE/report.py" repeat "$ROOT/BENCHMARK.json" \
            "$BUILD/results" "$REPEAT" $WORKLOADS || status=1
    exit "$status"
    ;;
esac
