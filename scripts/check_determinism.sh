#!/usr/bin/env bash
# Runs each CLI case below twice, in separate processes, and compares the
# named output files byte for byte. Exits non-zero on the first difference,
# and on any numpy RuntimeWarning (overflow, invalid value), which is an error.
#
#   scripts/check_determinism.sh [WORK_DIR]
#
# Run from the root of a checkout; outputs go under WORK_DIR (a new temporary
# directory by default).
set -euo pipefail

work="${1:-$(mktemp -d)}"

# check NAME "FILES" CLI-ARGS...
check() {
  local name=$1 files=$2
  shift 2
  for d in a b; do
    PYTHONPATH=src python -W error::RuntimeWarning -m spinctrl.cli "$@" --output-dir "$work/$name-$d"
  done
  for f in $files; do
    cmp "$work/$name-a/$f" "$work/$name-b/$f"
  done
  echo "identical: $name ($files)"
}

check determinism "result.json pulses.csv trajectories.csv" \
  run --target not3 --n-pulses 8 --restarts 1 --seed 1
check bounded "result.json pulses.csv" \
  run --target not3 --n-pulses 8 --bound 2 --mu 0.9 --restarts 1 --seed 1
check tight "result.json pulses.csv" \
  run --target not3 --n-pulses 8 --bound 0.3 --restarts 1 --seed 1
check robustness "robustness.json" \
  robustness --target not3 --n-pulses 8 --restarts 1 --seed 1
check robustness4 "robustness.json" \
  robustness --target swap4 --n-pulses 8 --restarts 1 --seed 1
check run4 "result.json pulses.csv" \
  run --target swap4 --n-pulses 16 --restarts 2 --seed 1
check bounded4 "result.json pulses.csv" \
  run --target swap4 --n-pulses 16 --bound 2 --mu 0.9 --restarts 1 --seed 1
