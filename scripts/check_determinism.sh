#!/usr/bin/env bash
# Runs each CLI case below twice, in separate processes, and compares the
# named output files byte for byte. The second process runs with one BLAS
# thread (OPENBLAS_NUM_THREADS=1), so each case also checks that the output
# does not depend on the BLAS thread count. Exits non-zero on the first
# difference, and on any numpy RuntimeWarning (overflow, invalid value), which
# is an error.
#
#   scripts/check_determinism.sh [WORK_DIR [BASE_CHECKOUT]]
#
# Run from the root of a checkout; outputs go under WORK_DIR (a new temporary
# directory by default). Given the root of another checkout BASE_CHECKOUT (for
# example a copy of the parent commit), each case also runs a third time with
# PYTHONPATH=BASE_CHECKOUT/src, and its files must match the first run's byte
# for byte.
set -euo pipefail

work="${1:-$(mktemp -d)}"
base="${2:-}"
if [[ -n $base && ! -d $base/src/spinctrl ]]; then
  echo "no spinctrl package under $base/src" >&2
  exit 2
fi

# check NAME "FILES" CLI-ARGS...
check() {
  local name=$1 files=$2
  shift 2
  PYTHONPATH=src python -W error::RuntimeWarning -m spinctrl.cli "$@" --output-dir "$work/$name-a"
  OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -W error::RuntimeWarning -m spinctrl.cli "$@" \
    --output-dir "$work/$name-b"
  if [[ -n $base ]]; then
    PYTHONPATH="$base/src" python -W error::RuntimeWarning -m spinctrl.cli "$@" \
      --output-dir "$work/$name-base"
  fi
  for run in b ${base:+base}; do
    for f in $files; do
      cmp "$work/$name-a/$f" "$work/$name-$run/$f" ||
        { echo "differs: $name ($f, run $run)" >&2; exit 1; }
    done
  done
  echo "identical: $name ($files${base:+, and with $base})"
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
check robustness_gamma "robustness.json" \
  robustness --target not3 --n-pulses 8 --restarts 1 --seed 1 --gamma 0.3 --surrogate fractional
check signum "result.json pulses.csv" \
  run --target not3 --n-pulses 8 --restarts 1 --seed 1 --surrogate signum
check swap3 "result.json pulses.csv trajectories.csv" \
  run --target swap3 --n-pulses 32 --restarts 1 --seed 1
check not4 "result.json pulses.csv trajectories.csv" \
  run --target not4 --n-pulses 16 --restarts 1 --seed 1
check robustness_not4 "robustness.json" \
  robustness --target not4 --n-pulses 8 --restarts 1 --seed 1
# Several restarts in one process: objective, propagate and env-channel
# kernels of several sizes are built and freed in turn.
check robustness_restarts "robustness.json" \
  robustness --target swap4 --n-pulses 8 --restarts 3 --seed 2
# Large but finite phases: slices of duration 1e150 through the environment-chain
# check of robustness.
check robustness_large_dt "robustness.json" \
  robustness --target not3 --n-pulses 8 --restarts 1 --seed 1 --dt 1e150
# A config file whose null n_pulses takes the target's default, and a flag
# that overrides one of its keys.
printf '{"target": "not3", "n_pulses": null, "restarts": 3, "seed": 2}\n' > "$work/config.json"
check config "result.json pulses.csv trajectories.csv" \
  run --config "$work/config.json" --restarts 1
# A config file that gives float fields as JSON ints and an int field as an
# integral float: the config echo holds "n_pulses": 8, "dt": 1.0, "gamma": 0.0
# and "kT": 1.0.
printf '{"target": "not3", "n_pulses": 8.0, "dt": 1, "gamma": 0, "kT": 1, "seed": 1}\n' \
  > "$work/coerced.json"
check coerced "result.json pulses.csv trajectories.csv" \
  run --config "$work/coerced.json" --restarts 1
