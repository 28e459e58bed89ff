#!/bin/sh
# Regenerates every paper figure/table at full scale. CSVs land in results/,
# terminal tables in results/logs/.
#
# Usage: ./run_all_figures.sh [-j N] [-P]
#   -j N   run N figure bins concurrently (default: number of CPUs).
#   -P     also run the speculative fit-prefetch bench (fit_prefetch; off
#          by default — it measures boundary-stall overlap, not a paper
#          figure).
#
# The workspace is built once up front; the figure bins then run from the
# prebuilt binaries in parallel, and the fidelity-frontier bench
# (fit_frontier, which times fits) runs alone after them. Bins that carry
# a number the paper states record it as a claim; fit_frontier, running
# last, leaves every bin's claims collected in results/SCORECARD.json. The
# script fails fast: the first failing bin aborts the run and its name is
# printed. fig12a_sim_validation runs beside the pool and is timed on its
# own: its live executor sleeps in real time (every live leg at once, on a
# thread each), so it still outlasts the other 16 bins together, but by
# less than fit_frontier takes after it. Each stage's wall-clock is printed
# as it ends. The opt-in fit_prefetch bench runs as a dedicated
# serial stage after the figure pool — it measures wall-clock contention
# effects, so it must not share the machine with the figure bins, and
# running it directly (rather than inside the xargs pool) propagates its
# exact nonzero exit status.
set -e

JOBS=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)
FIT_PREFETCH=0
while getopts "j:P" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    P) FIT_PREFETCH=1 ;;
    *) echo "usage: $0 [-j N] [-P]" >&2; exit 2 ;;
  esac
done

# The parallel figure pool. The opt-in bench is appended to the *build*
# list only; it runs serially below.
RUN_BINS="fig01_cifar_curves fig02_distribution_overtake fig03_prediction_over_time \
fig04_slot_allocation fig08_lunar_curves fig10_criu_overhead \
fig06_job_durations tab01_suspend_overhead \
fig09_time_to_target_lunar fig07_time_to_target_cifar \
fig12b_capacity_sweep fig12c_order_sensitivity \
tab02_lstm_frontier ablation_pop gantt_export scale_imagenet"
BINS="$RUN_BINS fig12a_sim_validation fit_frontier"
if [ "$FIT_PREFETCH" = 1 ]; then
  BINS="$BINS fit_prefetch"
fi

mkdir -p results/logs

# Build every requested bin once; the stages below only execute.
echo "=== build (once, release) ==="
# shellcheck disable=SC2086  # word-splitting BINS into repeated --bin flags is intended
cargo build -q --release -p hyperdrive-bench $(for b in $BINS; do printf -- '--bin %s ' "$b"; done)

BIN_DIR="$(dirname "$0")/target/release"

# Stage timing: seconds since the epoch (fractional where date(1) can),
# and the time since such a reading.
now() { t=$(date +%s.%N); case "$t" in *N) date +%s ;; *) echo "$t" ;; esac; }
since() { awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1f s", b - a }'; }

# fig12a sleeps through its live runs: start it first, beside the pool,
# and collect it after. It exits non-zero when its simulation error
# exceeds the paper's 13 %.
echo "=== fig12a_sim_validation (live executor, real time; collected below) ==="
T_FIG12A=$(now)
"$BIN_DIR/fig12a_sim_validation" > results/logs/fig12a_sim_validation.log 2>&1 &
FIG12A_PID=$!
trap '[ -z "$FIG12A_PID" ] || kill "$FIG12A_PID" 2>/dev/null' EXIT

# Run the independent figure bins JOBS at a time. A bin exiting 255 makes
# xargs abort the whole run (fail fast), and the failing bin's name is
# printed.
T_POOL=$(now)
export BIN_DIR
# shellcheck disable=SC2086
echo $RUN_BINS | tr ' ' '\n' | xargs -P "$JOBS" -I {} sh -c '
  echo "=== {} ==="
  if ! "$BIN_DIR/{}" > "results/logs/{}.log" 2>&1; then
    echo "FAILED: {} (see results/logs/{}.log)" >&2
    exit 255
  fi
'

echo "=== fig12b_capacity_sweep (reinforcement learning, section 7.3) ==="
if ! "$BIN_DIR/fig12b_capacity_sweep" --domain rl > results/logs/fig12b_capacity_sweep_rl.log 2>&1; then
  echo "FAILED: fig12b_capacity_sweep --domain rl (see results/logs/fig12b_capacity_sweep_rl.log)" >&2
  exit 1
fi
echo "--- figure pool (16 bins + fig12b rl): $(since "$T_POOL")"

if ! wait "$FIG12A_PID"; then
  FIG12A_PID=
  echo "FAILED: fig12a_sim_validation (see results/logs/fig12a_sim_validation.log)" >&2
  exit 1
fi
FIG12A_PID=
echo "--- fig12a_sim_validation: $(since "$T_FIG12A")"

T_FRONTIER=$(now)
echo "=== fit_frontier (fidelity frontier, section 5.2; collects results/SCORECARD.json) ==="
if ! "$BIN_DIR/fit_frontier" > results/logs/fit_frontier.log 2>&1; then
  echo "FAILED: fit_frontier (see results/logs/fit_frontier.log)" >&2
  exit 1
fi
echo "--- fit_frontier: $(since "$T_FRONTIER")"

# The opt-in bench, on an otherwise idle machine.
if [ "$FIT_PREFETCH" = 1 ]; then
  echo "=== fit_prefetch (speculative boundary-fit prefetch) ==="
  if ! "$BIN_DIR/fit_prefetch" > results/logs/fit_prefetch.log 2>&1; then
    echo "FAILED: fit_prefetch (see results/logs/fit_prefetch.log)" >&2
    exit 1
  fi
fi

echo "all figures regenerated; logs in results/logs/"
