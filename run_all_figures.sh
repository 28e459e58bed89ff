#!/bin/sh
# Regenerates every paper figure/table at full scale. CSVs land in results/,
# terminal tables in results/logs/.
#
# Usage: ./run_all_figures.sh [-j N] [-s] [-S] [-P]
#   -j N   run N figure bins concurrently (default: number of CPUs).
#   -s     also run the multi-tenant server bench (server_bench; off by
#          default — it is a systems benchmark, not a paper figure).
#   -S     also run the simulator capacity-scaling bench (sim_scale; off by
#          default — it measures events/sec out to 50k machines, not a
#          paper figure).
#   -P     also run the speculative fit-prefetch bench (fit_prefetch; off
#          by default — it measures boundary-stall overlap, not a paper
#          figure).
#
# The workspace is built once up front; the figure bins then run from the
# prebuilt binaries in parallel, and the fidelity-frontier bench
# (fit_frontier, which times fits) runs alone after them. Bins that carry
# a number the paper states record it as a claim; fit_frontier, running
# last, leaves every bin's claims collected in results/SCORECARD.json. The script fails fast: the first failing
# bin aborts the run and its name is printed. The opt-in system benches
# (-s/-S/-P) run as dedicated serial stages after the figure pool — they
# measure wall-clock contention effects, so they must not share the
# machine with the figure bins, and running them directly (rather than
# inside the xargs pool) propagates their exact nonzero exit status.
#
# Caching: every bin shares fitted learning-curve posteriors through the
# content-addressed fit cache (in-memory per bin by default). Set
# HYPERDRIVE_FIT_CACHE=disk to persist fits in results/fitcache/ — bins
# then reuse each other's fits (each process appends its own shard, so
# the parallel stage is safe) and a rerun of this script replays most
# fits from disk; every CSV is byte-identical either way. Generated
# workload traces are cached in results/tracecache/ automatically: on a
# cold cache concurrent bins may race to generate the same trace set
# (harmless — content is deterministic and writes are atomic), after
# which every bin and every rerun reads the same file.
set -e

JOBS=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)
SERVER_BENCH=0
SIM_SCALE=0
FIT_PREFETCH=0
while getopts "j:sSP" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    s) SERVER_BENCH=1 ;;
    S) SIM_SCALE=1 ;;
    P) FIT_PREFETCH=1 ;;
    *) echo "usage: $0 [-j N] [-s] [-S] [-P]" >&2; exit 2 ;;
  esac
done

# The parallel figure pool. The opt-in system benches are appended to the
# *build* list only; they run serially below.
RUN_BINS="fig01_cifar_curves fig02_distribution_overtake fig03_prediction_over_time \
fig04_slot_allocation fig08_lunar_curves fig10_criu_overhead \
fig12a_sim_validation fig06_job_durations tab01_suspend_overhead \
fig09_time_to_target_lunar fig07_time_to_target_cifar \
fig12b_capacity_sweep fig12c_order_sensitivity \
tab02_lstm_frontier ablation_pop gantt_export scale_imagenet"
BINS="$RUN_BINS fit_frontier"
if [ "$SERVER_BENCH" = 1 ]; then
  BINS="$BINS server_bench"
fi
if [ "$SIM_SCALE" = 1 ]; then
  BINS="$BINS sim_scale"
fi
if [ "$FIT_PREFETCH" = 1 ]; then
  BINS="$BINS fit_prefetch"
fi

mkdir -p results/logs

# Build every requested bin once; the stages below only execute.
echo "=== build (once, release) ==="
# shellcheck disable=SC2086  # word-splitting BINS into repeated --bin flags is intended
cargo build -q --release -p hyperdrive-bench $(for b in $BINS; do printf -- '--bin %s ' "$b"; done)

BIN_DIR="$(dirname "$0")/target/release"

# Run the independent figure bins JOBS at a time. A bin exiting 255 makes
# xargs abort the whole run (fail fast), and the failing bin's name is
# printed.
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

echo "=== fit_frontier (fidelity frontier, section 5.2; collects results/SCORECARD.json) ==="
if ! "$BIN_DIR/fit_frontier" > results/logs/fit_frontier.log 2>&1; then
  echo "FAILED: fit_frontier (see results/logs/fit_frontier.log)" >&2
  exit 1
fi

# Opt-in system benches, one at a time on an otherwise idle machine.
if [ "$SERVER_BENCH" = 1 ]; then
  echo "=== server_bench (multi-tenant study server) ==="
  if ! "$BIN_DIR/server_bench" > results/logs/server_bench.log 2>&1; then
    echo "FAILED: server_bench (see results/logs/server_bench.log)" >&2
    exit 1
  fi
fi
if [ "$SIM_SCALE" = 1 ]; then
  echo "=== sim_scale (simulator capacity scaling) ==="
  if ! "$BIN_DIR/sim_scale" > results/logs/sim_scale.log 2>&1; then
    echo "FAILED: sim_scale (see results/logs/sim_scale.log)" >&2
    exit 1
  fi
fi
if [ "$FIT_PREFETCH" = 1 ]; then
  echo "=== fit_prefetch (speculative boundary-fit prefetch) ==="
  if ! "$BIN_DIR/fit_prefetch" > results/logs/fit_prefetch.log 2>&1; then
    echo "FAILED: fit_prefetch (see results/logs/fit_prefetch.log)" >&2
    exit 1
  fi
fi

echo "all figures regenerated; logs in results/logs/"
