#!/usr/bin/env bash
# Runs the benchmark's untraced command several times and reports, per
# (metric, workload), the median, min, max and spread of the readings;
# exits non-zero when a spread exceeds the metric's bound.
#
#   benchmark/repeat.sh [-n RUNS] [-s SEED] [-v] [-w WORKLOAD]... [-o FILE]
#
#   -n RUNS      readings per workload (default 3)
#   -s SEED      seed of the first run (default 1)
#   -v           vary the seed: run i uses SEED + i, as the driver does;
#                without it every run uses SEED
#   -w WORKLOAD  only this workload (repeatable; default: all five)
#   -o FILE      also write the readings, with host metadata, as JSON
#
# The command, the run length and the bounds are read from BENCHMARK.json.
# The spread is the driver's: the distance between the first and third
# quartile (statistics.quantiles, n=4) as a share of the median. setup_s
# is printed but, as in the driver, not held to its bound here.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "$@" <<'EOF'
import argparse, json, statistics, subprocess, sys

ap = argparse.ArgumentParser()
ap.add_argument("-n", type=int, default=3)
ap.add_argument("-s", type=int, default=1)
ap.add_argument("-v", action="store_true")
ap.add_argument("-w", action="append")
ap.add_argument("-o")
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
workloads = args.w or [w["name"] for w in bench["workloads"]]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

readings, hosts, failed = {}, {}, False
for workload in workloads:
    for i in range(args.n):
        seed = args.s + (i if args.v else 0)
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
        hosts[workload] = next(l[7:] for l in lines if l.startswith("# host "))
        for name, m in result["metrics"].items():
            readings.setdefault((name, workload), []).append(m["value"])
        print(f"{workload} seed {seed}: " +
              " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

print(f"\n{'metric':<18} {'workload':<14} {'median':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
for (name, workload), values in readings.items():
    med = statistics.median(values)
    spread = 0.0
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / med
    over = spread > bounds[name] and name != "setup_s"
    failed |= over
    print(f"{name:<18} {workload:<14} {med:>12.5g} {min(values):>12.5g} {max(values):>12.5g} "
          f"{spread:>8.3f} {bounds[name]:>6.2f}{'  OVER' if over else ''}")

if args.o:
    doc = {"runs": args.n, "seed": args.s, "vary_seed": args.v,
           "run_seconds": bench["run_seconds"],
           "host": {w: json.loads(h) for w, h in hosts.items()},
           "readings": {f"{n}/{w}": v for (n, w), v in readings.items()}}
    json.dump(doc, open(args.o, "w"), indent=1)
    print(f"\nreadings written to {args.o}")
sys.exit(1 if failed else 0)
EOF
