"""Run-to-run steadiness of the benchmark, as its acceptance measures it.

``python3 bench/spread.py [--seeds 10] [--workload NAME ...]`` runs every
workload once per seed through the driver interface (``run.py
--workload ... --trace 0``), and prints for each end-to-end metric the
median of the per-run values and their spread — the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median — beside the metric's bound in ``BENCHMARK.json``.
A spread above a third of the bound is marked ``wide``; above the bound,
``OVER`` (and the exit code is 1).  ``setup_s`` is shown but never
marked: its spread is not part of the acceptance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from common import BENCH_DIR, load_contract, relative_spread


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    over = False
    for workload in workloads:
        samples: Dict[str, List[float]] = {name: [] for name in bounds}
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [
                    sys.executable, os.path.join(BENCH_DIR, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(contract["run_seconds"]), "--trace", "0",
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            if done.returncode != 0:
                print("{} seed {}: exit code {}".format(workload, seed, done.returncode))
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
        per_run = (time.perf_counter() - started) / args.seeds
        print("{}  ({} seeds, {:.1f} s per run)".format(workload, args.seeds, per_run))
        for name, values in samples.items():
            spread = relative_spread(values) or 0.0
            mark = ""
            if name != "setup_s":
                if spread > bounds[name]:
                    mark, over = "OVER", True
                elif spread > bounds[name] / 3:
                    mark = "wide"
            print(
                "   {:<28} median {:>12.6g}  spread {:>7.2%}  bound {:>5.0%}  {}".format(
                    name, statistics.median(values), spread, bounds[name], mark
                )
            )
        sys.stdout.flush()
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
