"""The repo benchmark: six workloads, end-to-end metrics, a per-layer budget.

Two ways to run it:

``python3 bench/run.py --seed 12 --out out/bench.json``
    every workload with tracing off, then one traced pass per workload;
    prints every metric by name with its unit and writes one report.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload; the last line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding every
    end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
    per-layer metric (``--trace 1``).

A run is R fresh repeats (set-up, then timed regions).  Throughput, CPU
per request, memory and goodput are reported from the best repeat;
set-up time and latency quantiles as the median over repeats
(``common.summarize`` says why); each is printed beside the median,
quartiles and extremes over repeats.  The exit code is non-zero
when a correctness check fails.  ``--seed`` reaches only the workload
generators; the system under test never sees it or the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

_import_started = time.perf_counter()
from common import environment_stamp, load_contract, summarize  # noqa: E402

try:
    import proxybench
    import simbench
    from layers import LOOP_IDLE, OTHER, family_total
except ImportError as exc:  # no src/repro beside bench/: nothing to measure
    sys.stderr.write("bench: cannot import the system under test: {}\n".format(exc))
    sys.exit(2)
#: Loading the benchmark and the system under test; part of every set-up.
IMPORT_S = time.perf_counter() - _import_started

#: Packages whose self time is reported as a layer of its own.
FAMILIES = ("sim", "net", "cluster", "core", "resources", "workload", "telemetry", "proxy", "loop")
#: Single files reported inside their package.
FILES = ("cluster.procs", "core.scheduler", "core.accounting", "core.rdn")
PROXY_FILES = (
    "proxy.frontend",
    "proxy.client_session",
    "proxy.http",
    "proxy.backend_pool",
    "proxy.splice",
)
#: Fresh rigs per proxy run, and timed windows on each; the timed
#: seconds are split evenly between all windows.
PROXY_RIGS = 3
PROXY_WINDOWS = 2
SIM_MIN_REPEATS = 2
SIM_MAX_REPEATS = 8
#: Figure 3's bound on deviation from reservation at the 4 s interval, %.
FIG3_BOUND_PCT = 8.0
#: ``--quick`` shrinks every workload about tenfold (for the self-test).
QUICK_SCALE = 0.1
#: Reported for a counter the build no longer has (``null`` in reports).
UNAVAILABLE = -1.0


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


# -- one workload ----------------------------------------------------------------


def _run_sim(name: str, seed: int, seconds: float, trace: bool, scale: float) -> List[Dict[str, object]]:
    """Fresh repeats until the timed budget is used (two when tracing)."""
    repeats: List[Dict[str, object]] = []
    spent = 0.0
    while True:
        traced = trace and len(repeats) == 1
        repeats.append(simbench.run_repeat(name, seed, scale, profile=traced))
        spent += repeats[-1]["extra"]["run_s"]
        count = len(repeats)
        if trace:
            if count == 2:
                break
        elif count >= SIM_MAX_REPEATS or (
            count >= SIM_MIN_REPEATS and spent + 0.5 * spent / count >= seconds
        ):
            break
    if len({repeat["digest"] for repeat in repeats}) != 1:
        raise CheckFailed("{}: accounting digest differs between repeats of one seed".format(name))
    if trace:
        # Cheap, so only the traced pass pays for it: another seed must
        # give another trace, hence another digest.
        small = min(scale, QUICK_SCALE)
        one = simbench.run_repeat(name, seed, small, profile=False)["digest"]
        other = simbench.run_repeat(name, seed + 1, small, profile=False)["digest"]
        if one == other:
            raise CheckFailed("{}: accounting digest ignores the seed".format(name))
    for repeat in repeats:
        deviation = repeat["extra"]["guarantee_dev_pct"]
        # The bound is a steady-state one; a --quick run is mostly start-up.
        if scale >= 1.0 and deviation is not None and deviation >= FIG3_BOUND_PCT:
            raise CheckFailed(
                "{}: deviation from reservation {:.2f} % breaks the {} % bound".format(
                    name, deviation, FIG3_BOUND_PCT
                )
            )
        repeat["end_to_end"]["setup_s"] += IMPORT_S
        # ru_maxrss is the process's high-water mark, and after the first
        # repeat it includes the benchmark's own digest computation; only
        # the first reading is the simulator's peak.
        repeat["end_to_end"]["peak_rss_mb"] = repeats[0]["end_to_end"]["peak_rss_mb"]
    return repeats


def _run_proxy(name: str, seed: int, seconds: float, trace: bool) -> List[Dict[str, object]]:
    window_s = seconds / (PROXY_RIGS * PROXY_WINDOWS)
    if trace:
        return proxybench.run_repeat(name, seed, window_s, windows=1, profile=True)
    repeats = []
    for index in range(PROXY_RIGS):
        # Another request stream and arrival schedule per rig.
        repeats.extend(
            proxybench.run_repeat(
                name, seed * 101 + 10 * index, window_s, windows=PROXY_WINDOWS, profile=False
            )
        )
    for repeat in repeats:
        repeat["end_to_end"]["setup_s"] += IMPORT_S
    return repeats


def _layer_metrics(untraced: Dict[str, object], traced: Dict[str, object]) -> Dict[str, Optional[float]]:
    """Every per-layer value one traced pass yields, by contract name."""
    buckets: Dict[str, float] = traced["layers"]
    wall = traced["traced_wall_s"]
    completed = traced["completed"]
    # Counts and generator timings come from the untraced pass (the
    # simulated ones are identical in both); only self times need tracing.
    values: Dict[str, Optional[float]] = dict(untraced["counts"])
    values["trace.overhead_ratio"] = (
        traced["end_to_end"]["cpu_ms_per_req"] / untraced["end_to_end"]["cpu_ms_per_req"]
    )
    named = 0.0
    for family in FAMILIES:
        self_s = family_total(buckets, family)
        named += self_s
        values[family + ".self_s"] = self_s
        values[family + ".self_share"] = self_s / wall
    idle = buckets.get(LOOP_IDLE, 0.0)
    values["loop.idle_s"] = idle
    values["loop.idle_share"] = idle / wall
    # Whatever is in no named layer — including layers that may appear
    # in src/ later — so the shares always sum to the profiler's total.
    other = sum(buckets.values()) - named - idle
    values[OTHER + ".self_s"] = other
    values[OTHER + ".self_share"] = other / wall
    for name in FILES + PROXY_FILES:
        values[name + ".self_s"] = buckets.get(name, 0.0)
    for name in PROXY_FILES:
        values[name + ".self_us_per_req"] = 1e6 * buckets.get(name, 0.0) / completed
    return values


def run_workload(
    contract: Dict[str, object], name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, object]:
    """Run one workload; returns its full report entry."""
    scale = QUICK_SCALE if quick else 1.0
    if name in simbench.BUILDERS:
        repeats = _run_sim(name, seed, seconds, trace, scale)
    else:
        repeats = _run_proxy(name, seed, seconds, trace)  # --seconds scales these
    attempted = sum(repeat["attempted"] for repeat in repeats)
    failed = sum(repeat["failed"] for repeat in repeats)
    entry: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "correct": failed == 0,
        "repeats": len(repeats),
        "digest": repeats[0].get("digest"),
        "extra": [repeat["extra"] for repeat in repeats],
    }
    if trace:
        untraced, traced = repeats
        values = _layer_metrics(untraced, traced)
        # A layer this workload never enters did no work: 0.  A value the
        # run should have produced but could not read: null.
        entry["per_layer"] = {
            metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
            for metric in contract["per_layer"]
        }
        entry["traced_wall_s"] = traced["traced_wall_s"]
        entry["layer_buckets"] = traced["layers"]
    else:
        entry["end_to_end"] = {
            metric["name"]: dict(
                summarize(
                    metric["name"],
                    [repeat["end_to_end"][metric["name"]] for repeat in repeats],
                    metric["better"],
                ),
                unit=metric["unit"],
            )
            for metric in contract["end_to_end"]
        }
    return entry


# -- output ------------------------------------------------------------------------


def _print_entry(entry: Dict[str, object]) -> None:
    print(
        "== {workload}  seed {seed}  {repeats} repeats  attempted {attempted}  "
        "failed {failed}  correct {correct}".format(**entry)
    )
    if entry.get("digest"):
        print("   digest {}".format(entry["digest"]))
    for name, summary in entry.get("end_to_end", {}).items():
        print(
            "   {:<26} {:>12.6g} {:<6} (median {:.6g}  min {:.6g}  q1 {:.6g}  q3 {:.6g}  "
            "max {:.6g}  n {})".format(
                name, summary["value"], summary["unit"], summary["median"], summary["min"],
                summary["q1"], summary["q3"], summary["max"], summary["n"],
            )
        )
    for name, cell in entry.get("per_layer", {}).items():
        value = cell["value"]
        if value == 0:
            continue  # a layer this workload never enters
        shown = "null" if value is None else "{:.6g}".format(value)
        print("   {:<36} {:>14} {}".format(name, shown, cell["unit"]))
    extras = entry["extra"][-1]
    print("   extra: " + "  ".join(
        "{} {}".format(key, "{:.6g}".format(value) if isinstance(value, float) else value)
        for key, value in extras.items() if value is not None
    ))


def _contract_line(entry: Dict[str, object]) -> str:
    """The driver's result: the last line of standard output."""
    if entry["trace"]:
        metrics = {
            name: {"value": UNAVAILABLE if cell["value"] is None else cell["value"], "unit": cell["unit"]}
            for name, cell in entry["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": summary["value"], "unit": summary["unit"]}
            for name, summary in entry["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def _write(path: str, document: Dict[str, object]) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


# -- all workloads -------------------------------------------------------------------


def run_all(contract: Dict[str, object], args: argparse.Namespace) -> int:
    """Each workload untraced, then traced, each in a process of its own.

    A fresh process per run keeps one workload's peak memory and caches
    out of the next one's numbers.
    """
    report: Dict[str, object] = {
        "environment": environment_stamp(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    status = 0
    part = args.out + ".part"
    try:
        for workload in contract["workloads"]:
            merged: Dict[str, object] = {}
            for trace in (0, 1):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload["name"], "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace), "--out", part,
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                # All but the last line: that one is the driver's JSON.
                sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
                sys.stdout.flush()
                if done.returncode != 0:
                    status = 1
                    continue
                with open(part) as fh:
                    entry = json.load(fh)
                del entry["environment"]  # the report carries one stamp
                for key in ("attempted", "failed", "failed_ratio", "correct", "repeats", "extra"):
                    entry[("traced_" if trace else "") + key] = entry.pop(key)
                merged.update(entry)
            report["workloads"][workload["name"]] = merged
    finally:
        if os.path.exists(part):
            os.unlink(part)
    _write(args.out, report)
    print("wrote {}".format(args.out))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report here (default out/bench.json without --workload)")
    parser.add_argument("--quick", action="store_true", help="about a tenth of the work")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"]) * (QUICK_SCALE if args.quick else 1.0)
    if args.workload is None:
        args.out = args.out or os.path.join("out", "bench.json")
        return run_all(contract, args)
    known = [workload["name"] for workload in contract["workloads"]]
    if args.workload not in known:
        parser.error("unknown workload {!r}; choose from {}".format(args.workload, known))
    try:
        entry = run_workload(
            contract, args.workload, args.seed, args.seconds, bool(args.trace), args.quick
        )
    except CheckFailed as exc:
        sys.stderr.write("bench: check failed: {}\n".format(exc))
        return 1
    entry["environment"] = environment_stamp()
    _print_entry(entry)
    if args.out:
        _write(args.out, entry)
    print(_contract_line(entry))
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
