"""Compare two reports of ``run.py``: one row per workload and metric.

``python3 bench/compare.py A.json B.json`` — A is the base (the parent
commit, or the first of two runs of one commit), B the candidate.  Each
end-to-end metric of each workload is judged against its own bound in
``BENCHMARK.json``:

- ``unresolved`` — within either report the repeats pin the metric down
  no better than the bound (``common.resolution``: the spread of the
  repeats for a median metric, the gap from the best repeat to the
  runner-up for a best-repeat metric), so the two values cannot be told
  apart at that resolution;
- ``regressed`` — B's value is worse than A's by more than the bound;
- ``ok`` — otherwise.

Every ratio is printed with its base.  The exit code is 1 on any
``regressed`` row or when a workload's ``failed_ratio`` rose.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from common import load_contract, resolution


def _load(path: str) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, candidate = _load(argv[0]), _load(argv[1])
    contract = load_contract()
    if base["environment"] != candidate["environment"]:
        print("note: the environments differ")
        for key in sorted(set(base["environment"]) | set(candidate["environment"])):
            a, b = base["environment"].get(key), candidate["environment"].get(key)
            if a != b:
                print("   {}: {!r} -> {!r}".format(key, a, b))
    bad = False
    for workload in contract["workloads"]:
        name = workload["name"]
        a, b = base["workloads"].get(name), candidate["workloads"].get(name)
        if not a or not b or "end_to_end" not in a or "end_to_end" not in b:
            print("{}: missing from a report".format(name))
            bad = True
            continue
        print(name)
        if a.get("digest") or b.get("digest"):
            same = a.get("digest") == b.get("digest")
            print("   digest {}".format("identical" if same else "DIFFERS (simulated results changed)"))
        if b["failed_ratio"] > a["failed_ratio"]:
            print("   failed_ratio rose: {} -> {}".format(a["failed_ratio"], b["failed_ratio"]))
            bad = True
        for metric in contract["end_to_end"]:
            before, after = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            ratio = after["value"] / before["value"]
            worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max(
                resolution(metric["name"], before["samples"], metric["better"]),
                resolution(metric["name"], after["samples"], metric["better"]),
            )
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
                bad = True
            else:
                verdict = "ok"
            print(
                "   {:<26} {:<10} B/A {:.4f} of base {:.6g} {}  "
                "(resolution {:.1%}, bound {:.0%}, {} is better)".format(
                    metric["name"], verdict, ratio, before["value"], metric["unit"],
                    spread, metric["bound"], metric["better"],
                )
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
