"""Self-test of the benchmark (``python -m pytest bench -q``; not tier-1).

One ``--quick`` pass of every workload (about a tenth of the work) checks
that what ``run.py`` emits and what ``BENCHMARK.json`` names are the same
set, that the layer shares account for the traced wall, and that results
carry an environment stamp.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from common import BENCH_DIR, ROOT, load_contract

RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return load_contract()


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--seed", "12", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout
    with open(out) as fh:
        return json.load(fh)


def test_contract_file_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_every_named_workload_and_metric_is_emitted_and_vice_versa(contract, report):
    assert set(report["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["traced_correct"], name
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        for kind in ("end_to_end", "per_layer"):
            wanted = {m["name"]: m["unit"] for m in contract[kind]}
            assert set(entry[kind]) == set(wanted), (name, kind)
            for metric, cell in entry[kind].items():
                assert cell["unit"] == wanted[metric], (name, metric)
        for metric, cell in entry["end_to_end"].items():
            assert cell["value"] > 0, (name, metric)  # never 0, by contract
            assert cell["n"] >= 2, (name, metric)


def test_layer_shares_account_for_the_traced_wall(report):
    for name, entry in report["workloads"].items():
        shares = [
            cell["value"]
            for metric, cell in entry["per_layer"].items()
            if metric.endswith("_share")
        ]
        assert abs(sum(shares) - 1.0) <= 0.05, (name, sum(shares))
        assert entry["per_layer"]["trace.overhead_ratio"]["value"] > 0


def test_workloads_stress_the_layers_they_were_chosen_for(report):
    def share(workload, layer):
        return report["workloads"][workload]["per_layer"][layer + ".self_share"]["value"]

    assert share("sim_flow_fig3", "net") < 0.01
    assert share("sim_flow_many_subs", "net") < 0.01
    assert share("sim_packet_splice", "net") > 0.2
    assert share("sim_flow_fig3", "proxy") == 0
    assert share("proxy_keepalive_small", "proxy") > 0
    assert share("proxy_keepalive_small", "sim") == 0


def test_simulated_results_are_stamped_with_a_digest(report):
    for name, entry in report["workloads"].items():
        assert bool(entry["digest"]) == name.startswith("sim_"), name


def test_result_carries_an_environment_stamp(report):
    stamp = report["environment"]
    assert {"python", "nproc", "compiled", "uvloop_importable", "git_sha"} <= set(stamp)
    assert stamp["python"] and stamp["nproc"] >= 1


def test_driver_line_has_exactly_the_contract_keys(contract):
    done = subprocess.run(
        [
            sys.executable, RUN, "--quick", "--workload", "sim_flow_many_subs",
            "--seed", "3", "--seconds", "1", "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    for cell in result["metrics"].values():
        assert set(cell) == {"value", "unit"} and isinstance(cell["value"], float)


def test_without_the_system_under_test_the_run_fails(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in os.listdir(BENCH_DIR):
        source = os.path.join(BENCH_DIR, name)
        if os.path.isfile(source):
            (bare / "bench" / name).write_bytes(open(source, "rb").read())
    (bare / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read()
    )
    done = subprocess.run(
        [
            sys.executable, str(bare / "bench" / "run.py"), "--workload", "sim_flow_fig3",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        cwd=str(bare),
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_a_counter_that_disappeared_is_null_not_a_crash():
    import common
    import run

    assert common.metric_sum({"metrics": {}}, "repro.core.wrr_cycles") is None
    assert common.histogram_p50({"metrics": {}}, "repro.core.report_lag_s") is None
    entry = {
        "trace": True, "correct": True, "attempted": 1, "failed": 0,
        "per_layer": {"core.wrr_cycles": {"value": None, "unit": "count"}},
    }
    line = json.loads(run._contract_line(entry))
    assert line["metrics"]["core.wrr_cycles"] == {"value": run.UNAVAILABLE, "unit": "count"}
