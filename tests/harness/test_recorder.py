"""Tests for the time-series recorder."""

import pytest

from repro.harness.recorder import Recorder
from repro.sim import Environment


def test_recorder_samples_on_period():
    env = Environment()
    recorder = Recorder(env, period_s=0.5)
    counter = {"v": 0.0}
    recorder.add_gauge("v", lambda: counter["v"])

    def bump(env):
        while True:
            yield env.timeout(0.5)
            counter["v"] += 1

    env.process(bump(env))
    env.run(until=2.6)
    samples = recorder.series("v")
    assert len(samples) == 5
    times = [t for t, _v in samples]
    assert times == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])


def test_recorder_statistics():
    env = Environment()
    recorder = Recorder(env, period_s=1.0)
    values = iter([10.0, 20.0, 30.0, 40.0])
    recorder.add_gauge("v", lambda: next(values))
    env.run(until=4.5)
    samples = recorder.series("v")
    assert samples[-1] == (pytest.approx(4.0), 40.0)
    values = [v for _t, v in samples]
    assert sum(values) / len(values) == pytest.approx(25.0)
    late = [v for t, v in samples if t >= 2.5]
    assert sum(late) / len(late) == pytest.approx(35.0)
    assert max(values) == 40.0


def test_recorder_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Recorder(env, period_s=0)
    recorder = Recorder(env, period_s=1.0)
    recorder.add_gauge("x", lambda: 1.0)
    with pytest.raises(RuntimeError):
        recorder.add_gauge("x", lambda: 2.0)
    assert recorder.series("x") == []  # no samples yet


def test_recorder_watches_cluster_queues():
    """Recorder + GageCluster: queue depth of an overloaded subscriber."""
    from repro.core import GageCluster, Subscriber
    from repro.workload import SyntheticWorkload

    env = Environment()
    subs = [Subscriber("a", 50, queue_capacity=512)]
    workload = SyntheticWorkload(rates={"a": 150.0}, duration_s=4.0, file_bytes=2000)
    cluster = GageCluster(
        env, subs, {"a": workload.site_files("a")}, num_rpns=1
    )
    recorder = Recorder(env, period_s=0.25)
    recorder.add_gauge("qlen", lambda: len(cluster.rdn.queues.get("a")))
    cluster.prewarm_caches()
    cluster.load_trace(workload.generate())
    cluster.run(4.0)
    # The queue grows while input (150/s) exceeds service (~100/s max).
    depths = [v for _t, v in recorder.series("qlen")]
    assert max(depths) > depths[0]
    assert max(depths) > 20
