"""Experiment harness: one runner per table/figure of the paper.

See DESIGN.md §3 for the experiment index.  Each runner assembles the
cluster, drives the workload, and returns structured results; the
``benchmarks/`` directory wraps these in pytest-benchmark targets that
print the paper's rows next to the measured ones.
"""

from repro.harness.charts import line_chart
from repro.harness.golden import (
    accounting_digest,
    accounting_lines,
    golden_fig3_cluster,
    golden_fig3_digest,
    golden_packet_cluster,
)
from repro.harness.experiment import (
    DeviationCurve,
    ScalabilityPoint,
    run_deviation_experiment,
    run_isolation,
    run_scalability,
    run_spare_allocation,
)
from repro.harness.parallel import (
    ParallelSweep,
    SweepPoint,
    SweepPointError,
    derive_seed,
)
from repro.harness.rdn_cost import RDNCostModel
from repro.harness.recorder import Recorder
from repro.harness.tables import format_table

__all__ = [
    "DeviationCurve",
    "ParallelSweep",
    "RDNCostModel",
    "Recorder",
    "ScalabilityPoint",
    "SweepPoint",
    "SweepPointError",
    "accounting_digest",
    "accounting_lines",
    "derive_seed",
    "format_table",
    "golden_fig3_cluster",
    "golden_fig3_digest",
    "golden_packet_cluster",
    "line_chart",
    "run_deviation_experiment",
    "run_isolation",
    "run_scalability",
    "run_spare_allocation",
]
