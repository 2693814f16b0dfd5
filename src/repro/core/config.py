"""Configuration of a Gage deployment.

Every :class:`GageConfig` knob is declared once, here: its default, its
one-line doc, its kind and its search range live on the field as
``dataclasses.field(metadata=...)``, and :mod:`repro.core.tunables`
derives the tuning registry and the docs' knob table from them.  A field
earns its place only if a paper experiment, a benchmark suite or a tuner
search space sets it; anything else is a constant beside its one reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.core.grps import GENERIC_REQUEST, ResourceVector

#: Spare-resource allocation policies (§4.1 / ablation A1).
SPARE_BY_RESERVATION = "reservation"
SPARE_BY_INPUT_LOAD = "input_load"
SPARE_NONE = "none"
SPARE_POLICIES = (SPARE_BY_RESERVATION, SPARE_BY_INPUT_LOAD, SPARE_NONE)

#: Usage-prediction policies (ablation A2).
ESTIMATE_EWMA = "ewma"
ESTIMATE_LAST = "last"
ESTIMATE_STATIC = "static"
ESTIMATOR_POLICIES = (ESTIMATE_EWMA, ESTIMATE_LAST, ESTIMATE_STATIC)

#: Node-selection policies (ablation A3; ``locality`` is §3.6's
#: content-aware dispatching).
NODES_LEAST_LOAD = "least_load"
NODES_ROUND_ROBIN = "round_robin"
NODES_RANDOM = "random"
NODES_LOCALITY = "locality"
NODE_POLICIES = (NODES_LEAST_LOAD, NODES_ROUND_ROBIN, NODES_RANDOM, NODES_LOCALITY)

#: Hedging policies (tail-latency extension; not part of the paper).
HEDGE_OFF = "off"
HEDGE_FIXED = "fixed"
HEDGE_P95 = "p95"
HEDGE_POLICIES = (HEDGE_OFF, HEDGE_FIXED, HEDGE_P95)

#: Tunable kinds carried in a knob's field metadata.
FLOAT = "float"
INT = "int"
CHOICE = "choice"


def _knob(
    default: Any,
    kind: str,
    doc: str,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    log: bool = False,
    choices: Tuple[str, ...] = (),
    optional: bool = False,
) -> Any:
    """A config field carrying its tuning declaration as metadata."""
    return field(
        default=default,
        metadata={
            "kind": kind,
            "doc": doc,
            "lo": lo,
            "hi": hi,
            "log": log,
            "choices": choices,
            "optional": optional,
        },
    )


@dataclass
class GageConfig:
    """The QoS knobs of the Gage layer, with the paper's defaults."""

    scheduling_cycle_s: float = _knob(
        0.010, FLOAT, "Request scheduler polling period (§3.4).",
        lo=0.002, hi=0.05, log=True,
    )
    accounting_cycle_s: float = _knob(
        0.100, FLOAT,
        "RPN→RDN usage feedback period (§3.5); Figure 3's x-axis family.",
        lo=0.02, hi=2.0, log=True,
    )
    #: Defines the GRPS unit every other number is measured in, so it is
    #: deliberately not tunable.
    generic_request: ResourceVector = field(default_factory=lambda: GENERIC_REQUEST)
    credit_cap_cycles: float = _knob(
        4.0, FLOAT, "Cap on a queue's positive balance, in cycles of its refill.",
        lo=1.0, hi=16.0,
    )
    #: The cluster-saturation throttle.  The window must cover at least
    #: one feedback round-trip or dispatch stalls between accounting
    #: messages, hence the derived default.
    dispatch_window_s: Optional[float] = _knob(
        None, FLOAT,
        "Predicted outstanding work allowed per RPN; `None` derives "
        "max(0.25, 2.5 × accounting cycle).",
        lo=0.05, hi=2.0, optional=True,
    )
    spare_policy: str = _knob(
        SPARE_BY_RESERVATION, CHOICE, "Spare-capacity split (§4.1 / ablation A1).",
        choices=SPARE_POLICIES,
    )
    estimator_policy: str = _knob(
        ESTIMATE_EWMA, CHOICE, "Per-request usage prediction (ablation A2).",
        choices=ESTIMATOR_POLICIES,
    )
    node_policy: str = _knob(
        NODES_LEAST_LOAD, CHOICE, "RPN selection (ablation A3; `locality` is §3.6).",
        choices=NODE_POLICIES,
    )
    estimator_alpha: float = _knob(
        0.25, FLOAT, "EWMA weight of the newest usage sample.", lo=0.05, hi=1.0
    )
    #: The failure detector's ``K``: an RPN that has reported before and
    #: then stays silent longer is declared dead, its outstanding
    #: requests re-enqueued and its capacity removed from the spare pool.
    heartbeat_miss_limit: Optional[int] = _knob(
        3, INT,
        "Accounting cycles of silence before an RPN is declared dead; "
        "`None` disables detection.",
        lo=1, hi=10, optional=True,
    )
    #: ``fixed`` clones a still-unfinished request to a second node after
    #: ``hedge_delay_s``; ``p95`` adapts the delay to the observed p95
    #: completion latency, falling back to ``hedge_delay_s`` until enough
    #: samples accumulate.
    hedge_policy: str = _knob(
        HEDGE_OFF, CHOICE,
        "Tail-latency request cloning (extension; off preserves paper fidelity).",
        choices=HEDGE_POLICIES,
    )
    hedge_delay_s: float = _knob(
        0.050, FLOAT, "Fixed hedge delay, and the p95 policy's cold-start fallback.",
        lo=0.005, hi=0.5, log=True,
    )
    hedge_max_clones: int = _knob(
        1, INT, "Upper bound on extra copies per request.", lo=1, hi=4
    )

    def __post_init__(self) -> None:
        if self.scheduling_cycle_s <= 0:
            raise ValueError("scheduling cycle must be positive")
        if self.accounting_cycle_s <= 0:
            raise ValueError("accounting cycle must be positive")
        if self.credit_cap_cycles < 1:
            raise ValueError("credit cap must be at least one cycle")
        if self.dispatch_window_s is None:
            self.dispatch_window_s = max(0.25, 2.5 * self.accounting_cycle_s)
        if self.dispatch_window_s <= 0:
            raise ValueError("dispatch window must be positive")
        if self.spare_policy not in SPARE_POLICIES:
            raise ValueError("unknown spare policy: {!r}".format(self.spare_policy))
        if self.estimator_policy not in ESTIMATOR_POLICIES:
            raise ValueError("unknown estimator policy: {!r}".format(self.estimator_policy))
        if self.node_policy not in NODE_POLICIES:
            raise ValueError("unknown node policy: {!r}".format(self.node_policy))
        if not 0 < self.estimator_alpha <= 1:
            raise ValueError("estimator alpha must lie in (0, 1]")
        if self.heartbeat_miss_limit is not None and self.heartbeat_miss_limit < 1:
            raise ValueError("heartbeat miss limit must be at least 1 (or None)")
        if self.hedge_policy not in HEDGE_POLICIES:
            raise ValueError("unknown hedge policy: {!r}".format(self.hedge_policy))
        if self.hedge_delay_s <= 0:
            raise ValueError("hedge delay must be positive")
        if self.hedge_max_clones < 1:
            raise ValueError("hedge max clones must be at least 1")


@dataclass(frozen=True)
class ProxyConfig:
    """How the real-socket front end handles failing backends.

    Only :class:`~repro.proxy.frontend.GageProxy` reads these.

    Attributes
    ----------
    connect_timeout_s, response_timeout_s:
        Bounds on backend connect and response-head wait, so a dead or
        hung backend can never wedge a client forever.
    retry_backoff_s:
        Base delay before retrying a failed dispatch on an alternate
        healthy backend (doubled per attempt).
    failure_threshold:
        Consecutive backend failures after which the proxy ejects the
        backend from rotation and starts probing it.
    probe_interval_s:
        How often an ejected backend is probed for re-admission.
    retry_budget:
        Token-bucket capacity bounding retries: each retry spends a
        token, the bucket refills at ``retry_budget_refill_per_s``, and an
        empty bucket suppresses the retry (counted by
        ``repro.proxy.retry_budget_exhausted``) so retries plus hedges
        cannot storm a degraded backend.  ``None`` leaves retries
        unbudgeted.
    retry_budget_refill_per_s:
        Retry tokens restored per second, up to the budget cap.
    request_deadline_s:
        Per-request deadline measured from admission: a request still
        queued when it expires is answered 504 without dialing a backend,
        and backend waits never extend past the remaining deadline.
        ``None`` disables deadlines.
    """

    connect_timeout_s: float = 1.0
    response_timeout_s: float = 5.0
    retry_backoff_s: float = 0.05
    failure_threshold: int = 3
    probe_interval_s: float = 0.5
    retry_budget: Optional[int] = None
    retry_budget_refill_per_s: float = 1.0
    request_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.connect_timeout_s <= 0 or self.response_timeout_s <= 0:
            raise ValueError("proxy timeouts must be positive")
        if self.retry_backoff_s < 0:
            raise ValueError("retry backoff must be non-negative")
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if self.probe_interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry budget must be non-negative (or None)")
        if self.retry_budget_refill_per_s < 0:
            raise ValueError("retry budget refill rate must be non-negative")
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ValueError("request deadline must be positive (or None)")
