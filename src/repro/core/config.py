"""Configuration of a Gage deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.grps import GENERIC_REQUEST, ResourceVector

#: Spare-resource allocation policies (§4.1 / ablation A1).
SPARE_BY_RESERVATION = "reservation"
SPARE_BY_INPUT_LOAD = "input_load"
SPARE_NONE = "none"

#: Usage-prediction policies (ablation A2).
ESTIMATE_EWMA = "ewma"
ESTIMATE_LAST = "last"
ESTIMATE_STATIC = "static"

#: Node-selection policies (ablation A3; ``locality`` is §3.6's
#: content-aware dispatching).
NODES_LEAST_LOAD = "least_load"
NODES_ROUND_ROBIN = "round_robin"
NODES_RANDOM = "random"
NODES_LOCALITY = "locality"

#: Hedging policies (tail-latency extension; not part of the paper).
HEDGE_OFF = "off"
HEDGE_FIXED = "fixed"
HEDGE_P95 = "p95"

#: Placement / admission-control policies (online virtual-cluster
#: embedding — an extension beyond the paper, off by default).
PLACEMENT_OFF = "off"
PLACEMENT_UTILIZATION = "utilization"
PLACEMENT_PROFIT = "profit"


@dataclass
class GageConfig:
    """All tunables of the Gage layer, with the paper's defaults.

    Attributes
    ----------
    scheduling_cycle_s:
        The request scheduler's polling period — "set to be 10 msec for
        responsiveness" (§3.4).
    accounting_cycle_s:
        How often each RPN feeds resource usage back to the RDN (§3.5);
        the x-axis family of Figure 3.
    generic_request:
        The resource cost defining one generic request (§3.1).
    credit_cap_cycles:
        A queue's positive balance is capped at this many cycles of its
        refill, bounding the burst an idle subscriber can accumulate.
    dispatch_window_s:
        How many seconds of *predicted* work may be outstanding on one
        RPN before the node scheduler declares it full; this is the
        cluster-saturation throttle.  ``None`` (the default) derives it
        as ``max(0.25, 2.5 × accounting_cycle_s)`` — the window must
        cover at least one feedback round-trip or dispatch stalls between
        accounting messages.
    spare_policy, estimator_policy, node_policy:
        The design choices evaluated by ablations A1-A3.
    estimator_alpha:
        EWMA weight of the newest usage sample.
    heartbeat_miss_limit:
        The failure detector's ``K``: an RPN that has previously reported
        accounting messages and then stays silent for more than ``K``
        accounting cycles is declared dead — its outstanding requests are
        re-enqueued and its capacity leaves the spare pool.  ``None``
        disables detection.
    delegate_timeout_s:
        How long the primary RDN waits for a secondary's
        ``HandshakeComplete`` before emulating the handshake itself.
    secondary_failure_limit:
        Consecutive delegation timeouts after which a secondary RDN is
        removed from the delegation rotation until revived.
    proxy_connect_timeout_s, proxy_response_timeout_s:
        Real-socket front end: bounds on backend connect and
        response-head wait, so a dead or hung backend can never wedge a
        client forever.
    proxy_retry_backoff_s:
        Base delay before retrying a failed dispatch on an alternate
        healthy backend (doubled per attempt).
    proxy_failure_threshold:
        Consecutive backend failures after which the proxy ejects the
        backend from rotation and starts probing it.
    proxy_probe_interval_s:
        How often an ejected backend is probed for re-admission.
    proxy_pool_size:
        Idle keep-alive connections kept per backend for reuse across
        dispatches (0 disables pooling).
    proxy_pool_idle_s:
        How long a pooled backend connection may sit idle before being
        discarded.
    proxy_keepalive_idle_s:
        How long the front end waits for the next request on an idle
        keep-alive client connection before closing it.
    proxy_worker_miss_limit:
        Multi-worker front end: consecutive accounting cycles a worker
        process may miss reporting on the control channel before the
        supervisor declares it dead, reclaims its credit, and restarts
        it.
    hedge_policy:
        Tail-latency hedging (an extension beyond the paper, off by
        default so paper-fidelity runs are untouched): ``"off"`` never
        clones; ``"fixed"`` clones a still-unfinished request to a
        second node after ``hedge_delay_s``; ``"p95"`` adapts the delay
        to the observed p95 completion latency, falling back to
        ``hedge_delay_s`` until enough samples accumulate.
    hedge_delay_s:
        Fixed hedge delay, and the adaptive policy's fallback while its
        latency histogram is still empty.
    hedge_max_clones:
        Upper bound on extra copies per request (1 = classic hedged
        request: at most one clone).
    proxy_retry_budget:
        Token-bucket capacity bounding proxy retries: each retry spends
        a token, the bucket refills at ``proxy_retry_budget_refill_per_s``,
        and an empty bucket suppresses the retry (counted by
        ``repro.proxy.retry_budget_exhausted``) so retries plus hedges
        cannot storm a degraded backend.  ``None`` leaves retries
        unbudgeted.
    proxy_retry_budget_refill_per_s:
        Retry tokens restored per second, up to the budget cap.
    proxy_request_deadline_s:
        Per-request deadline measured from admission: a request that is
        still queued when it expires is answered 504 without dialing a
        backend, and backend waits never extend past the remaining
        deadline.  ``None`` disables deadlines.
    """

    scheduling_cycle_s: float = 0.010
    accounting_cycle_s: float = 0.100
    generic_request: ResourceVector = field(default_factory=lambda: GENERIC_REQUEST)
    credit_cap_cycles: float = 4.0
    dispatch_window_s: Optional[float] = None
    spare_policy: str = SPARE_BY_RESERVATION
    estimator_policy: str = ESTIMATE_EWMA
    node_policy: str = NODES_LEAST_LOAD
    estimator_alpha: float = 0.25
    #: How long after observing a connection's FIN/RST its state (the
    #: RDN's connection-table entry, the LSM's splice rule) lingers so
    #: retransmitted teardown packets still route; then it is reclaimed.
    conntable_linger_s: float = 2.0
    heartbeat_miss_limit: Optional[int] = 3
    delegate_timeout_s: float = 0.25
    secondary_failure_limit: int = 2
    proxy_connect_timeout_s: float = 1.0
    proxy_response_timeout_s: float = 5.0
    proxy_retry_backoff_s: float = 0.05
    proxy_failure_threshold: int = 3
    proxy_probe_interval_s: float = 0.5
    proxy_pool_size: int = 8
    proxy_pool_idle_s: float = 30.0
    proxy_keepalive_idle_s: float = 15.0
    proxy_worker_miss_limit: int = 3
    hedge_policy: str = HEDGE_OFF
    hedge_delay_s: float = 0.050
    hedge_max_clones: int = 1
    proxy_retry_budget: Optional[int] = None
    proxy_retry_budget_refill_per_s: float = 1.0
    proxy_request_deadline_s: Optional[float] = None
    #: Online placement with admission control (extension, §Placement in
    #: the docs): ``"off"`` admits everything and leaves dispatch
    #: unrestricted (the paper's model); ``"utilization"`` packs
    #: best-fit; ``"profit"`` spreads and rejects marginal placements on
    #: nearly-full nodes.  When on, a subscriber is embedded on one
    #: primary RPN plus ``placement_k_backup`` backup RPNs whose
    #: capacity is reserved ahead of failures.
    placement_policy: str = PLACEMENT_OFF
    placement_k_backup: int = 1

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
        if self.spare_policy not in (SPARE_BY_RESERVATION, SPARE_BY_INPUT_LOAD, SPARE_NONE):
            raise ValueError("unknown spare policy: {!r}".format(self.spare_policy))
        if self.estimator_policy not in (ESTIMATE_EWMA, ESTIMATE_LAST, ESTIMATE_STATIC):
            raise ValueError("unknown estimator policy: {!r}".format(self.estimator_policy))
        if self.node_policy not in (
            NODES_LEAST_LOAD,
            NODES_ROUND_ROBIN,
            NODES_RANDOM,
            NODES_LOCALITY,
        ):
            raise ValueError("unknown node policy: {!r}".format(self.node_policy))
        if not 0 < self.estimator_alpha <= 1:
            raise ValueError("estimator alpha must lie in (0, 1]")
        if self.conntable_linger_s < 0:
            raise ValueError("linger must be non-negative")
        if self.heartbeat_miss_limit is not None and self.heartbeat_miss_limit < 1:
            raise ValueError("heartbeat miss limit must be at least 1 (or None)")
        if self.delegate_timeout_s <= 0:
            raise ValueError("delegate timeout must be positive")
        if self.secondary_failure_limit < 1:
            raise ValueError("secondary failure limit must be at least 1")
        if self.proxy_connect_timeout_s <= 0 or self.proxy_response_timeout_s <= 0:
            raise ValueError("proxy timeouts must be positive")
        if self.proxy_retry_backoff_s < 0:
            raise ValueError("retry backoff must be non-negative")
        if self.proxy_failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if self.proxy_probe_interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if self.proxy_pool_size < 0:
            raise ValueError("pool size must be non-negative")
        if self.proxy_pool_idle_s <= 0:
            raise ValueError("pool idle timeout must be positive")
        if self.proxy_keepalive_idle_s <= 0:
            raise ValueError("keep-alive idle timeout must be positive")
        if self.proxy_worker_miss_limit < 1:
            raise ValueError("worker miss limit must be at least 1")
        if self.hedge_policy not in (HEDGE_OFF, HEDGE_FIXED, HEDGE_P95):
            raise ValueError("unknown hedge policy: {!r}".format(self.hedge_policy))
        if self.hedge_delay_s <= 0:
            raise ValueError("hedge delay must be positive")
        if self.hedge_max_clones < 1:
            raise ValueError("hedge max clones must be at least 1")
        if self.proxy_retry_budget is not None and self.proxy_retry_budget < 0:
            raise ValueError("retry budget must be non-negative (or None)")
        if self.proxy_retry_budget_refill_per_s < 0:
            raise ValueError("retry budget refill rate must be non-negative")
        if self.proxy_request_deadline_s is not None and self.proxy_request_deadline_s <= 0:
            raise ValueError("request deadline must be positive (or None)")
        if self.placement_policy not in (
            PLACEMENT_OFF,
            PLACEMENT_UTILIZATION,
            PLACEMENT_PROFIT,
        ):
            raise ValueError(
                "unknown placement policy: {!r}".format(self.placement_policy)
            )
        if self.placement_k_backup < 0:
            raise ValueError("placement k_backup must be non-negative")
