"""The Gage core: the paper's contribution.

Request classification (§3.3), per-subscriber queues and the credit-based
weighted-round-robin request scheduler with spare-resource allocation
(§3.4), least-load node scheduling (§3.4), resource usage accounting and
feedback (§3.5), the primary/secondary RDN (§3.2), and the RPN local
service manager performing distributed TCP splicing (§3.2).

All scheduling/accounting logic is transport-agnostic: the same code runs
over the packet-level simulator (mechanism fidelity) and the flow-level
transport (experiment throughput).  See :mod:`repro.core.simulation` for
the one-call cluster assembly used by the benchmarks and examples.
"""

from repro.core.accounting import RDNAccounting, SubscriberAccount
from repro.core.classifier import Classification, PacketClass, RequestClassifier
from repro.core.config import GageConfig
from repro.core.conntable import ConnectionTable
from repro.core.credit import CreditLedger
from repro.core.estimator import UsageEstimator
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.control import DelegateHandshake, DispatchOrder, HandshakeComplete
from repro.core.grps import GENERIC_REQUEST, ResourceVector, grps
from repro.core.hedge import HedgeHooks, HedgeManager, ServiceHandle
from repro.core.metrics import (
    DeviationReport,
    FailureEvent,
    FailureLog,
    ServiceReport,
    deviation_from_reservation,
)
from repro.core.node_scheduler import NodeScheduler, RPNStatus
from repro.core.placement import (
    Embedding,
    NodeView,
    PlacementEngine,
    PlacementStats,
)
from repro.core.queues import RequestQueue, SubscriberQueues
from repro.core.rdn import PendingRequest, PrimaryRDN, RDNOpCounters
from repro.core.rpn import LocalServiceManager, RPNAccountingAgent
from repro.core.scheduler import RequestScheduler, ScheduleDecision
from repro.core.secondary import SecondaryRDN
from repro.core.shard import CreditGrant, GlobalAllocator, ShardCreditReport
from repro.core.simulation import GageCluster, default_rpn_capacity
from repro.core.subscriber import Subscriber, SubscriberTable

__all__ = [
    "AccountingMessage",
    "Classification",
    "ConnectionTable",
    "CreditGrant",
    "CreditLedger",
    "DelegateHandshake",
    "DeviationReport",
    "DispatchOrder",
    "Embedding",
    "FailureEvent",
    "FailureLog",
    "GageCluster",
    "GageConfig",
    "GENERIC_REQUEST",
    "GlobalAllocator",
    "HandshakeComplete",
    "HedgeHooks",
    "HedgeManager",
    "LocalServiceManager",
    "NodeScheduler",
    "NodeView",
    "PacketClass",
    "PendingRequest",
    "PlacementEngine",
    "PlacementStats",
    "PrimaryRDN",
    "RDNAccounting",
    "RDNOpCounters",
    "RequestClassifier",
    "RequestQueue",
    "RequestScheduler",
    "RPNAccountingAgent",
    "RPNStatus",
    "RPNUsageReport",
    "ResourceVector",
    "ScheduleDecision",
    "SecondaryRDN",
    "ServiceHandle",
    "ServiceReport",
    "ShardCreditReport",
    "Subscriber",
    "SubscriberAccount",
    "SubscriberQueues",
    "SubscriberTable",
    "UsageEstimator",
    "default_rpn_capacity",
    "deviation_from_reservation",
    "grps",
]
