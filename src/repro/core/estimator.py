"""Per-queue prediction of per-request resource usage.

"The current Gage request scheduler assumes that the resource consumption
of each dispatched request is equal to a weighted average resource
consumption of the past requests that belong to the same queue" (§3.4).
The estimator starts at the generic-request cost until the first real
sample arrives.
"""

from __future__ import annotations

from repro.core.config import (
    ESTIMATE_EWMA,
    ESTIMATE_LAST,
    ESTIMATE_STATIC,
    ESTIMATOR_POLICIES,
    GageConfig,
)
from repro.core.grps import GENERIC_REQUEST, ResourceVector

#: EWMA weight of the newest usage sample.
EWMA_ALPHA = 0.25


class UsageEstimator:
    """Predicts the resource usage of the next request in one queue.

    Parameters
    ----------
    policy:
        ``"ewma"`` — weighted average of past samples (the paper's
        scheme); ``"last"`` — most recent sample only; ``"static"`` —
        always the generic-request cost (ablation A2).
    alpha:
        EWMA weight of the newest sample.
    initial:
        Prediction before any sample has been observed.
    """

    def __init__(
        self,
        policy: str = GageConfig.estimator_policy,
        alpha: float = EWMA_ALPHA,
        initial: ResourceVector = GENERIC_REQUEST,
    ) -> None:
        if policy not in ESTIMATOR_POLICIES:
            raise ValueError("unknown estimator policy: {!r}".format(policy))
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self.policy = policy
        self.alpha = alpha
        self.initial = initial
        self._estimate = initial
        # Decayed sums for the EWMA policy.  Predicting from the *ratio of
        # decayed sums* (total usage / total completions) rather than from
        # an average of per-cycle ratios avoids the upward bias that
        # per-cycle ratios suffer when cycles complete few requests but
        # carry in-progress work in their usage.
        self._usage_acc = ResourceVector.ZERO
        self._count_acc = 0.0
        #: Memoized EWMA prediction; the accumulators change only in
        #: :meth:`observe_cycle`, but :meth:`predict` runs on every
        #: dispatch attempt of every scheduling cycle.
        self._predicted = initial
        self.samples = 0

    def __repr__(self) -> str:
        return "<UsageEstimator {} n={} cpu={:.4f}s>".format(
            self.policy, self.samples, self.predict().cpu_s
        )

    def predict(self) -> ResourceVector:
        """The predicted usage of the next request."""
        if self.policy == ESTIMATE_EWMA:
            return self._predicted
        return self._estimate

    def observe(self, usage: ResourceVector) -> None:
        """Fold one completed request's measured usage into the estimate."""
        self.observe_cycle(usage, completed=1)

    def observe_cycle(self, usage: ResourceVector, completed: int) -> None:
        """Fold one accounting cycle's (usage, completions) report in.

        Cycles with ``completed == 0`` still contribute their usage: the
        work belongs to requests that will be counted in later cycles, so
        folding both keeps the long-run ratio unbiased.
        """
        if completed < 0:
            raise ValueError("negative completion count")
        self.samples += 1
        if self.policy == ESTIMATE_STATIC:
            return
        if self.policy == ESTIMATE_LAST:
            if completed > 0:
                self._estimate = usage.scaled(1.0 / completed)
            return
        self._usage_acc = self._usage_acc.scaled(1 - self.alpha) + usage.scaled(self.alpha)
        self._count_acc = self._count_acc * (1 - self.alpha) + completed * self.alpha
        if self._count_acc <= 1e-9:
            self._predicted = self.initial
        else:
            self._predicted = self._usage_acc.scaled(1.0 / self._count_acc)

    def reset(self) -> None:
        """Forget all samples."""
        self._estimate = self.initial
        self._usage_acc = ResourceVector.ZERO
        self._count_acc = 0.0
        self._predicted = self.initial
        self.samples = 0
