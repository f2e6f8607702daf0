"""Streaming wrapper: feed arrivals one at a time, query the current fit.

This is the shape an aggregator actually uses (Pseudocode 1): every
PROCESSHANDLER invocation appends one arrival time and may re-estimate.
:meth:`StreamingEstimator.observe` only appends the arrival and checks its
order. :meth:`StreamingEstimator.estimate` hands the arrivals to the
estimator's :class:`~repro.estimation.base.Accumulator`, which folds the
ones added since the last call — O(1) amortized per arrival, lazily
folded, for Cedar's order-statistic estimator — and caches the result
until new data arrives. Callers that never estimate pay nothing for the
fit.
"""

from __future__ import annotations

from typing import Optional

from ..distributions import Distribution
from ..errors import EstimationError
from ..obs.profile import PROFILER
from .base import Accumulator, Estimator, ParameterEstimate

__all__ = ["StreamingEstimator"]


class StreamingEstimator:
    """Incremental facade over any batch :class:`Estimator`."""

    def __init__(self, estimator: Estimator, k: int):
        if k < 1:
            raise EstimationError(f"fan-out k must be >= 1, got {k}")
        self._estimator = estimator
        self._k = int(k)
        self._arrivals: list[float] = []
        # made on the first estimate, so a stream never asked pays nothing
        self._fit: Optional[Accumulator] = None
        self._cached: Optional[ParameterEstimate] = None
        self._dirty = True

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Fan-out (total number of expected outputs)."""
        return self._k

    @property
    def n_observed(self) -> int:
        """Number of arrivals observed so far."""
        return len(self._arrivals)

    @property
    def complete(self) -> bool:
        """True once all ``k`` outputs have arrived."""
        return len(self._arrivals) >= self._k

    @property
    def ready(self) -> bool:
        """True once enough arrivals exist for an estimate."""
        return len(self._arrivals) >= self._estimator.min_samples

    # ------------------------------------------------------------------
    def observe(self, arrival_time: float) -> None:
        """Record the next output's arrival time (must be nondecreasing)."""
        if self.complete:
            raise EstimationError(f"already observed all k={self._k} arrivals")
        if self._arrivals and arrival_time < self._arrivals[-1]:
            raise EstimationError(
                f"arrival {arrival_time} precedes last seen {self._arrivals[-1]}"
            )
        self._arrivals.append(float(arrival_time))
        self._dirty = True

    def estimate(self) -> ParameterEstimate:
        """Return the current estimate (cached until new data arrives)."""
        if not self.ready:
            raise EstimationError(
                f"need {self._estimator.min_samples} arrivals, have {self.n_observed}"
            )
        if self._dirty or self._cached is None:
            tok = PROFILER.start()
            if self._fit is None:
                self._fit = self._estimator.accumulator(self._k)
            self._cached = self._fit.estimate(self._arrivals)
            PROFILER.stop("estimation.streaming.estimate", tok)
            self._dirty = False
        return self._cached

    def estimate_distribution(self) -> Distribution:
        """Materialize the current estimate as a Distribution."""
        return self.estimate().to_distribution()

    def reset(self) -> None:
        """Forget all arrivals (reuse across queries)."""
        self._arrivals.clear()
        self._fit = None
        self._cached = None
        self._dirty = True
