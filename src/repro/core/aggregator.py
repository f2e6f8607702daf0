"""Aggregator runtime (paper §4.1, Pseudocode 1).

An :class:`AggregatorController` is the per-query, per-aggregator decision
object the simulator (or a real system) drives: it exposes the current
absolute *stop time* (when the aggregator will give up waiting and ship
upstream) and is notified of each arrival so adaptive implementations can
re-plan.

:class:`AdaptiveController` is Cedar's Pseudocode 1: start with the full
deadline as the timer, re-estimate the arrival distribution on every
output via order statistics, and reset the timer to the re-optimized wait.
:class:`StaticController` covers every baseline whose stop time is decided
up front (Proportional-split, Equal-split, Ideal, offline Cedar...).
"""

from __future__ import annotations

import abc
from typing import Optional

from ..distributions import Distribution
from ..errors import ConfigError
from ..estimation import Estimator, StreamingEstimator
from .wait import WaitOptimizer

__all__ = ["AggregatorController", "StaticController", "AdaptiveController"]


class AggregatorController(abc.ABC):
    """Decides how long one aggregator waits for its ``k`` inputs."""

    @property
    @abc.abstractmethod
    def stop_time(self) -> float:
        """Current absolute time (since query start) to stop waiting."""

    @abc.abstractmethod
    def on_arrival(self, t: float) -> None:
        """Notify that one input arrived at absolute time ``t``."""

    @property
    @abc.abstractmethod
    def n_received(self) -> int:
        """Number of inputs that have arrived so far."""


class StaticController(AggregatorController):
    """Fixed stop time decided before the query starts."""

    def __init__(self, stop: float):
        if stop < 0.0:
            raise ConfigError(f"stop time must be >= 0, got {stop}")
        self._stop = float(stop)
        self._received = 0

    @property
    def stop_time(self) -> float:
        return self._stop

    def on_arrival(self, t: float) -> None:
        self._received += 1

    @property
    def n_received(self) -> int:
        return self._received


class AdaptiveController(AggregatorController):
    """Cedar's online controller (Pseudocode 1).

    Every planning step is ``stop = clamp(wait(last_estimate), now, D)``:
    once up front when a prior is given, then whenever the online fit
    refreshes the estimate. The controller also records its arrivals, so
    a warm-start policy can harvest them (and :meth:`online_estimate`)
    straight off it after the query.

    Parameters
    ----------
    estimator:
        Batch estimator used to fit the arrival distribution (Cedar uses
        :class:`~repro.estimation.OrderStatisticEstimator`; the Figure 10
        ablation swaps in the biased empirical one).
    optimizer:
        Precomputed :class:`~repro.core.wait.WaitOptimizer` for the upper
        subtree at this query's deadline.
    k:
        Fan-in of this aggregator (``k1``).
    deadline:
        End-to-end deadline ``D``; also the initial timer value.
    min_samples:
        Arrivals required before the first re-optimization (>= 2, since
        two parameters must be identified).
    reoptimize_every:
        Re-plan after every ``r``-th arrival (1 = every arrival, the
        paper's default; larger values are an ablation knob).
    estimate_k:
        Sample-population size the order-statistic mapping should assume
        (defaults to ``k``). A failure-aware policy deflates this to the
        number of inputs *expected to survive*: the ``i``-th arrival is
        then mapped to quantile ``i`` of ``estimate_k`` live draws instead
        of ``k`` total, removing the slow bias crashes would otherwise
        induce. Shipping early still requires all ``k`` arrivals.
    prior:
        Optional warm-start distribution (e.g. from a
        :class:`~repro.serve.WarmStartStore`). When given, the initial
        timer is the prior-optimal wait instead of the full deadline, and
        ``last_estimate`` reports the prior until the online fit takes
        over at ``min_samples`` arrivals. ``None`` (the default) keeps
        Pseudocode 1's cold start bit-for-bit.
    """

    def __init__(
        self,
        estimator: Estimator,
        optimizer: WaitOptimizer,
        k: int,
        deadline: float,
        min_samples: int = 2,
        reoptimize_every: int = 1,
        estimate_k: Optional[int] = None,
        prior: Optional[Distribution] = None,
    ):
        if deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        if min_samples < estimator.min_samples:
            raise ConfigError(
                f"min_samples {min_samples} below estimator requirement "
                f"{estimator.min_samples}"
            )
        if reoptimize_every < 1:
            raise ConfigError(
                f"reoptimize_every must be >= 1, got {reoptimize_every}"
            )
        est_k = int(k if estimate_k is None else estimate_k)
        if not 1 <= est_k <= k:
            raise ConfigError(
                f"estimate_k must be in [1, k={k}], got {est_k}"
            )
        self._stream = StreamingEstimator(estimator, est_k)
        self._optimizer = optimizer
        self._k = int(k)
        self._deadline = float(deadline)
        self._min_samples = int(min_samples)
        self._reoptimize_every = int(reoptimize_every)
        #: every arrival seen, in order (harvested by warm-start policies).
        self.arrivals: list[float] = []
        # Pseudocode 1: SetTimer(D, TimerExpire) before any output arrives.
        self._stop = float(deadline)
        self._last_estimate: Optional[Distribution] = prior
        # identity marker: last_estimate still being this object means the
        # online fit never ran, so harvesting it back into a warm-start
        # store would create a feedback echo.
        self._initial_estimate = prior
        if prior is not None:
            # Warm start: plan from the prior as if it were known up front.
            self._plan(0.0)

    # ------------------------------------------------------------------
    @property
    def stop_time(self) -> float:
        return self._stop

    @property
    def n_received(self) -> int:
        return len(self.arrivals)

    @property
    def last_estimate(self) -> Optional[Distribution]:
        """Most recent fitted arrival distribution (None before warm-up)."""
        return self._last_estimate

    def online_estimate(self) -> Optional[Distribution]:
        """The fitted distribution if the *online* learner produced one
        (an injected prior does not count)."""
        est = self.last_estimate
        if est is None or est is self._initial_estimate:
            return None
        return est

    # ------------------------------------------------------------------
    def _plan(self, now: float) -> None:
        """One planning step at absolute time ``now``."""
        assert self._last_estimate is not None
        wait = self._optimizer.optimize(self._last_estimate, self._k)
        # the wait is measured from query start; never stop before `now`
        # (we are still processing this arrival) nor after the deadline.
        self._stop = min(max(wait, now), self._deadline)

    def _refit(self, fed: bool) -> bool:
        """Refresh ``last_estimate`` when due; True means re-plan now."""
        if not fed:
            return False
        n = self._stream.n_observed
        if n < self._min_samples:
            return False
        if (n - self._min_samples) % self._reoptimize_every != 0:
            return False
        self._last_estimate = self._stream.estimate_distribution()
        return True

    def on_arrival(self, t: float) -> None:
        self.arrivals.append(t)
        # with a deflated estimate_k, arrivals beyond it (more inputs
        # survived than planned) carry no usable order-statistic rank —
        # keep the last estimate, keep counting.
        fed = not self._stream.complete
        if fed:
            self._stream.observe(t)
        if len(self.arrivals) == self._k:
            # all outputs received: SetTimer(0) — ship immediately.
            self._stop = t
            return
        if self._refit(fed):
            self._plan(t)
