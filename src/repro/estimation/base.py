"""Common interface for parameter estimators.

An estimator turns the *ordered arrival times* of the first ``r`` out of
``k`` process outputs into a fitted duration distribution. Implementations
differ in how they treat the sampling bias of early arrivals:

* :class:`~repro.estimation.order_statistic.OrderStatisticEstimator` —
  Cedar's de-biased estimator (§4.2.2);
* :class:`~repro.estimation.empirical.EmpiricalEstimator` — the naive,
  biased baseline the paper compares against (Figures 9 and 10);
* :class:`~repro.estimation.mle.CensoredMLEEstimator` — full joint MLE,
  the "computationally expensive" reference.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..distributions import Distribution, LogNormal, Normal
from ..errors import EstimationError

__all__ = ["Accumulator", "ParameterEstimate", "Estimator", "validate_arrivals"]

SUPPORTED_FAMILIES = ("lognormal", "normal", "exponential")


@dataclasses.dataclass(frozen=True)
class ParameterEstimate:
    """A fitted parameter pair plus provenance.

    ``mu_stderr``/``sigma_stderr`` quantify the estimate's own sampling
    uncertainty (0.0 when the estimator cannot produce one); the
    confidence-aware policies consume them.
    """

    family: str
    mu: float
    sigma: float
    n_observed: int
    k: int
    method: str
    mu_stderr: float = 0.0
    sigma_stderr: float = 0.0

    def to_distribution(self) -> Distribution:
        """Materialize the estimate as a Distribution object."""
        from ..distributions import Exponential

        if self.family == "lognormal":
            return LogNormal(mu=self.mu, sigma=self.sigma)
        if self.family == "normal":
            return Normal(mu=self.mu, sigma=self.sigma)
        if self.family == "exponential":
            # for the exponential family we store the rate in ``mu``.
            return Exponential(lam=self.mu)
        raise EstimationError(f"unknown family {self.family!r}")


def validate_arrivals(arrivals: Sequence[float], k: int, *, min_samples: int) -> np.ndarray:
    """Validate and return sorted arrival times for estimation."""
    arr = np.asarray(arrivals, dtype=float)
    if arr.ndim != 1:
        raise EstimationError(f"arrivals must be 1-D, got shape {arr.shape}")
    if arr.size < min_samples:
        raise EstimationError(
            f"need at least {min_samples} arrivals, got {arr.size}"
        )
    if arr.size > k:
        raise EstimationError(f"{arr.size} arrivals exceed fan-out k={k}")
    if np.any(~np.isfinite(arr)):
        raise EstimationError("arrival times must be finite")
    if np.any(np.diff(arr) < 0.0):
        raise EstimationError("arrival times must be sorted ascending")
    return arr


class Estimator(abc.ABC):
    """Fits distribution parameters from the earliest ``r`` of ``k`` arrivals."""

    #: minimum number of arrivals required before estimate() succeeds.
    min_samples: int = 2

    def __init__(self, family: str = "lognormal"):
        if family not in SUPPORTED_FAMILIES:
            raise EstimationError(
                f"family {family!r} not supported; choose from {SUPPORTED_FAMILIES}"
            )
        self.family = family

    @abc.abstractmethod
    def estimate(self, arrivals: Sequence[float], k: int) -> ParameterEstimate:
        """Estimate parameters from sorted arrival times of ``r < k`` outputs."""

    def estimate_distribution(self, arrivals: Sequence[float], k: int) -> Distribution:
        """Convenience: estimate and materialize a Distribution."""
        return self.estimate(arrivals, k).to_distribution()

    def accumulator(self, k: int) -> "Accumulator":
        """A fit over a growing arrival prefix of fan-out ``k``."""
        return Accumulator(self, k)


class Accumulator:
    """Fits a growing prefix of one aggregator's ``k`` arrivals.

    Every call to :meth:`estimate` passes the whole prefix so far, which
    extends the prefix of the previous call. This default re-fits it from
    scratch with the batch :meth:`Estimator.estimate`; an estimator whose
    fit is a running aggregate returns a subclass that folds only the
    arrivals added since the last call.
    """

    def __init__(self, estimator: Estimator, k: int):
        self.estimator = estimator
        self.k = k

    def estimate(self, arrivals: Sequence[float]) -> ParameterEstimate:
        """The fit over ``arrivals`` (equal to the batch estimate)."""
        return self.estimator.estimate(arrivals, self.k)
