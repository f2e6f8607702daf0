"""Confidence-aware estimation (reproduction extension).

Cedar's point estimate ignores its own uncertainty: with two or three
arrivals, ``mu_hat`` can be far off, and an aggregator acting on it takes
real risk. :class:`ConservativeEstimator` wraps any estimator that
reports standard errors and shades the parameters by ``z`` standard
errors before they reach the wait optimizer:

* ``z < 0`` — assume processes are *faster* than estimated; the
  optimizer stops earlier, guarding against blowing the upstream
  deadline on a bad early estimate;
* ``z > 0`` — assume *slower*; the optimizer holds longer, guarding
  against folding prematurely.

The shading shrinks automatically as arrivals accumulate (standard
errors fall roughly as ``1/sqrt(r)``), so a mature estimate is used
as-is — an uncertainty-aware refinement of Pseudocode 1 that needs no
protocol change. Streaming fits wrap the inner estimator's accumulator
and shade only at read-out, so a conservative Cedar refits as cheaply
as the plain one.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import EstimationError
from .base import Accumulator, Estimator, ParameterEstimate

__all__ = ["ConservativeEstimator"]


class ConservativeEstimator(Estimator):
    """Shade an inner estimator's parameters by ``z`` standard errors."""

    def __init__(self, inner: Estimator, z_mu: float = -1.0, z_sigma: float = 0.0):
        super().__init__(inner.family)
        if abs(z_mu) > 5.0 or abs(z_sigma) > 5.0:
            raise EstimationError("|z| > 5 is past any sensible confidence band")
        self.inner = inner
        self.z_mu = float(z_mu)
        self.z_sigma = float(z_sigma)
        self.min_samples = inner.min_samples

    def estimate(self, arrivals: Sequence[float], k: int) -> ParameterEstimate:
        return self.shade(self.inner.estimate(arrivals, k))

    def accumulator(self, k: int) -> Accumulator:
        return _ShadedAccumulator(self, k)

    def shade(self, base: ParameterEstimate) -> ParameterEstimate:
        """Move ``base`` by ``z`` of its own standard errors."""
        sigma = max(base.sigma + self.z_sigma * base.sigma_stderr, 1e-9)
        return ParameterEstimate(
            family=base.family,
            mu=base.mu + self.z_mu * base.mu_stderr,
            sigma=sigma,
            n_observed=base.n_observed,
            k=base.k,
            method=f"conservative({base.method}, z_mu={self.z_mu:+g})",
            mu_stderr=base.mu_stderr,
            sigma_stderr=base.sigma_stderr,
        )


class _ShadedAccumulator(Accumulator):
    """The inner estimator's running fit, shaded at read-out."""

    def __init__(self, estimator: ConservativeEstimator, k: int):
        super().__init__(estimator, k)
        self._inner = estimator.inner.accumulator(k)
        self._shade = estimator.shade

    def estimate(self, arrivals: Sequence[float]) -> ParameterEstimate:
        return self._shade(self._inner.estimate(arrivals))
