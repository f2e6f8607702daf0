"""Log-normal distribution — the workhorse family of the paper.

All four production traces in the paper (Facebook Hadoop, Bing RTTs,
Google search, Cosmos) are best fit by log-normals (§4.2.1), so this is
the family Cedar learns online. Parameterized by the mean ``mu`` and
standard deviation ``sigma`` of ``ln X``.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
from scipy import special

from ..errors import DistributionError
from ..rng import SeedLike, resolve_rng
from .base import Distribution

__all__ = ["LogNormal", "lognormal_cdf_from_log"]

_SQRT2 = math.sqrt(2.0)


def lognormal_cdf_from_log(log_x, mu, sigma):
    """``LogNormal(mu, sigma).cdf`` at points given by their logs.

    ``log_x`` holds ``log(x)`` of *positive* points (the CDF is 0 at
    ``x <= 0`` and callers fill that part themselves); ``mu`` and
    ``sigma`` are scalars or arrays broadcasting against ``log_x``. This
    is the one copy of the log-normal CDF arithmetic: callers that
    evaluate many log-normals on one fixed grid take the ``log`` once and
    get the same bits as :meth:`LogNormal.cdf`. No clip is needed, since
    ``0.5 * (1 + erf)`` already lies in [0, 1].
    """
    return 0.5 * (1.0 + special.erf((log_x - mu) / sigma / _SQRT2))


class LogNormal(Distribution):
    """Log-normal distribution: ``ln X ~ Normal(mu, sigma^2)``."""

    family = "lognormal"

    def __init__(self, mu: float, sigma: float):
        if not math.isfinite(mu):
            raise DistributionError(f"lognormal mu must be finite, got {mu}")
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise DistributionError(f"lognormal sigma must be > 0, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    # ------------------------------------------------------------------
    def params(self) -> Mapping[str, float]:
        return {"mu": self.mu, "sigma": self.sigma}

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        log_x = np.log(x, where=pos, out=np.zeros_like(x))
        out[pos] = lognormal_cdf_from_log(log_x[pos], self.mu, self.sigma)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        lx = np.log(x, where=pos, out=np.zeros_like(x))
        z = (lx - self.mu) / self.sigma
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.exp(-0.5 * z * z) / (x * self.sigma * math.sqrt(2 * math.pi))
        out[pos] = vals[pos]
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p < 0.0) | (p > 1.0)):
            raise DistributionError("quantile probability out of [0,1]")
        z = special.ndtri(np.clip(p, 0.0, 1.0))
        out = np.exp(self.mu + self.sigma * z)
        return float(out) if out.ndim == 0 else out

    def sample(self, size=1, seed: SeedLike = None):
        rng = resolve_rng(seed)
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)

    # ------------------------------------------------------------------
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def var(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def median(self) -> float:
        return math.exp(self.mu)

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, samples) -> "LogNormal":
        """Unbiased fit from an *unbiased* i.i.d. sample (log-moments).

        This is the classic estimator; it is exactly the "empirical"
        technique the paper shows to be wrong on *order-biased* samples —
        use :class:`repro.estimation.OrderStatisticEstimator` for those.
        """
        arr = np.asarray(samples, dtype=float)
        if arr.size < 2:
            raise DistributionError("need at least 2 samples to fit lognormal")
        if np.any(arr <= 0.0):
            raise DistributionError("lognormal samples must be positive")
        logs = np.log(arr)
        sigma = float(np.std(logs, ddof=1))
        if sigma <= 0.0:
            raise DistributionError("degenerate sample: zero log-variance")
        return cls(mu=float(np.mean(logs)), sigma=sigma)

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "LogNormal":
        """Construct from the *linear-scale* mean and standard deviation."""
        if mean <= 0.0 or std <= 0.0:
            raise DistributionError("mean and std must be positive")
        s2 = math.log(1.0 + (std / mean) ** 2)
        return cls(mu=math.log(mean) - 0.5 * s2, sigma=math.sqrt(s2))

    def with_params(self, mu: float | None = None, sigma: float | None = None) -> "LogNormal":
        """Return a copy with one or both parameters replaced."""
        return LogNormal(
            mu=self.mu if mu is None else mu,
            sigma=self.sigma if sigma is None else sigma,
        )
