"""Cedar's order-statistic parameter estimator (paper §4.2.2).

The ``i``-th arrival time ``t_i`` is a draw from the ``i``-th order
statistic of ``k`` samples. For a log-normal parent, the method-of-moments
relation is ``ln t_i ≈ µ + σ m_{i:k}`` with ``m_{i:k}`` the expected
standard-normal order statistic ("``ln o_i``" in the paper). Each
consecutive pair ``(t_i, t_{i+1})`` yields one solve:

    σ̂_i = (ln t_{i+1} - ln t_i) / (m_{i+1:k} - m_{i:k})
    µ̂_i = ln t_i - σ̂_i · m_{i:k}

and the final estimate averages the individual solves — the paper's
"practical approach that is computationally efficient". The normal family
is identical without the logarithm; the exponential family uses the
harmonic-number scores ``E[T_(i:k)] = H_i / λ``.

Averaging is a running aggregate, so the fit is a fold: each arrival adds
one solve to running sums (and Welford pairs for the standard errors),
and reading the estimate out divides by the count. The streaming path
(:class:`~repro.estimation.StreamingEstimator`) keeps one fold per
aggregator and folds pending arrivals lazily when it is asked for an
estimate — O(1) amortized per arrival. The batch :meth:`estimate` runs
the same fold over the whole prefix, so both paths agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import EstimationError
from ..orderstats import exponential_order_stat_scores, normal_scores
from .base import Accumulator, Estimator, ParameterEstimate, validate_arrivals

__all__ = ["OrderStatisticEstimator"]

#: Floor applied to sigma estimates; a zero sigma (all arrivals identical)
#: would make the downstream quality model degenerate.
_SIGMA_FLOOR = 1e-9


class OrderStatisticEstimator(Estimator):
    """De-biased online estimator using expected order statistics."""

    min_samples = 2

    def __init__(self, family: str = "lognormal", score_method: str = "exact"):
        super().__init__(family)
        self.score_method = score_method
        self._score_cache: dict[int, list[float]] = {}

    # ------------------------------------------------------------------
    def scores(self, k: int) -> list[float]:
        """Expected order-statistic values for the standardized family
        (cached per ``k``; callers must not mutate the list)."""
        cached = self._score_cache.get(k)
        if cached is None:
            if self.family in ("lognormal", "normal"):
                scores = normal_scores(k, method=self.score_method)
            else:  # exponential
                scores = exponential_order_stat_scores(k)
            cached = self._score_cache[k] = [float(s) for s in scores]
        return cached

    # ------------------------------------------------------------------
    def estimate(self, arrivals: Sequence[float], k: int) -> ParameterEstimate:
        arr = validate_arrivals(arrivals, k, min_samples=self.min_samples)
        return self.accumulator(k).estimate(arr.tolist())

    def accumulator(self, k: int) -> Accumulator:
        if self.family == "exponential":
            return _SpacingFold(self, k)
        return _PairwiseFold(self, k)


class _Fold(Accumulator):
    """Shared driver of the running fits: check and fold the arrivals
    added since the last call, then read the estimate out.

    Callers pass sorted arrivals of at most ``k`` and at least
    ``min_samples`` entries (the batch path validates them,
    :class:`~repro.estimation.StreamingEstimator` enforces both). A fold
    whose pending arrivals fail a check raises before touching its state,
    so it raises the same error again on the next call, as the batch fit
    of the same prefix would.
    """

    def __init__(self, estimator: OrderStatisticEstimator, k: int):
        super().__init__(estimator, k)
        self.family = estimator.family
        self._scores = estimator.scores(k)
        #: arrivals folded so far.
        self._n = 0
        #: last folded value (log-arrival for log-normal, else arrival).
        self._prev = 0.0

    def estimate(self, arrivals: Sequence[float]) -> ParameterEstimate:
        r = len(arrivals)
        if r > self._n:
            pending = arrivals[self._n : r]
            # the batch fit's checks, in its order: finiteness first,
            # then the family's sign
            if not all(map(math.isfinite, pending)):
                raise EstimationError("arrival times must be finite")
            if self.family == "lognormal":
                if min(pending) <= 0.0:
                    raise EstimationError("lognormal arrivals must be positive")
            elif self.family == "exponential" and min(pending) < 0.0:
                raise EstimationError("exponential arrivals must be nonnegative")
            self._fold(pending)
        return self._read_out(r)

    def _fold(self, ts: Sequence[float]) -> None:
        """Add the solves of the (checked) pending arrivals ``ts``."""
        raise NotImplementedError

    def _read_out(self, r: int) -> ParameterEstimate:
        """The estimate from the first ``r`` (all folded) arrivals."""
        raise NotImplementedError


class _PairwiseFold(_Fold):
    """Log-normal/normal: one (µ̂_i, σ̂_i) solve per consecutive pair."""

    def __init__(self, estimator: OrderStatisticEstimator, k: int):
        super().__init__(estimator, k)
        self._sum_mu = self._sum_sigma = 0.0
        # Welford (running mean M, sum of squared deviations S) per solve
        self._m_mu = self._s_mu = 0.0
        self._m_sigma = self._s_sigma = 0.0

    def _read_out(self, r: int) -> ParameterEstimate:
        n_pairs = r - 1
        sigma = self._sum_sigma / n_pairs
        mu = self._sum_mu / n_pairs
        if sigma < _SIGMA_FLOOR:
            sigma = _SIGMA_FLOOR
        # spread of the pairwise solves as a (rough) standard error —
        # the solves are positively correlated, so this understates the
        # true error somewhat but orders estimates correctly by maturity.
        if n_pairs >= 2:
            root = math.sqrt(n_pairs)
            mu_se = math.sqrt(self._s_mu / (n_pairs - 1)) / root
            sigma_se = math.sqrt(self._s_sigma / (n_pairs - 1)) / root
        else:
            mu_se = sigma_se = 0.0
        # positional: this read-out runs once per arrival
        return ParameterEstimate(
            self.family, mu, sigma, r, self.k, "order-statistic", mu_se, sigma_se
        )

    def _fold(self, ts: Sequence[float]) -> None:
        m, log = self._scores, self.family == "lognormal"
        n, y_prev = self._n, self._prev
        sum_mu, sum_sigma = self._sum_mu, self._sum_sigma
        m_mu, s_mu, m_sigma, s_sigma = self._m_mu, self._s_mu, self._m_sigma, self._s_sigma
        for t in ts:
            y = math.log(t) if log else t
            if n:
                dm = m[n] - m[n - 1]
                if dm <= 0.0:  # cannot happen for r <= k; defensive
                    raise EstimationError("order-statistic scores must be increasing")
                sigma_i = (y - y_prev) / dm
                mu_i = y_prev - sigma_i * m[n - 1]
                sum_mu += mu_i
                sum_sigma += sigma_i
                d = mu_i - m_mu
                m_mu += d / n
                s_mu += d * (mu_i - m_mu)
                d = sigma_i - m_sigma
                m_sigma += d / n
                s_sigma += d * (sigma_i - m_sigma)
            y_prev = y
            n += 1
        self._n, self._prev = n, y_prev
        self._sum_mu, self._sum_sigma = sum_mu, sum_sigma
        self._m_mu, self._s_mu, self._m_sigma, self._s_sigma = m_mu, s_mu, m_sigma, s_sigma


class _SpacingFold(_Fold):
    """Exponential: one Rényi spacing mean per arrival.

    Each ``(t_i - t_{i-1}) / (H_i - H_{i-1})`` (with ``t_0 = H_0 = 0``) is
    an i.i.d. exponential draw of the mean ``1/λ``.
    """

    def __init__(self, estimator: OrderStatisticEstimator, k: int):
        super().__init__(estimator, k)
        self._sum_mean = 0.0

    def _read_out(self, r: int) -> ParameterEstimate:
        mean_est = self._sum_mean / r
        if mean_est <= 0.0:
            raise EstimationError("degenerate exponential arrivals")
        # 1/sample-mean of r exponentials overestimates the rate by
        # r/(r-1) (Jensen); apply the standard unbiasing correction.
        correction = (r - 1) / r if r > 1 else 1.0
        return ParameterEstimate(
            family="exponential",
            mu=correction / mean_est,  # rate stored in mu by convention
            sigma=0.0,
            n_observed=r,
            k=self.k,
            method="order-statistic",
        )

    def _fold(self, ts: Sequence[float]) -> None:
        m = self._scores
        n, t_prev, total = self._n, self._prev, self._sum_mean
        for t in ts:
            gap = m[n] - m[n - 1] if n else m[0]
            if gap <= 0.0:  # cannot happen for r <= k; defensive
                raise EstimationError("order-statistic scores must be increasing")
            total += (t - t_prev) / gap
            t_prev = t
            n += 1
        self._n, self._prev, self._sum_mean = n, t_prev, total
