"""The recursive response-quality model (paper §4.3, Equations 1-4).

For an aggregator that has waited ``t`` and waits ``∆t`` longer:

* expected **gain** in quality (Eqn 3):
  ``(F1(t+∆t) - F1(t)) · q_{n-1}(D - (t+∆t))``
* expected **loss** in quality (Eqn 4):
  ``(F1(t) - F1(t)^k1) · (q_{n-1}(D-t) - q_{n-1}(D-(t+∆t)))``

with the base case ``q_1(d) = F_{X_top}(d)``. The maximum achievable
quality ``q_n(D)`` is the running maximum of accumulated net gain over the
wait sweep (Pseudocode 2), and the argmax is the optimal wait duration.

Everything here is computed on a uniform grid of step ``ε`` so the
recursion composes by index arithmetic, and the per-query hot path
(re-optimizing the bottom stage after each arrival) is a single
vectorized sweep over a precomputed tail. Everything in that sweep that
depends only on the tail — the wait grid, its log (for log-normal
bottoms), the reversed tail quality and its step drops — is computed
once per :class:`QualityGrid` (:attr:`QualityGrid.sweep_terms`), so each
re-optimization pays only for the bottom distribution's CDF and the
accumulation.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from ..distributions import Distribution, LogNormal
from ..distributions.lognormal import lognormal_cdf_from_log
from ..errors import ConfigError
from ..obs.profile import PROFILER
from .config import Stage, TreeSpec

__all__ = [
    "QualityGrid",
    "SweepTerms",
    "WaitCurve",
    "accumulate_net",
    "quality_gain",
    "quality_loss",
    "sweep_wait",
    "tail_quality_grid",
    "max_quality",
    "optimal_wait",
]

#: default number of grid intervals for the ε-sweep.
DEFAULT_GRID_POINTS = 512


# ----------------------------------------------------------------------
# scalar forms of Equations 3 and 4 (the readable reference; the grid
# sweep below is the vectorized equivalent used everywhere hot).
# ----------------------------------------------------------------------
def quality_gain(
    x1: Distribution, t: float, dt: float, tail_quality_at: float
) -> float:
    """Equation 3: expected quality gained by waiting ``(t, t+dt]``.

    ``tail_quality_at`` is ``q_{n-1}(D - (t+dt))`` supplied by the caller.
    """
    if dt < 0.0:
        raise ConfigError(f"dt must be >= 0, got {dt}")
    return float((x1.cdf(t + dt) - x1.cdf(t)) * tail_quality_at)


def quality_loss(
    x1: Distribution,
    k1: int,
    t: float,
    dt: float,
    tail_quality_now: float,
    tail_quality_later: float,
) -> float:
    """Equation 4: expected quality lost by waiting ``(t, t+dt]``.

    ``tail_quality_now``/``tail_quality_later`` are ``q_{n-1}(D-t)`` and
    ``q_{n-1}(D-(t+dt))``.
    """
    if dt < 0.0:
        raise ConfigError(f"dt must be >= 0, got {dt}")
    if k1 < 1:
        raise ConfigError(f"k1 must be >= 1, got {k1}")
    f_t = float(x1.cdf(t))
    held = f_t - f_t**k1
    return held * (tail_quality_now - tail_quality_later)


# ----------------------------------------------------------------------
# grid machinery
# ----------------------------------------------------------------------
class SweepTerms(NamedTuple):
    """The tail-only terms of the bottom-stage sweep over one grid.

    Step ``i`` of the sweep covers waits ``(i*eps, (i+1)*eps]``; with
    ``q = values`` and ``m = len(q) - 1``, the gain of step ``i`` is
    scaled by ``q_gain[i] = q[m-i-1]`` and the loss by ``q_drop[i] =
    q[m-i] - q[m-i-1]``. All arrays are read-only.
    """

    #: wait grid ``j * eps``, shape (m+1,).
    wait: np.ndarray
    #: index of the first positive wait; the positive waits are a suffix
    #: of the grid, since it is nondecreasing.
    first: int
    #: ``log(wait[first:])``, taken exactly as ``LogNormal.cdf`` takes it.
    log_wait: np.ndarray
    #: tail quality left after step ``i``, shape (m,).
    q_gain: np.ndarray
    #: tail quality lost over step ``i``, shape (m,).
    q_drop: np.ndarray


@dataclasses.dataclass(frozen=True)
class QualityGrid:
    """``q(d)`` for a (sub)tree evaluated on a uniform deadline grid.

    ``values[j]`` is the maximum expected quality of the subtree when its
    deadline is ``j * epsilon``; ``values[0] == 0`` unless the bottom
    distribution has an atom at zero. ``values`` is read-only from
    construction on, because :attr:`sweep_terms` caches terms derived
    from it: an in-place write raises instead of leaving them stale.
    """

    epsilon: float
    values: np.ndarray  # shape (m+1,)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @functools.cached_property
    def sweep_terms(self) -> SweepTerms:
        """The sweep's tail-only terms, built on first use and kept."""
        m = len(self.values) - 1
        wait = np.arange(m + 1) * self.epsilon
        pos = wait > 0.0
        first = m + 1 - int(np.count_nonzero(pos))
        log_wait = np.log(wait, where=pos, out=np.zeros_like(wait))[first:]
        q_rev = self.values[::-1]  # q_rev[i] = q[m-i]
        q_gain = np.ascontiguousarray(q_rev[1:])
        q_drop = q_rev[:-1] - q_rev[1:]
        for arr in (wait, log_wait, q_gain, q_drop):
            arr.flags.writeable = False
        return SweepTerms(wait, first, log_wait, q_gain, q_drop)

    @property
    def deadline(self) -> float:
        """The largest deadline representable on this grid."""
        return self.epsilon * (len(self.values) - 1)

    def at(self, d: float) -> float:
        """Linear interpolation of q at deadline ``d`` (clamped to grid)."""
        if d <= 0.0:
            return float(self.values[0])
        x = d / self.epsilon
        j = min(int(x), len(self.values) - 1)
        if j >= len(self.values) - 1:
            return float(self.values[-1])
        frac = x - j
        return float((1.0 - frac) * self.values[j] + frac * self.values[j + 1])


@dataclasses.dataclass(frozen=True)
class WaitCurve:
    """Accumulated net quality as a function of the wait duration.

    ``quality[w]`` is the expected quality if the aggregator commits to
    waiting exactly ``w * epsilon``; Pseudocode 2's answer is the argmax.
    """

    epsilon: float
    quality: np.ndarray  # shape (m+1,)

    @property
    def optimal_index(self) -> int:
        """Index of the optimal wait; ties broken toward the longer wait,
        matching Pseudocode 2's ``q >= bestQ`` update rule."""
        q = self.quality
        return int(len(q) - 1 - np.argmax(q[::-1]))

    @property
    def optimal_wait(self) -> float:
        """The wait duration maximizing expected quality."""
        return self.optimal_index * self.epsilon

    @property
    def max_quality(self) -> float:
        """Expected quality at the optimal wait."""
        return float(self.quality[self.optimal_index])

    def wait_grid(self) -> np.ndarray:
        """The wait values corresponding to ``quality`` entries."""
        return np.arange(len(self.quality)) * self.epsilon


def sweep_wait(
    x1: Distribution, k1: int, tail: QualityGrid, gain_discount: float = 1.0
) -> WaitCurve:
    """Vectorized Pseudocode 2 for the bottom stage of a tree.

    Sweeps wait ``c`` from 0 to the tail grid's deadline in steps of
    ``tail.epsilon``, accumulating Equation-3 gains minus Equation-4
    losses against the precomputed tail quality ``q_{n-1}``.

    Only the bottom distribution's CDF on the wait grid and the
    accumulation are computed per call; the wait grid, its log and the
    reversed tail terms come from ``tail.sweep_terms``, built once per
    tail. A :class:`~repro.distributions.LogNormal` bottom evaluates its
    CDF from the cached log grid; other families call their ``cdf`` on
    the cached wait grid.

    ``gain_discount`` scales the *gain* term only. The failure-aware
    policies set it to the shipment survival probability: on lossy
    infrastructure the payoff of waiting for one more output only
    materializes if the shipment survives, while the exposure of the
    outputs already held is borne regardless — so the optimum shifts
    toward shorter waits as survival drops.
    """
    if k1 < 1:
        raise ConfigError(f"k1 must be >= 1, got {k1}")
    if not 0.0 < gain_discount <= 1.0:
        raise ConfigError(
            f"gain_discount must be in (0, 1], got {gain_discount}"
        )
    terms = tail.sweep_terms
    if isinstance(x1, LogNormal):
        f = np.zeros(len(terms.wait))
        f[terms.first :] = lognormal_cdf_from_log(
            terms.log_wait, x1.mu, x1.sigma
        )
    else:
        f = np.clip(np.asarray(x1.cdf(terms.wait), dtype=float), 0.0, 1.0)
    return WaitCurve(
        epsilon=tail.epsilon, quality=accumulate_net(f, k1, terms, gain_discount)
    )


def accumulate_net(
    f: np.ndarray, k, terms: SweepTerms, gain_discount: float
) -> np.ndarray:
    """Accumulated net quality of Pseudocode 2 from bottom-stage CDFs.

    ``f`` holds CDF values on ``terms.wait``: one row with an int fan-out
    ``k``, or ``(N, m+1)`` rows with one int fan-out per row. Shared by
    :func:`sweep_wait` and the batched solver, so both run the same
    element-wise float operations.
    """
    if f.ndim == 1:
        power = f**k
    else:
        # raise rows to a Python int, as the one-row sweep does: numpy
        # computes ``x**2`` as ``x*x`` but an int-array exponent calls
        # ``pow``, which can differ in the last bit
        k = np.asarray(k)
        power = np.empty_like(f)
        for fanout in np.unique(k):
            rows = k == fanout
            power[rows] = f[rows] ** int(fanout)
    held = f - power  # (F - F^k), the loss-exposure factor
    step = f[..., 1:] - f[..., :-1]
    if gain_discount != 1.0:  # 1.0 * x == x, so the multiply is skipped
        step *= gain_discount
    step *= terms.q_gain  # gain: (F[i+1]-F[i]) * q[m-(i+1)]
    step -= held[..., :-1] * terms.q_drop  # loss: held[i]*(q[m-i]-q[m-i-1])
    net = np.empty(f.shape)
    net[..., 0] = 0.0
    np.cumsum(step, axis=-1, out=net[..., 1:])
    return net


def _base_grid(top: Distribution, m: int, eps: float) -> QualityGrid:
    """``q_1`` on the grid: probability the top stage finishes by ``d``."""
    grid = np.arange(m + 1) * eps
    vals = np.clip(np.asarray(top.cdf(grid), dtype=float), 0.0, 1.0)
    return QualityGrid(epsilon=eps, values=vals)


def tail_quality_grid(
    stages: Sequence[Stage], deadline: float, grid_points: int = DEFAULT_GRID_POINTS
) -> QualityGrid:
    """Compute ``q`` for the subtree formed by ``stages`` on a grid.

    ``stages`` is bottom-up; for the full-tree optimizer pass
    ``tree.stages[1:]`` here and sweep the bottom stage separately (that is
    what :class:`~repro.core.wait.WaitOptimizer` does).

    The recursion costs ``O(levels * grid_points^2)`` once; per-query
    re-optimizations reuse the result.
    """
    if deadline <= 0.0:
        raise ConfigError(f"deadline must be positive, got {deadline}")
    if grid_points < 2:
        raise ConfigError(f"grid_points must be >= 2, got {grid_points}")
    if len(stages) == 0:
        raise ConfigError("need at least one stage")
    tok = PROFILER.start()
    m = int(grid_points)
    eps = deadline / m
    q = _base_grid(stages[-1].duration, m, eps)
    # fold in lower stages one at a time, bottom-most last
    for stage in reversed(list(stages)[:-1]):
        q = _fold_stage(stage, q)
    PROFILER.stop("core.quality.tail_grid", tok)
    return q


def _fold_stage(stage: Stage, tail: QualityGrid) -> QualityGrid:
    """Given q for the upper subtree, compute q with ``stage`` below it.

    ``q_new[j] = max_w sum of (gain - loss) steps`` for deadline ``j*eps``;
    computed for every grid deadline so the result can serve as the tail of
    the next level down.
    """
    eps = tail.epsilon
    q_tail = tail.values
    m = len(q_tail) - 1
    grid = np.arange(m + 1) * eps
    f = np.clip(np.asarray(stage.duration.cdf(grid), dtype=float), 0.0, 1.0)
    held = f - f**stage.fanout
    df = np.diff(f)
    out = np.empty(m + 1)
    out[0] = float(f[0] * q_tail[0])
    for j in range(1, m + 1):
        # steps i = 0..j-1; arrival bucket (i*eps,(i+1)*eps], remaining
        # deadline after the bucket is (j-i-1)*eps.
        qt = q_tail[j::-1]  # qt[i] = q_tail[j-i], length j+1
        gains = df[:j] * qt[1 : j + 1]
        losses = held[:j] * (qt[:j] - qt[1 : j + 1])
        net = np.cumsum(gains - losses)
        best = float(net.max(initial=0.0))
        out[j] = best
    return QualityGrid(epsilon=eps, values=out)


# ----------------------------------------------------------------------
# top-level conveniences
# ----------------------------------------------------------------------
def max_quality(
    tree: TreeSpec, deadline: float, grid_points: int = DEFAULT_GRID_POINTS
) -> float:
    """``q_n(D)`` — maximum expected quality of ``tree`` under ``deadline``."""
    tail = tail_quality_grid(tree.stages[1:], deadline, grid_points)
    curve = sweep_wait(tree.stages[0].duration, tree.stages[0].fanout, tail)
    return curve.max_quality


def optimal_wait(
    tree: TreeSpec, deadline: float, grid_points: int = DEFAULT_GRID_POINTS
) -> float:
    """Optimal bottom-aggregator wait duration for ``tree`` under ``deadline``."""
    tail = tail_quality_grid(tree.stages[1:], deadline, grid_points)
    curve = sweep_wait(tree.stages[0].duration, tree.stages[0].fanout, tail)
    return curve.optimal_wait
