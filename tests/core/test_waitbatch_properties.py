"""Property suite pinning the batched wait solver to the scalar sweep.

The serving claim behind :mod:`repro.core.waitbatch` is *exact*
equivalence, not approximation: row ``i`` of
:meth:`~repro.core.waitbatch.BatchWaitSolver.solve` performs the same
element-wise float operations as the scalar
:meth:`~repro.core.wait.WaitOptimizer.optimize`, so the batched wait
must be **bit-identical** (``==`` on floats, no tolerance) for every
distribution family the repo models — log-normal (the vectorized
fast path), Weibull and log-normal+Pareto mixtures (the generic path) —
including the degenerate corners: near-zero sigma, deadlines a fraction
of the grid step, and fan-out 1 (where gain and loss both vanish).

Both paths also have to match an independent oracle: the sweep body as
it was before the tail terms were cached (generic ``np.clip(cdf(grid))``
on a fresh grid, ``np.diff``, no shared accumulation), kept inline
below. Comparing batch against scalar alone would not catch a change to
the arithmetic the two paths now share.

The cache half: a :class:`~repro.core.waitbatch.WaitTableCache` hit
returns the *identical float* its miss stored (so a hit can never change
an admitted query's terminal outcome), the stored value is exactly the
scalar optimum at the bucket representative, and a batched
:meth:`~repro.core.waitbatch.WaitTableCache.prewarm` stores the same
bits as on-demand misses.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Stage
from repro.core.quality import QualityGrid, sweep_wait
from repro.core.wait import WaitOptimizer
from repro.core.waitbatch import BatchWaitSolver, WaitCacheConfig, WaitTableCache
from repro.distributions import LogNormal, Mixture, Pareto, Weibull
from repro.errors import ConfigError

import pytest

MU = st.floats(min_value=-1.0, max_value=3.0)
SIGMA = st.floats(min_value=0.2, max_value=1.5)
SHAPE = st.floats(min_value=0.6, max_value=3.0)
SCALE = st.floats(min_value=0.5, max_value=10.0)
TAIL_WEIGHT = st.floats(min_value=0.0, max_value=0.5)
FANOUT = st.integers(min_value=1, max_value=20)  # 1 included: degenerate
DEADLINE = st.floats(min_value=0.5, max_value=50.0)
TINY_DEADLINE = st.floats(min_value=1e-4, max_value=0.05)
TINY_SIGMA = st.floats(min_value=1e-8, max_value=1e-3)
DISCOUNT = st.floats(min_value=0.05, max_value=1.0)

GRID = 64  # coarse grid keeps each hypothesis example fast


@st.composite
def bottom_distributions(draw):
    """A bottom-stage distribution from one of three families."""
    family = draw(st.sampled_from(["lognormal", "weibull", "mixture"]))
    if family == "lognormal":
        return LogNormal(draw(MU), draw(SIGMA))
    if family == "weibull":
        return Weibull(k=draw(SHAPE), lam=draw(SCALE))
    return Mixture(
        components=[
            LogNormal(draw(MU), draw(SIGMA)),
            Pareto(xm=draw(SCALE), alpha=draw(SHAPE) + 1.0),
        ],
        weights=[1.0 - draw(TAIL_WEIGHT), draw(TAIL_WEIGHT) + 1e-3],
    )


ROWS = st.lists(
    st.tuples(bottom_distributions(), FANOUT), min_size=1, max_size=6
)


def _tail(mu2, sigma2, k2):
    return (Stage(duration=LogNormal(mu2, sigma2), fanout=k2),)


def _oracle_curve(x1, k1, tail, gain_discount=1.0):
    """The sweep body before the tail terms were cached: every family
    through its own ``cdf`` on a freshly built grid, clipped."""
    q_tail = tail.values
    m = len(q_tail) - 1
    grid = np.arange(m + 1) * tail.epsilon
    f = np.clip(np.asarray(x1.cdf(grid), dtype=float), 0.0, 1.0)
    held = f - f**k1
    gains = gain_discount * np.diff(f) * q_tail[::-1][1:]
    q_rev = q_tail[::-1]
    losses = held[:-1] * (q_rev[:-1] - q_rev[1:])
    return np.concatenate(([0.0], np.cumsum(gains - losses)))


def _assert_rows_bit_identical(tail, deadline, rows, gain_discount=1.0):
    """Each batched row == the scalar optimizer's answer, no tolerance,
    and both sweeps' curves == the oracle's."""
    dists = [dist for dist, _ in rows]
    ks = [k for _, k in rows]
    solver = BatchWaitSolver(tail, deadline, grid_points=GRID)
    waits = solver.solve(dists, ks, gain_discount=gain_discount)
    curves = solver.sweep_batch(dists, ks, gain_discount=gain_discount)
    optimizer = WaitOptimizer(tail, deadline, grid_points=GRID)
    for i, (dist, k) in enumerate(rows):
        oracle = _oracle_curve(dist, k, solver.tail, gain_discount)
        assert np.array_equal(curves[i], oracle), (i, dist, k)
        # a batch of one log-normal takes the vectorized log-normal path
        alone = solver.sweep_batch([dist], [k], gain_discount=gain_discount)
        assert np.array_equal(alone[0], oracle), (i, dist, k)
        scalar_curve = sweep_wait(dist, k, solver.tail, gain_discount)
        assert np.array_equal(scalar_curve.quality, oracle), (i, dist, k)
        if gain_discount == 1.0:
            scalar = optimizer.optimize(dist, k)
        else:
            scalar = scalar_curve.optimal_wait
        assert waits[i] == scalar, (i, dist, k)
        assert 0.0 <= waits[i] <= deadline + 1e-9


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, mu2=MU, sigma2=SIGMA, k2=FANOUT, d=DEADLINE)
def test_batch_rows_bit_identical_across_families(rows, mu2, sigma2, k2, d):
    _assert_rows_bit_identical(_tail(mu2, sigma2, k2), d, rows)


@settings(max_examples=30, deadline=None)
@given(
    mus=st.lists(MU, min_size=1, max_size=6),
    sigma=TINY_SIGMA,
    k1=FANOUT,
    mu2=MU,
    k2=FANOUT,
    d=DEADLINE,
)
def test_batch_bit_identical_degenerate_sigma(mus, sigma, k1, mu2, k2, d):
    """sigma -> 0: the CDF collapses toward a step; rows must still agree."""
    rows = [(LogNormal(mu, sigma), k1) for mu in mus]
    _assert_rows_bit_identical(_tail(mu2, 0.5, k2), d, rows)


@settings(max_examples=30, deadline=None)
@given(rows=ROWS, mu2=MU, sigma2=SIGMA, k2=FANOUT, d=TINY_DEADLINE)
def test_batch_bit_identical_tiny_deadline(rows, mu2, sigma2, k2, d):
    """Deadlines a fraction of a duration unit: grid step ~ d / GRID."""
    _assert_rows_bit_identical(_tail(mu2, sigma2, k2), d, rows)


@settings(max_examples=30, deadline=None)
@given(
    dists=st.lists(bottom_distributions(), min_size=1, max_size=6),
    mu2=MU,
    sigma2=SIGMA,
    k2=FANOUT,
    d=DEADLINE,
)
def test_batch_bit_identical_fanout_one(dists, mu2, sigma2, k2, d):
    """k1 = 1: F - F**k vanishes, gains only — still the scalar's bits."""
    rows = [(dist, 1) for dist in dists]
    _assert_rows_bit_identical(_tail(mu2, sigma2, k2), d, rows)


@settings(max_examples=30, deadline=None)
@given(
    rows=ROWS, mu2=MU, sigma2=SIGMA, k2=FANOUT, d=DEADLINE, disc=DISCOUNT
)
def test_batch_bit_identical_with_gain_discount(
    rows, mu2, sigma2, k2, d, disc
):
    """The failure-aware discounted sweep batches bit-identically too."""
    _assert_rows_bit_identical(_tail(mu2, sigma2, k2), d, rows, disc)


def test_bottom_far_beyond_deadline_matches_oracle():
    """µ far above log D: F is 0 on the whole grid (erf saturates at -1),
    so every step gains and loses nothing on either path."""
    d = 10.0
    rows = [
        (LogNormal(math.log(d) + 40.0, 0.5), 5),
        (LogNormal(math.log(d) + 40.0, 1e-6), 1),
        (LogNormal(1.0, 0.5), 3),
    ]
    _assert_rows_bit_identical(_tail(1.0, 0.5, 4), d, rows)
    curve = sweep_wait(rows[0][0], 5, QualityGrid(1.0, np.ones(11)))
    assert np.array_equal(curve.quality, np.zeros(11))


def test_quality_grid_values_are_read_only():
    """The sweep terms are cached from ``values``; a write must raise
    rather than leave them stale."""
    grid = WaitOptimizer(_tail(1.0, 0.5, 4), 10.0, grid_points=GRID).tail
    terms = grid.sweep_terms
    with pytest.raises(ValueError):
        grid.values[1] = 0.5
    with pytest.raises(ValueError):
        terms.q_gain[0] = 0.5
    assert grid.sweep_terms is terms


# ----------------------------------------------------------------------
# cache identity properties


@settings(max_examples=40, deadline=None)
@given(mu=MU, sigma=SIGMA, k1=FANOUT, mu2=MU, sigma2=SIGMA, k2=FANOUT, d=DEADLINE)
def test_cache_hit_is_bit_identical_to_its_miss(
    mu, sigma, k1, mu2, sigma2, k2, d
):
    cache = WaitTableCache()
    tail = _tail(mu2, sigma2, k2)
    dist = LogNormal(mu, sigma)
    first = cache.wait_for(tail, d, dist, k1, GRID)
    second = cache.wait_for(tail, d, dist, k1, GRID)
    assert first == second
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


@settings(max_examples=40, deadline=None)
@given(mu=MU, sigma=SIGMA, k1=FANOUT, mu2=MU, sigma2=SIGMA, k2=FANOUT, d=DEADLINE)
def test_cache_value_is_exact_solve_at_representative(
    mu, sigma, k1, mu2, sigma2, k2, d
):
    """What the cache stores IS the scalar optimum of the bucket rep."""
    cache = WaitTableCache()
    tail = _tail(mu2, sigma2, k2)
    dist = LogNormal(mu, sigma)
    cached = cache.wait_for(tail, d, dist, k1, GRID)
    rep = cache.representative(dist)
    rep_deadline = cache.deadline_representative(d)
    exact = WaitOptimizer(tail, rep_deadline, grid_points=GRID).optimize(
        rep, k1
    )
    assert cached == exact
    # the representative deadline is within one relative step of d
    assert abs(math.log(rep_deadline / d)) <= math.log1p(
        cache.config.deadline_rel_step
    ) / 2.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    params=st.lists(
        st.tuples(MU, SIGMA, FANOUT), min_size=1, max_size=8
    ),
    mu2=MU,
    sigma2=SIGMA,
    k2=FANOUT,
    d=DEADLINE,
)
def test_prewarm_stores_same_bits_as_on_demand(params, mu2, sigma2, k2, d):
    tail = _tail(mu2, sigma2, k2)
    entries = [
        (tail, d, LogNormal(mu, sigma), k1, GRID) for mu, sigma, k1 in params
    ]
    warmed = WaitTableCache()
    warmed.prewarm(entries)
    lazy = WaitTableCache()
    for tail_stages, deadline, dist, k1, grid in entries:
        assert warmed.wait_for(
            tail_stages, deadline, dist, k1, grid
        ) == lazy.wait_for(tail_stages, deadline, dist, k1, grid)
    # everything prewarm stored was hit, never re-missed
    assert warmed.stats()["misses"] == warmed.stats()["solved_rows"]


@settings(max_examples=20, deadline=None)
@given(
    x=bottom_distributions(),
    k1=FANOUT,
    mu2=MU,
    sigma2=SIGMA,
    k2=FANOUT,
    d=DEADLINE,
)
def test_non_lognormal_families_solved_exactly_uncached(
    x, k1, mu2, sigma2, k2, d
):
    """Weibull/mixture lookups bypass quantization: exact, not memoized.

    (Log-normal draws go through the bucket instead — their reference is
    the representative solve, pinned separately above — so the exactness
    assertion here only bites on the non-quantized families.)
    """
    cache = WaitTableCache()
    tail = _tail(mu2, sigma2, k2)
    got = cache.wait_for(tail, d, x, k1, GRID)
    rep_deadline = cache.deadline_representative(d)
    reference = x if not isinstance(x, LogNormal) else cache.representative(x)
    exact = WaitOptimizer(tail, rep_deadline, grid_points=GRID).optimize(
        reference, k1
    )
    assert got == exact
    if not isinstance(x, LogNormal):
        assert cache.stats()["uncached"] == 1
        assert cache.stats()["wait_entries"] == 0


# ----------------------------------------------------------------------
# validation edges (plain tests, not properties)


def test_empty_batch_and_validation_errors():
    tail = _tail(2.0, 0.5, 4)
    solver = BatchWaitSolver(tail, 10.0, grid_points=GRID)
    assert solver.solve([], []).shape == (0,)
    with pytest.raises(ConfigError):
        solver.solve([LogNormal(1.0, 0.5)], [])
    with pytest.raises(ConfigError):
        solver.solve([LogNormal(1.0, 0.5)], [0])
    with pytest.raises(ConfigError):
        solver.solve([LogNormal(1.0, 0.5)], [2], gain_discount=0.0)
    with pytest.raises(ConfigError):
        BatchWaitSolver(tail, 0.0, grid_points=GRID)
    with pytest.raises(ConfigError):
        WaitCacheConfig(mu_step=0.0)
    with pytest.raises(ConfigError):
        WaitCacheConfig(deadline_rel_step=-0.1)
    cache = WaitTableCache()
    assert cache.wait_for(tail, 0.0, LogNormal(1.0, 0.5), 2, GRID) == 0.0
    with pytest.raises(ConfigError):
        cache.wait_for(tail, 5.0, LogNormal(1.0, 0.5), 0, GRID)
    with pytest.raises(ConfigError):
        cache.deadline_representative(0.0)


def test_sigma_floor_bucket_never_degenerates():
    cache = WaitTableCache(WaitCacheConfig(sigma_step=0.1))
    rep = cache.representative(LogNormal(1.0, 1e-9))
    assert rep.sigma == 0.1  # rounded up to the first bucket, not 0
