"""Microbenchmarks of the hot paths.

§5.2 claims "Cedar's algorithm also completes within tens of milliseconds
even without the parallelization proposed in §4.3.3" — these benches hold
our implementation to the same bar: a full online re-plan (estimate +
CALCULATEWAIT sweep) must be far under 10 ms at the default grid.

§4.3.3 — "one can simply precompute these wait-durations for recorded
distributions": the quantized :class:`~repro.core.WaitTableCache` must
answer within 5% of the deadline of the exact sweep over the probe box,
and a hot lookup is a dict probe next to the live sweep's cost.
"""

import numpy as np
import pytest

from repro.core import Stage, TreeSpec, WaitOptimizer, WaitTableCache, calculate_wait
from repro.distributions import LogNormal, Weibull
from repro.estimation import OrderStatisticEstimator, StreamingEstimator

X1 = LogNormal(6.0, 0.84)
X2 = LogNormal(4.7, 0.5)
DEADLINE = 1000.0
TAIL = [Stage(X2, 50)]
K = 50
MU_RANGE = (3.0, 9.0)
SIGMA_RANGE = (0.3, 2.0)
#: accuracy budget for a precomputed answer: within 5% of D.
MAX_ERR = 0.05 * DEADLINE


@pytest.fixture(scope="module")
def optimizer():
    return WaitOptimizer(TAIL, DEADLINE, grid_points=512)


@pytest.mark.parametrize(
    "bottom",
    [X1, Weibull(k=1.2, lam=X1.mean())],
    ids=["lognormal", "weibull"],
)
def test_wait_sweep_latency(benchmark, optimizer, bottom):
    """One vectorized CALCULATEWAIT sweep (the per-arrival re-plan): the
    log-normal CDF from the tail's cached log grid, and the generic
    ``cdf`` path every other family takes."""
    wait = benchmark(lambda: optimizer.optimize(bottom, 50))
    assert 0.0 <= wait <= DEADLINE
    assert benchmark.stats["mean"] < 0.010  # the paper's tens-of-ms bar


def test_full_replan_latency(benchmark, optimizer):
    """Estimate from 10 arrivals + sweep: the whole PROCESSHANDLER cost."""
    est = OrderStatisticEstimator("lognormal")
    rng = np.random.default_rng(0)
    arrivals = np.sort(X1.sample(50, seed=rng))[:10]

    def replan():
        dist = est.estimate(arrivals, 50).to_distribution()
        return optimizer.optimize(dist, 50)

    benchmark(replan)
    assert benchmark.stats["mean"] < 0.010


def test_streaming_estimate_latency(benchmark):
    """Observe and re-estimate at each of k=50 arrivals: one aggregator's
    whole online fit, folded in O(1) per arrival."""
    est = OrderStatisticEstimator("lognormal")
    rng = np.random.default_rng(0)
    arrivals = np.sort(X1.sample(K, seed=rng)).tolist()

    def stream_fit():
        stream = StreamingEstimator(est, K)
        for t in arrivals:
            stream.observe(t)
            if stream.ready:
                stream.estimate()
        return stream.estimate()

    fit = benchmark(stream_fit)
    assert fit.n_observed == K
    assert benchmark.stats["mean"] < 0.010


def test_scalar_pseudocode2_latency(benchmark):
    """The readable serial sweep (reference implementation)."""
    tree = TreeSpec.two_level(X1, 50, X2, 50)
    benchmark.pedantic(
        lambda: calculate_wait(tree, DEADLINE, epsilon=DEADLINE / 512),
        rounds=3,
        iterations=1,
    )


def test_optimizer_construction_latency(benchmark):
    """Building the tail quality grid (once per deadline, cached after)."""
    benchmark(lambda: WaitOptimizer([Stage(X2, 50)], DEADLINE, grid_points=512))


def test_simulate_query_throughput(benchmark):
    """End-to-end single-query simulation with adaptive Cedar."""
    from repro.core import CedarPolicy, QueryContext
    from repro.simulation import simulate_query

    tree = TreeSpec.two_level(X1, 50, X2, 50)
    ctx = QueryContext(deadline=DEADLINE, offline_tree=tree, true_tree=tree)
    policy = CedarPolicy(grid_points=256)
    benchmark.pedantic(
        lambda: simulate_query(ctx, policy, seed=1, agg_sample=5),
        rounds=3,
        iterations=1,
    )


def test_cluster_query_throughput(benchmark):
    """End-to-end deployed query on the miniature cluster."""
    from repro.cluster import Deployment, DeploymentConfig
    from repro.core import CedarPolicy

    dep = Deployment(DeploymentConfig(profile_queries=5), seed=3)
    dep.offline_tree()
    policy = CedarPolicy(grid_points=256)
    benchmark.pedantic(
        lambda: dep.run_query(policy, deadline=DEADLINE, rng=7),
        rounds=3,
        iterations=1,
    )


def test_cache_lookup_latency_and_error_bound(benchmark, optimizer):
    """The online quantized cache meets the precomputation budget: the
    worst |cached - exact| wait over the probe box stays within 5% of
    the deadline, and a hot lookup is a dict probe."""
    cache = WaitTableCache()
    dist = LogNormal(6.1, 0.9)
    cache.wait_for(TAIL, DEADLINE, dist, K, 512)  # populate the bucket
    wait = benchmark(lambda: cache.wait_for(TAIL, DEADLINE, dist, K, 512))
    assert 0.0 <= wait <= cache.deadline_representative(DEADLINE)
    err = cache.max_abs_error_vs(
        optimizer, K, mu_range=MU_RANGE, sigma_range=SIGMA_RANGE,
        probe_points=32,
    )
    assert err <= MAX_ERR


def test_live_sweep_latency(benchmark, optimizer):
    dist = LogNormal(6.1, 0.9)
    benchmark(lambda: optimizer.optimize(dist, K))
