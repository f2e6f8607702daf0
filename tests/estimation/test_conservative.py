"""Confidence-aware (conservative) estimation."""

import numpy as np
import pytest

from repro.distributions import LogNormal
from repro.errors import EstimationError
from repro.estimation import (
    ConservativeEstimator,
    OrderStatisticEstimator,
    StreamingEstimator,
)


@pytest.fixture
def arrivals(rng):
    return np.sort(LogNormal(2.0, 0.8).sample(40, seed=rng))[:8]


class TestStandardErrors:
    def test_stderr_reported(self, arrivals):
        est = OrderStatisticEstimator("lognormal")
        fit = est.estimate(arrivals, 40)
        assert fit.mu_stderr > 0.0
        assert fit.sigma_stderr > 0.0

    def test_stderr_shrinks_with_samples(self, rng):
        est = OrderStatisticEstimator("lognormal")
        draws = np.sort(LogNormal(2.0, 0.8).sample((60, 40), seed=rng), axis=1)
        small = np.mean([est.estimate(d[:4], 40).mu_stderr for d in draws])
        large = np.mean([est.estimate(d[:30], 40).mu_stderr for d in draws])
        assert large < small


class TestConservativeEstimator:
    def test_shades_mu_down_by_default(self, arrivals):
        inner = OrderStatisticEstimator("lognormal")
        cons = ConservativeEstimator(inner, z_mu=-1.0)
        base = inner.estimate(arrivals, 40)
        shaded = cons.estimate(arrivals, 40)
        assert shaded.mu == pytest.approx(base.mu - base.mu_stderr)
        assert shaded.sigma == base.sigma

    def test_positive_z_shades_up(self, arrivals):
        inner = OrderStatisticEstimator("lognormal")
        cons = ConservativeEstimator(inner, z_mu=2.0, z_sigma=1.0)
        base = inner.estimate(arrivals, 40)
        shaded = cons.estimate(arrivals, 40)
        assert shaded.mu > base.mu
        assert shaded.sigma > base.sigma

    def test_sigma_floor(self, arrivals):
        inner = OrderStatisticEstimator("lognormal")
        cons = ConservativeEstimator(inner, z_mu=0.0, z_sigma=-5.0)
        shaded = cons.estimate(arrivals, 40)
        assert shaded.sigma > 0.0

    def test_method_provenance(self, arrivals):
        cons = ConservativeEstimator(OrderStatisticEstimator("lognormal"))
        assert "conservative" in cons.estimate(arrivals, 40).method

    def test_extreme_z_rejected(self):
        with pytest.raises(EstimationError):
            ConservativeEstimator(OrderStatisticEstimator("lognormal"), z_mu=10.0)

    def test_plugs_into_cedar_policy(self):
        from repro.core import CedarPolicy, QueryContext, TreeSpec
        from repro.simulation import simulate_query

        tree = TreeSpec.two_level(LogNormal(1.0, 0.8), 15, LogNormal(0.5, 0.5), 8)
        ctx = QueryContext(deadline=15.0, offline_tree=tree, true_tree=tree)
        policy = CedarPolicy(
            lambda: ConservativeEstimator(
                OrderStatisticEstimator("lognormal"), z_mu=-1.0
            ),
            grid_points=96,
        )
        res = simulate_query(ctx, policy, seed=1)
        assert 0.0 <= res.quality <= 1.0


class _CountingEstimator(OrderStatisticEstimator):
    """Counts batch fits, to show the streaming path never makes one."""

    batch_calls = 0

    def estimate(self, arrivals, k):
        self.batch_calls += 1
        return super().estimate(arrivals, k)


class TestConservativeStreaming:
    @pytest.mark.parametrize("z_mu,z_sigma", [(-1.0, 0.0), (2.0, 1.0), (0.0, -5.0)])
    def test_streaming_equals_batch_bit_for_bit(self, rng, z_mu, z_sigma):
        cons = ConservativeEstimator(
            OrderStatisticEstimator("lognormal"), z_mu=z_mu, z_sigma=z_sigma
        )
        arrivals = np.sort(LogNormal(2.0, 0.8).sample(40, seed=rng)).tolist()
        stream = StreamingEstimator(cons, 40)
        for r, t in enumerate(arrivals, start=1):
            stream.observe(t)
            if r >= 2:
                got, want = stream.estimate(), cons.estimate(arrivals[:r], 40)
                assert got == want
                assert (got.mu.hex(), got.sigma.hex()) == (want.mu.hex(), want.sigma.hex())

    def test_streaming_folds_instead_of_refitting(self, arrivals):
        inner = _CountingEstimator("lognormal")
        stream = StreamingEstimator(ConservativeEstimator(inner), 40)
        for t in arrivals:
            stream.observe(float(t))
            if stream.ready:
                stream.estimate()
        assert inner.batch_calls == 0
