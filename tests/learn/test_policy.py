"""Serving-side learned policy: lookups, guarded fallback, accounting."""

import pytest

from repro.core import AdaptiveController, QueryContext, TreeSpec, WaitOptimizer
from repro.distributions import LogNormal
from repro.errors import ConfigError
from repro.estimation import OrderStatisticEstimator
from repro.learn.policy import (
    FALLBACK_DRIFT,
    FALLBACK_OOD,
    LearnedController,
    LearnedPolicyStats,
    LearnedWaitPolicy,
)
from repro.learn.table import load_table
from repro.serve.warmstart import CedarWarmPolicy, WarmStartStore

GRID = 48
K1 = 6
DEADLINE = 60.0


def make_ctx(mu=3.0, sigma=0.8):
    tree = TreeSpec.two_level(
        LogNormal(mu, sigma), K1, LogNormal(2.2, 0.35), 4
    )
    return QueryContext(deadline=DEADLINE, offline_tree=tree, true_tree=tree)


def make_policy(store=None):
    return LearnedWaitPolicy(
        load_table(), store=store or WarmStartStore(), grid_points=GRID
    )


class TestLookupPath:
    def test_in_envelope_query_is_served_by_the_table(self):
        policy = make_policy()
        ctx = make_ctx()
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        assert not controller.fell_back
        assert policy.stats.decisions == 1
        assert policy.stats.lookups == 1
        assert policy.stats.fallbacks == 0
        assert 0.0 <= controller.stop_time <= DEADLINE

    def test_bottom_level_gets_a_learned_controller(self):
        policy = make_policy()
        ctx = make_ctx()
        policy.begin_query(ctx)
        assert isinstance(policy.controller(ctx, 1), LearnedController)

    def test_all_arrivals_ship_immediately(self):
        policy = make_policy()
        ctx = make_ctx()
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        for i in range(K1):
            controller.on_arrival(float(i + 1))
        assert controller.n_received == K1
        assert controller.stop_time == float(K1)  # last arrival, not a wait

    def test_decision_accounting_over_one_query(self):
        policy = make_policy()
        ctx = make_ctx()
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        for i in range(K1):
            controller.on_arrival(float(i + 1))
        stats = policy.stats
        assert stats.decisions == 1 + K1
        # every decision is a lookup except the ship-immediately one at
        # the final arrival (no planning happens there).
        assert stats.lookups == K1
        assert stats.fallbacks == 0
        assert stats.fallback_decisions == 0
        assert stats.fallback_rate == 0.0

    def test_policy_is_registered_by_name(self):
        assert make_policy().name == "cedar-learned"


class TestOODFallback:
    def test_out_of_envelope_regime_falls_back_immediately(self):
        policy = make_policy()
        ctx = make_ctx(mu=30.0)  # far outside the trained envelope
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        assert controller.fell_back
        assert policy.stats.lookups == 0
        assert policy.stats.fallbacks == 1
        assert policy.stats.reasons == {FALLBACK_OOD: 1}

    def test_fallback_stop_time_matches_exact_cedar(self):
        # the guard is only safe if the fallback really is Cedar: the
        # delegated controller's initial plan must equal what a fresh
        # warm Cedar policy would have planned for the same query.
        ctx = make_ctx(mu=30.0)
        learned = make_policy()
        learned.begin_query(ctx)
        fallen = learned.controller(ctx, 1)
        exact = CedarWarmPolicy(store=WarmStartStore(), grid_points=GRID)
        exact.begin_query(ctx)
        reference = exact.controller(ctx, 1)
        assert fallen.fell_back
        assert fallen.stop_time == reference.stop_time

    def test_fallback_decisions_are_counted_per_arrival(self):
        policy = make_policy()
        ctx = make_ctx(mu=30.0)
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        controller.on_arrival(1.0)
        controller.on_arrival(2.0)
        assert policy.stats.fallback_decisions == 3  # up-front + 2 arrivals
        assert policy.stats.fallback_rate == 1.0


class TestMidQueryFallback:
    """An arrival that leaves the envelope mid-query hands the query to
    exact Cedar as if Cedar had served every arrival so far."""

    @pytest.mark.parametrize(
        "warm_prior, arrivals",
        [
            (None, (2.0, 5.0, 40.0)),
            ((3.0, 0.8), (1.0, 2.0, 3.0, 4.0, 59.0)),
        ],
        ids=["cold", "warm"],
    )
    def test_switch_matches_a_fresh_adaptive_controller(
        self, warm_prior, arrivals
    ):
        store = WarmStartStore()
        if warm_prior is not None:
            store.observe_query("default", [warm_prior[0]], [warm_prior[1]])
        policy = make_policy(store)
        ctx = make_ctx()
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        for t in arrivals[:-1]:
            controller.on_arrival(t)
        assert not controller.fell_back
        controller.on_arrival(arrivals[-1])
        assert controller.fell_back
        assert policy.stats.reasons == {FALLBACK_OOD: 1}
        assert policy.stats.decisions == 1 + len(arrivals)
        assert policy.stats.fallback_decisions == 1

        prior = store.prior("default")
        reference = AdaptiveController(
            estimator=OrderStatisticEstimator(family="lognormal"),
            optimizer=WaitOptimizer(ctx.offline_tree.stages[1:], DEADLINE, GRID),
            k=K1,
            deadline=DEADLINE,
            min_samples=(
                policy.min_samples if prior is None else policy.warm_min_samples
            ),
            prior=prior,
        )
        for t in arrivals:
            reference.on_arrival(t)
        assert controller.stop_time == reference.stop_time
        assert controller.last_estimate == reference.last_estimate
        assert controller.online_estimate() is not None
        assert controller.online_estimate() == reference.online_estimate()
        assert controller.n_received == len(arrivals)


class TestDriftFallback:
    def _drifted_store(self, key):
        store = WarmStartStore()
        store.observe_query(key=key, mus=[3.0], sigmas=[0.1])
        # a >3-sigma jump in the harvested estimate forces a drift reset
        store.observe_query(key=key, mus=[3.45], sigmas=[0.1])
        assert store.resets_for(key) == 1
        return store

    def test_fresh_drift_reset_forces_the_exact_fallback(self):
        store = self._drifted_store("tenant")
        policy = make_policy(store)
        policy.current_key = "tenant"
        ctx = make_ctx()
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        assert controller.fell_back
        assert policy.stats.reasons == {FALLBACK_DRIFT: 1}

    def test_next_query_returns_to_the_table(self):
        store = self._drifted_store("tenant")
        policy = make_policy(store)
        policy.current_key = "tenant"
        ctx = make_ctx()
        policy.begin_query(ctx)
        policy.controller(ctx, 1)  # consumes the reset signal
        policy.begin_query(ctx)
        second = policy.controller(ctx, 1)
        assert not second.fell_back
        assert policy.stats.lookups == 1


class TestHarvest:
    def test_harvest_feeds_the_warm_start_store(self):
        store = WarmStartStore()
        policy = make_policy(store)
        policy.current_key = "tenant"
        ctx = make_ctx()
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        for t in (8.0, 11.0, 13.0, 17.0):
            controller.on_arrival(t)
        policy.harvest()
        snap = store.snapshot()["tenant"]
        assert snap["n_queries"] == 1
        assert snap["tracker_samples"] == 4
        assert snap["mu"] is not None  # the online estimate was folded in

    def test_second_query_starts_from_the_harvested_prior(self):
        store = WarmStartStore()
        policy = make_policy(store)
        policy.current_key = "tenant"
        ctx = make_ctx()
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        for t in (8.0, 11.0, 13.0, 17.0):
            controller.on_arrival(t)
        policy.harvest()
        prior = store.prior("tenant")
        assert prior is not None
        policy.begin_query(ctx)
        warm = policy.controller(ctx, 1)
        est = warm.last_estimate
        assert (est.mu, est.sigma) == (prior.mu, prior.sigma)


class TestControllerValidation:
    def _kwargs(self, **overrides):
        table = load_table()
        kwargs = dict(
            table=table,
            featurizer=table.featurizer(),
            k=K1,
            deadline=DEADLINE,
            regime=LogNormal(3.0, 0.8),
            estimator=OrderStatisticEstimator(),
            fallback_factory=lambda: pytest.fail("fallback built eagerly"),
            stats=LearnedPolicyStats(),
        )
        kwargs.update(overrides)
        return kwargs

    def test_rejects_bad_deadline_and_fanout(self):
        with pytest.raises(ConfigError):
            LearnedController(**self._kwargs(deadline=0.0))
        with pytest.raises(ConfigError):
            LearnedController(**self._kwargs(k=0))

    def test_rejects_min_samples_below_estimator_floor(self):
        estimator = OrderStatisticEstimator()
        with pytest.raises(ConfigError):
            LearnedController(
                **self._kwargs(
                    estimator=estimator,
                    min_samples=estimator.min_samples - 1,
                )
            )

    def test_rejects_bad_reoptimize_cadence(self):
        with pytest.raises(ConfigError):
            LearnedController(**self._kwargs(reoptimize_every=0))
