"""Fully-adaptive multi-level Cedar (extension)."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveController,
    CedarDeepPolicy,
    CedarPolicy,
    ProportionalSplitPolicy,
    QueryContext,
    Stage,
    TreeSpec,
    WaitTableCache,
)
from repro.distributions import LogNormal
from repro.simulation import run_experiment
from repro.traces.base import LogNormalStageSpec, LogNormalWorkload

THREE = TreeSpec(
    [
        Stage(LogNormal(1.0, 0.8), 6),
        Stage(LogNormal(0.5, 0.5), 5),
        Stage(LogNormal(0.3, 0.4), 4),
    ]
)
CTX = QueryContext(deadline=20.0, offline_tree=THREE, true_tree=THREE)


class TestControllers:
    def test_adaptive_at_every_level(self):
        policy = CedarDeepPolicy(grid_points=96)
        for level in (1, 2):
            c = policy.controller(CTX, level)
            assert isinstance(c, AdaptiveController)
            assert c.stop_time == 20.0

    def test_level_fanins(self):
        policy = CedarDeepPolicy(grid_points=96)
        # level-2 aggregators combine k2 = 5 inputs
        c2 = policy.controller(CTX, 2)
        for t in (0.5, 1.0, 2.0, 3.0, 4.0):
            c2.on_arrival(t)
        # all 5 arrived -> ship immediately
        assert c2.stop_time == 4.0

    def test_optimizer_cache_shared(self):
        policy = CedarDeepPolicy(grid_points=96)
        policy.controller(CTX, 1)
        policy.controller(CTX, 2)
        policy.controller(CTX, 1)
        policy.controller(CTX, 2)
        assert len(policy._optimizers) == 2  # one tail per level

    def test_wait_cache_serves_upper_level_replans(self):
        cache = WaitTableCache()
        policy = CedarDeepPolicy(grid_points=96, wait_cache=cache)
        c2 = policy.controller(CTX, 2)

        def lookups():
            stats = cache.stats()
            return stats["hits"] + stats["misses"] + stats["uncached"]

        before = lookups()
        for t in (0.5, 1.0, 2.0):
            c2.on_arrival(t)
        assert lookups() > before


class TestBehaviour:
    def _workload(self, upper_jitter):
        return LogNormalWorkload(
            [
                LogNormalStageSpec(mu=1.5, sigma=0.8, fanout=8, mu_jitter=1.0),
                LogNormalStageSpec(
                    mu=0.6, sigma=0.5, fanout=6, mu_jitter=upper_jitter
                ),
                LogNormalStageSpec(mu=0.4, sigma=0.4, fanout=4, mu_jitter=0.05),
            ],
            name="deep-test",
            history_queries=40,
            history_samples_per_query=20,
        )

    def test_matches_plain_cedar_when_upper_stable(self):
        workload = self._workload(upper_jitter=0.0)
        res = run_experiment(
            workload,
            [CedarPolicy(grid_points=96), CedarDeepPolicy(grid_points=96)],
            deadline=25.0,
            n_queries=8,
            seed=6,
            agg_sample=6,
        )
        assert res.mean_quality("cedar-deep") == pytest.approx(
            res.mean_quality("cedar"), abs=0.08
        )

    def test_competitive_when_upper_drifts(self):
        workload = self._workload(upper_jitter=0.8)
        res = run_experiment(
            workload,
            [
                ProportionalSplitPolicy(),
                CedarPolicy(grid_points=96),
                CedarDeepPolicy(grid_points=96),
            ],
            deadline=25.0,
            n_queries=10,
            seed=6,
            agg_sample=6,
        )
        deep = res.mean_quality("cedar-deep")
        assert deep >= res.mean_quality("proportional-split") - 0.05
        assert deep >= res.mean_quality("cedar") - 0.1
