"""Isolated timings of single public calls on fixed inputs.

The inputs come from the workloads, drawn with the default seed whatever
seed the run was given, so these numbers compare across runs:

* ``layer.sweep_us``: ``WaitOptimizer.optimize`` on the pinned serve tree
  (D=60, grid 96, bottom LogNormal(3.0, 0.8), k=4), tail grid prebuilt;
* ``layer.estimate_k50_us``: ``OrderStatisticEstimator.estimate`` on the
  earliest 25 of 50 Facebook map durations (k=50, the Fig 13 fan-out);
* ``layer.cache_hit_us``: a ``WaitTableCache.wait_for`` hit on the same
  serve inputs as the sweep;
* ``layer.tracker_observe_us``: ``DistributionTracker.observe`` with the
  warm-start store's tracker settings, refits included.

Each is the median over several batches of the mean time per call,
each batch normalized to the reference host speed (``hostspeed``).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from repro.core.wait import WaitOptimizer
from repro.core.waitbatch import WaitCacheConfig, WaitTableCache
from repro.distributions import LogNormal
from repro.estimation import DistributionTracker, OrderStatisticEstimator
from repro.serve import pinned_config, pinned_workload
from repro.traces import facebook_workload

from hostspeed import HostSpeed

BATCHES = 5


def _per_call_us(host: HostSpeed, calls: int, batch: Callable[[], None]) -> float:
    """Median over ``BATCHES`` runs of ``batch`` (which makes ``calls``
    calls) of the normalized mean microseconds per call."""
    means = []
    for _ in range(BATCHES):
        host.sample(2)
        start = time.perf_counter()
        batch()
        end = time.perf_counter()
        host.sample(2)
        slowdown = host.slowdown_between(start, end)
        means.append((end - start) / slowdown / calls * 1e6)
    return statistics.median(means)


def isolated_layer_timings(seed: int, host: HostSpeed) -> dict[str, float]:
    serve_tree = pinned_workload().offline_tree()
    tail = serve_tree.stages[1:]
    k_serve = serve_tree.stages[0].fanout
    x1 = LogNormal(3.0, 0.8)
    grid = pinned_config().grid_points
    deadline = 60.0

    optimizer = WaitOptimizer(tail, deadline, grid)
    optimizer.optimize(x1, k_serve)

    def sweeps() -> None:
        for _ in range(200):
            optimizer.optimize(x1, k_serve)

    rng = np.random.default_rng(seed)
    maps = facebook_workload().offline_tree().stages[0].duration
    arrivals = np.sort(np.asarray(maps.sample(50, seed=rng), dtype=float))[:25].tolist()
    estimator = OrderStatisticEstimator()
    estimator.estimate(arrivals, 50)

    def estimates() -> None:
        for _ in range(200):
            estimator.estimate(arrivals, 50)

    cache = WaitTableCache(WaitCacheConfig())
    cache.wait_for(tail, deadline, x1, k_serve, grid)

    def hits() -> None:
        for _ in range(2000):
            cache.wait_for(tail, deadline, x1, k_serve, grid)

    durations = np.asarray(x1.sample(2048, seed=rng), dtype=float).tolist()

    def observes() -> None:
        tracker = DistributionTracker(
            window=512, refit_every=64, min_samples=64, candidates=("lognormal",)
        )
        for d in durations:
            tracker.observe(d)

    return {
        "layer.sweep_us": _per_call_us(host, 200, sweeps),
        "layer.estimate_k50_us": _per_call_us(host, 200, estimates),
        "layer.cache_hit_us": _per_call_us(host, 2000, hits),
        "layer.tracker_observe_us": _per_call_us(host, len(durations), observes),
    }
