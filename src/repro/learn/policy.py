"""Serving-side learned wait policy: one table lookup per decision.

:class:`LearnedWaitPolicy` is a drop-in :class:`~repro.core.WaitPolicy`
(and a :class:`~repro.serve.warmstart.CedarWarmPolicy`, so the serving
frontend's ``current_key``/``harvest`` hooks and warm-start store keep
working) whose bottom-level controllers answer every wait decision by

1. featurizing the live state — current regime estimate, arrivals so
   far, elapsed deadline fraction (:mod:`repro.learn.features`);
2. reading the trained wait fraction out of the
   :class:`~repro.learn.table.LearnedWaitTable` — **O(1)**: no
   CALCULATEWAIT sweep, no tail-grid build, not even on a cold bucket;
3. clamping to ``[now, deadline]``, exactly like the adaptive controller.

The lookup is *guarded*: when the observed state leaves the trained
envelope (out-of-distribution bucket) or the warm-start store just
recorded a drift reset for this workload key, the controller builds the
exact Cedar :class:`~repro.core.aggregator.AdaptiveController`, replays
every arrival it has seen into it, and delegates from then on — the
learned path can be wrong only where it was trained, never silently
outside it. Fallback counts are tracked per policy and surfaced in serve
reports.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.aggregator import AdaptiveController, AggregatorController
from ..core.policies import QueryContext
from ..core.quality import DEFAULT_GRID_POINTS
from ..core.waitbatch import WaitCacheLike
from ..distributions import Distribution
from ..estimation import Estimator
from ..obs.profile import PROFILER
from ..serve.warmstart import CedarWarmPolicy, WarmStartStore
from .features import StateFeaturizer
from .table import LearnedWaitTable

__all__ = ["LearnedPolicyStats", "LearnedController", "LearnedWaitPolicy"]

#: fallback causes, as they appear in stats/report dicts.
FALLBACK_OOD = "ood"
FALLBACK_DRIFT = "drift_reset"


class LearnedPolicyStats:
    """Decision accounting for one policy instance."""

    __slots__ = ("decisions", "lookups", "fallbacks", "fallback_decisions", "reasons")

    def __init__(self) -> None:
        #: planning points: one up-front per controller plus one per arrival.
        self.decisions = 0
        #: decisions answered by a table lookup.
        self.lookups = 0
        #: controllers that switched to the exact Cedar fallback.
        self.fallbacks = 0
        #: decisions delegated to the fallback controller.
        self.fallback_decisions = 0
        self.reasons: dict[str, int] = {}

    @property
    def fallback_rate(self) -> float:
        return self.fallback_decisions / self.decisions if self.decisions else 0.0

    def count_fallback(self, reason: str) -> None:
        self.fallbacks += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def as_dict(self) -> dict[str, object]:
        return {
            "decisions": self.decisions,
            "lookups": self.lookups,
            "fallbacks": self.fallbacks,
            "fallback_decisions": self.fallback_decisions,
            "fallback_rate": self.fallback_rate,
            "reasons": {k: self.reasons[k] for k in sorted(self.reasons)},
        }


class LearnedController(AdaptiveController):
    """One aggregator's controller: table lookups with a guarded fallback.

    An :class:`~repro.core.aggregator.AdaptiveController` with the same
    estimation cadence — the online fit takes over the regime estimate
    after ``min_samples`` arrivals, refreshed every ``reoptimize_every``-th
    — that plans at *every* arrival (the table is O(1)) and plans each
    stop with one lookup instead of a wait sweep. The initial ``regime``
    plays the prior's part: it is the first estimate and does not count
    as an online one.
    """

    def __init__(
        self,
        table: LearnedWaitTable,
        featurizer: StateFeaturizer,
        k: int,
        deadline: float,
        regime: Optional[Distribution],
        estimator: Estimator,
        fallback_factory: Callable[[], AdaptiveController],
        stats: LearnedPolicyStats,
        min_samples: int = 2,
        reoptimize_every: int = 1,
        force_fallback: Optional[str] = None,
    ):
        # the table lookup replaces the sweep, so no optimizer is needed;
        # the regime is installed after the base init so the up-front
        # decision runs through the accounting below, not a prior plan.
        super().__init__(
            estimator,
            None,  # type: ignore[arg-type]
            k,
            deadline,
            min_samples=min_samples,
            reoptimize_every=reoptimize_every,
        )
        self._table = table
        self._featurizer = featurizer
        self._fallback_factory = fallback_factory
        self._stats = stats
        self._fallback: Optional[AdaptiveController] = None
        self._last_estimate = self._initial_estimate = regime

        self._stats.decisions += 1
        if force_fallback is not None:
            self._activate_fallback(force_fallback)
        else:
            self._plan(0.0)

    # ------------------------------------------------------------------
    @property
    def stop_time(self) -> float:
        if self._fallback is not None:
            return self._fallback.stop_time
        return self._stop

    @property
    def last_estimate(self) -> Optional[Distribution]:
        if self._fallback is not None:
            return self._fallback.last_estimate
        return self._last_estimate

    @property
    def fell_back(self) -> bool:
        return self._fallback is not None

    # ------------------------------------------------------------------
    def _activate_fallback(self, reason: str) -> None:
        """Switch to exact Cedar: replay every arrival into a fresh
        controller, which also answers the decision being made now."""
        fallback = self._fallback_factory()
        for t in self.arrivals:
            fallback.on_arrival(t)
        self._fallback = fallback
        self._stats.count_fallback(reason)
        self._stats.fallback_decisions += 1

    def _plan(self, now: float) -> None:
        """One wait decision at absolute time ``now``: featurize, look
        the wait fraction up, clamp — or fall back when out of envelope."""
        mu = getattr(self._last_estimate, "mu", None)
        sigma = getattr(self._last_estimate, "sigma", None)
        if mu is None or sigma is None:
            self._activate_fallback(FALLBACK_OOD)
            return
        index = self._featurizer.state_index(
            float(mu),
            float(sigma),
            self.n_received,
            self._k,
            now,
            self._deadline,
        )
        if index is None:
            self._activate_fallback(FALLBACK_OOD)
            return
        tok = PROFILER.start()
        fraction = self._table.wait_fraction(index)
        PROFILER.stop("learn.policy.lookup", tok)
        self._stats.lookups += 1
        self._stop = min(max(fraction * self._deadline, now), self._deadline)

    def _refit(self, fed: bool) -> bool:
        super()._refit(fed)
        return True

    def on_arrival(self, t: float) -> None:
        self._stats.decisions += 1
        if self._fallback is None:
            super().on_arrival(t)
            return
        self.arrivals.append(t)
        self._stats.fallback_decisions += 1
        self._fallback.on_arrival(t)


class LearnedWaitPolicy(CedarWarmPolicy):
    """Cedar-compatible policy serving wait decisions from a trained table.

    Bottom-level aggregators get a :class:`LearnedController`; upper
    levels keep Cedar's static offline schedule (optionally through the
    shared :class:`~repro.core.waitbatch.WaitTableCache`). The warm-start
    store supplies the initial regime estimate per workload key and the
    drift-reset signal that forces a query onto the exact fallback.
    """

    name = "cedar-learned"

    def __init__(
        self,
        table: LearnedWaitTable,
        store: Optional[WarmStartStore] = None,
        estimator_factory: Optional[Callable[[], Estimator]] = None,
        grid_points: int = DEFAULT_GRID_POINTS,
        min_samples: int = 2,
        warm_min_samples: int = 5,
        reoptimize_every: int = 1,
        wait_cache: WaitCacheLike = None,
    ):
        super().__init__(
            store=store,
            estimator_factory=estimator_factory,
            grid_points=grid_points,
            min_samples=min_samples,
            warm_min_samples=warm_min_samples,
            reoptimize_every=reoptimize_every,
            wait_cache=wait_cache,
        )
        self.table = table
        self.stats = LearnedPolicyStats()
        self._featurizer = table.featurizer()
        self._seen_resets: dict[str, int] = {}

    # ------------------------------------------------------------------
    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        if level != 1:
            return super().controller(ctx, level)
        key = self.current_key
        prior = self.store.prior(key)
        resets = self.store.resets_for(key)
        drifted = resets > self._seen_resets.get(key, 0)
        self._seen_resets[key] = resets
        regime = (
            prior if prior is not None else ctx.offline_tree.stages[0].duration
        )
        controller = LearnedController(
            table=self.table,
            featurizer=self._featurizer,
            k=ctx.offline_tree.stages[0].fanout,
            deadline=ctx.deadline,
            regime=regime,
            estimator=self._estimator_factory(),
            fallback_factory=lambda: self._adaptive(ctx, 1, prior),
            stats=self.stats,
            min_samples=self._min_samples_for(prior),
            reoptimize_every=self.reoptimize_every,
            force_fallback=FALLBACK_DRIFT if drifted else None,
        )
        self._controllers.append(controller)
        return controller
