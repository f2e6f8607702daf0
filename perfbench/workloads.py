"""The four benchmark workloads.

A run is a sequence of *rounds*. Round 0 serves the reference inputs
generated from the run's seed; round ``i > 0`` serves fresh inputs from
a seed derived from ``(seed, i)``, so a run averages its wall-clock
figures over many inputs instead of one. Each workload has four phases:

* ``setup()`` generates round 0's inputs, builds the program objects and
  runs a short warm-up that fills process-wide lazy caches (set-up time);
* ``inputs(i)`` returns round ``i``'s inputs (generated outside the timed
  region);
* ``execute(inputs, recorder)`` makes one round through the program's
  public API (timed);
* ``summarize(inputs, raw)`` turns the round's output into quality
  values, a digest of every outcome, per-round counters and structural
  problems (untimed).

A round builds fresh servers and policies, so replaying round 0 repeats
its virtual-time computation exactly: digest, quality values and
counters must match. The traced run replays round 0 only, which is what
makes its per-layer call counts repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Any, Optional

import numpy as np

from repro.core import CedarPolicy, ProportionalSplitPolicy, QueryContext
from repro.core.policies import CedarFailureAwarePolicy
from repro.core.waitbatch import WaitCacheConfig
from repro.experiments.fig13_levels import DEADLINES_2LEVEL_S, DEADLINES_3LEVEL_S
from repro.rng import fork, resolve_rng, seeds_for, spawn
from repro.serve import (
    CedarServer,
    FaultyBackend,
    LoadGenerator,
    ServeReport,
    SimBackend,
    pinned_config,
    pinned_degrade_config,
    pinned_fault_schedule,
    pinned_workload,
)
from repro.simulation import improvement_percent, run_experiment, simulate_query
from repro.traces import facebook_three_level_workload, facebook_workload

from hostspeed import HostSpeed
from tracing import SpanRecorder

#: backend calls between two calibration samples (about 8 ms apart).
CALIBRATE_EVERY = 8

#: requests per serve round: the pinned diurnal stream at the saturation
#: point admits about 1,200 of them.
SERVE_REQUESTS = 1600
SERVE_QPS = 0.08
SERVE_DEADLINE = 60.0
SERVE_RATE_AMPLITUDE = 0.5
#: requests served in the set-up warm-up pass, and their seed: fixed,
#: so set-up cost does not depend on the run's seed.
SERVE_WARMUP_REQUESTS = 96
WARMUP_SEED = 2608

#: Fig 13 quick-scale settings (``repro.experiments.fig13_levels``).
FANOUT_AGG_SAMPLE = 10
FANOUT_GRID_POINTS = 192
#: the largest quick-scale deadline of each topology. There Cedar sees
#: most of every aggregator's 50 arrivals, so the per-arrival refit and
#: sweep dominate, and per-query cost varies least between queries (at
#: the tighter deadlines it ranges from 0 to 130 ms on the 2-level tree).
FANOUT_DEADLINE_2LEVEL = DEADLINES_2LEVEL_S[::2][-1]
FANOUT_DEADLINE_3LEVEL = DEADLINES_3LEVEL_S[::2][-1]
#: queries per round. The 2-level queries (about 70 ms) outnumber the
#: 3-level ones (about 380 ms) 3:1, so the median query is a 2-level one
#: and the 90th percentile a 3-level one; an even mix would put the
#: median in the gap between the two modes.
FANOUT_QUERIES_2LEVEL = 9
FANOUT_QUERIES_3LEVEL = 3


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index``: the run's seed for round 0, a derived
    one for every later round."""
    if index == 0:
        return int(seed)
    return int(fork(seed, f"perfbench-round-{index}").integers(0, 2**63 - 1))


@dataclasses.dataclass
class RoundSummary:
    digest: str
    #: requests sent (serve) or queries simulated (fanout).
    sent: int
    #: queries answered: admitted requests, or simulated queries.
    completed: int
    quality: dict[str, Optional[float]]
    counters: dict[str, float]
    problems: list[str]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibrate(host: HostSpeed, recorder: Optional[SpanRecorder]) -> None:
    """One host-speed sample; traced runs record it as the benchmark's
    own span so that no layer of the program is charged for it."""
    if recorder is None:
        host.sample()
    else:
        with recorder.span("bench.calibrate"):
            host.sample()


class TimedBackend:
    """Pass-through :class:`~repro.serve.server.QueryBackend` that times
    each ``run`` call, samples the host speed every ``CALIBRATE_EVERY``
    calls (outside the timed call) and, when tracing, records the call
    as a span.

    Other attributes (``on_run_start``, ``observe_dispatch``) forward to
    the wrapped backend, so the server sees the same hooks it would see
    on the backend alone.
    """

    def __init__(
        self,
        inner: Any,
        samples: list[tuple[float, float]],
        host: HostSpeed,
        recorder: Optional[SpanRecorder],
    ):
        self.inner = inner
        self.samples = samples
        self.host = host
        self.recorder = recorder
        self.calls = 0

    def run(self, ctx, policy, seed, tracer, metrics, span_attrs):
        self.calls += 1
        if self.calls % CALIBRATE_EVERY == 0:
            calibrate(self.host, self.recorder)
        start = time.perf_counter()
        result = self.inner.run(ctx, policy, seed, tracer, metrics, span_attrs)
        end = time.perf_counter()
        self.samples.append((end, end - start))
        if self.recorder is not None:
            self.recorder.add("backend.run", start, end, span_attrs.get("query_index"))
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


# ----------------------------------------------------------------------
class ServeWorkload:
    """The pinned diurnal stream through :class:`CedarServer`."""

    #: one of "steady", "cached", "chaos".
    variant = "steady"

    def __init__(self, seed: int, host: HostSpeed):
        self.seed = int(seed)
        self.host = host
        #: ``(end time, seconds)`` of every timed backend call.
        self.query_seconds: list[tuple[float, float]] = []
        self.generate_s = 0.0

    @property
    def grid_points(self) -> int:
        return self.config().grid_points

    # -- program objects -------------------------------------------------
    def config(self):
        cfg = pinned_config()
        if self.variant == "cached":
            cfg = dataclasses.replace(cfg, wait_cache=WaitCacheConfig())
        if self.variant == "chaos":
            cfg = dataclasses.replace(cfg, degrade=pinned_degrade_config())
        return cfg

    def _policy(self, cfg):
        if self.variant != "chaos":
            return None
        schedule = pinned_fault_schedule(0.05)
        return CedarFailureAwarePolicy.from_fault_model(
            schedule.base, grid_points=cfg.grid_points
        )

    def _inner_backend(self, cfg):
        if self.variant == "chaos":
            return FaultyBackend(pinned_fault_schedule(0.05), agg_sample=cfg.agg_sample)
        return SimBackend(agg_sample=cfg.agg_sample)

    def _server(self, samples, recorder: Optional[SpanRecorder]) -> CedarServer:
        cfg = self.config()
        return CedarServer(
            offline_tree=self.offline,
            config=cfg,
            policy=self._policy(cfg),
            backend=TimedBackend(self._inner_backend(cfg), samples, self.host, recorder),
        )

    def reference_summary(self) -> RoundSummary:
        """Round 0 through the server's own backend construction (no
        pass-through backend), for recording the expected values."""
        cfg = self.config()
        if self.variant == "chaos":
            cfg = dataclasses.replace(cfg, faults=pinned_fault_schedule(0.05))
        report = CedarServer(
            offline_tree=self.offline, config=cfg, policy=self._policy(cfg)
        ).run(self.reference)
        return summarize_serve(report, len(self.reference))

    # -- phases ----------------------------------------------------------
    def _generate(self, seed: int, n_requests: int = SERVE_REQUESTS) -> list[Any]:
        workload = pinned_workload()
        self.offline = workload.offline_tree()
        return LoadGenerator(
            workload=workload,
            qps=SERVE_QPS,
            n_requests=n_requests,
            deadline=SERVE_DEADLINE,
            seed=seed,
            rate_amplitude=SERVE_RATE_AMPLITUDE,
        ).generate()

    def setup(self) -> None:
        start = time.perf_counter()
        self.reference = self._generate(round_seed(self.seed, 0))
        self.generate_s = time.perf_counter() - start
        warmup = self._generate(WARMUP_SEED, SERVE_WARMUP_REQUESTS)
        self._server([], None).run(warmup)

    def inputs(self, index: int) -> list[Any]:
        return self.reference if index == 0 else self._generate(round_seed(self.seed, index))

    def execute(self, requests, recorder: Optional[SpanRecorder]) -> tuple[ServeReport, int]:
        calls_before = len(self.query_seconds)
        server = self._server(self.query_seconds, recorder)
        if recorder is None:
            report = server.run(requests)
        else:
            with recorder.span("serve.run"):
                report = server.run(requests)
        return report, len(self.query_seconds) - calls_before

    def summarize(self, requests, raw: tuple[ServeReport, int]) -> RoundSummary:
        report, backend_calls = raw
        return summarize_serve(
            report, len(requests), backend_calls, digest=requests is self.reference
        )


def summarize_serve(
    report: ServeReport,
    sent: int,
    backend_calls: Optional[int] = None,
    digest: bool = True,
) -> RoundSummary:
    """Check and summarize one serve round. The outcome digest, which
    serializes the whole report, is only compared for round 0, so later
    rounds skip it (``digest=False`` leaves it empty)."""
    problems: list[str] = []
    indices = [o.index for o in report.outcomes]
    if len(indices) != sent or set(indices) != set(range(sent)):
        problems.append(
            f"{len(indices)} outcomes for {sent} requests; every request needs exactly one"
        )
    admitted = sum(1 for o in report.outcomes if o.admitted)
    if report.admitted + report.shed != sent:
        problems.append(f"admitted {report.admitted} + shed {report.shed} != sent {sent}")
    if report.completed != report.admitted or admitted != report.admitted:
        problems.append(
            f"completed {report.completed} / outcomes admitted {admitted} "
            f"!= admitted {report.admitted}"
        )
    retries = int(report.chaos["retries"])  # type: ignore[arg-type]
    if backend_calls is not None and not (
        report.admitted <= backend_calls <= report.admitted + retries
    ):
        problems.append(
            f"{backend_calls} backend calls for {report.admitted} admitted "
            f"queries and {retries} retries"
        )
    if any(not 0.0 <= o.quality <= 1.0 for o in report.outcomes):
        problems.append("a request's quality lies outside [0, 1]")
    hits = sum(1 for o in report.outcomes if o.admitted and o.deadline_hit)
    cache = report.wait_cache
    counters = {
        "shed_count": float(report.shed),
        "queue_delay_mean": report.mean_queue_delay,
        "degraded_count": float(report.chaos["degraded"]),  # type: ignore[arg-type]
        "retries": float(retries),
        "brownout_completions": float(report.chaos["brownout_completions"]),  # type: ignore[arg-type]
        "cache_hits": float(cache.get("hits", 0)),
        "cache_misses": float(cache.get("misses", 0)),
        "cache_solved_rows": float(cache.get("solved_rows", 0)),
        "cache_entries": float(
            cache.get("wait_entries", 0) + cache.get("schedule_entries", 0)
        ),
    }
    quality = {
        "mean_quality": report.mean_quality,
        "deadline_hit_rate": report.deadline_hit_rate,
        "shed_fraction": report.shed_fraction,
        "failed_fraction": (sent - hits) / sent,
        "success_fraction": hits / sent,
        "cedar_improvement_pct": None,
    }
    return RoundSummary(
        digest=_digest(report.to_json(include_outcomes=True)) if digest else "",
        sent=sent,
        completed=report.admitted,
        quality=quality,
        counters=counters,
        problems=problems,
    )


class ServeSteady(ServeWorkload):
    variant = "steady"


class ServeCached(ServeWorkload):
    variant = "cached"


class ServeChaos(ServeWorkload):
    variant = "chaos"


# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Query:
    topology: int
    ctx: QueryContext
    duration_seed: int


class FanoutOffline:
    """Fig 13: Cedar against proportional-split on Facebook 2- and 3-level
    trees through :func:`repro.simulation.simulate_query`.

    Each topology's queries are drawn exactly as
    :func:`repro.simulation.run_experiment` draws them from that
    topology's round seed, so the qualities equal those of
    ``run_experiment`` (the recording step checks this).
    """

    grid_points = FANOUT_GRID_POINTS

    def __init__(self, seed: int, host: HostSpeed):
        self.seed = int(seed)
        self.host = host
        #: ``(end time, seconds)`` of every timed query.
        self.query_seconds: list[tuple[float, float]] = []
        self.generate_s = 0.0
        self.topologies = (
            (facebook_workload(), FANOUT_DEADLINE_2LEVEL, FANOUT_QUERIES_2LEVEL),
            (facebook_three_level_workload(), FANOUT_DEADLINE_3LEVEL, FANOUT_QUERIES_3LEVEL),
        )

    @staticmethod
    def policies():
        return [ProportionalSplitPolicy(), CedarPolicy(grid_points=FANOUT_GRID_POINTS)]

    def _generate(self, seed: int, counts=None) -> list[_Query]:
        queries: list[_Query] = []
        topology_seeds = seeds_for(seed, len(self.topologies))
        for topology, (workload, deadline, n_queries) in enumerate(self.topologies):
            if counts is not None:
                n_queries = counts[topology]
            offline = workload.offline_tree()
            for q_rng in spawn(resolve_rng(topology_seeds[topology]), n_queries):
                true_tree = workload.sample_query(q_rng)
                (duration_seed,) = q_rng.integers(0, 2**63 - 1, size=1)
                ctx = QueryContext(deadline=deadline, offline_tree=offline, true_tree=true_tree)
                queries.append(_Query(topology, ctx, int(duration_seed)))
        return queries

    def setup(self) -> None:
        start = time.perf_counter()
        self.reference = self._generate(round_seed(self.seed, 0))
        self.generate_s = time.perf_counter() - start
        self._simulate(self._generate(WARMUP_SEED, counts=(1, 1)), [], None)

    def inputs(self, index: int) -> list[_Query]:
        return self.reference if index == 0 else self._generate(round_seed(self.seed, index))

    def _simulate(self, queries, samples, recorder: Optional[SpanRecorder]):
        out: list[tuple[float, float]] = []
        policies = None
        topology = -1
        for index, query in enumerate(queries):
            if query.topology != topology:
                policies = self.policies()
                topology = query.topology
            calibrate(self.host, recorder)
            start = time.perf_counter()
            qualities = []
            for policy in policies:
                rng = np.random.default_rng(query.duration_seed)
                result = simulate_query(query.ctx, policy, seed=rng, agg_sample=FANOUT_AGG_SAMPLE)
                qualities.append(result.quality)
            end = time.perf_counter()
            samples.append((end, end - start))
            if recorder is not None:
                recorder.add("simulation.query", start, end, index)
            out.append((qualities[0], qualities[1]))
        return out

    def execute(self, queries, recorder: Optional[SpanRecorder]):
        return self._simulate(queries, self.query_seconds, recorder)

    def summarize(self, queries, pairs: list[tuple[float, float]]) -> RoundSummary:
        return summarize_fanout(pairs)

    def reference_summary(self) -> RoundSummary:
        """Round 0 through :func:`run_experiment`."""
        pairs: list[tuple[float, float]] = []
        topology_seeds = seeds_for(round_seed(self.seed, 0), len(self.topologies))
        for (workload, deadline, n_queries), seed in zip(self.topologies, topology_seeds):
            res = run_experiment(
                workload, self.policies(), deadline, n_queries,
                seed=seed, agg_sample=FANOUT_AGG_SAMPLE,
            )
            pairs.extend(
                zip(
                    (float(q) for q in res.qualities["proportional-split"]),
                    (float(q) for q in res.qualities["cedar"]),
                )
            )
        return summarize_fanout(pairs)


def summarize_fanout(pairs: list[tuple[float, float]]) -> RoundSummary:
    problems = []
    n = len(pairs)
    if any(not (0.0 <= q <= 1.0) for pair in pairs for q in pair):
        problems.append("a query quality lies outside [0, 1]")
    baseline = [p for p, _ in pairs]
    cedar = [c for _, c in pairs]
    answered = sum(1 for c in cedar if c > 0.0)
    mean_cedar = float(np.mean(cedar))
    quality = {
        "mean_quality": mean_cedar,
        "deadline_hit_rate": answered / n,
        "shed_fraction": None,
        "failed_fraction": (n - answered) / n,
        "success_fraction": answered / n,
        "cedar_improvement_pct": improvement_percent(mean_cedar, float(np.mean(baseline))),
    }
    return RoundSummary(
        digest=_digest(json.dumps([[float(p), float(c)] for p, c in pairs])),
        sent=n,
        completed=n,
        quality=quality,
        counters={
            "shed_count": 0.0,
            "queue_delay_mean": 0.0,
            "degraded_count": 0.0,
            "retries": 0.0,
            "brownout_completions": 0.0,
            "cache_hits": 0.0,
            "cache_misses": 0.0,
            "cache_solved_rows": 0.0,
            "cache_entries": 0.0,
        },
        problems=problems,
    )


WORKLOADS = {
    "serve-steady": ServeSteady,
    "serve-cached": ServeCached,
    "fanout-offline": FanoutOffline,
    "serve-chaos": ServeChaos,
}
