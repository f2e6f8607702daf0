"""CedarServer: determinism, simulator equivalence, backends, wiring."""

import json

import pytest

from repro.cluster import DeploymentConfig
from repro.core import QueryContext, TreeSpec, policies
from repro.core.policies import CedarPolicy
from repro.distributions import LogNormal
from repro.obs import MetricsRegistry, SpanTracer
from repro.serve import (
    SERVE_SPAN_ATTRS,
    CedarServer,
    FixedServiceBackend,
    LoadGenerator,
    QueryRequest,
    ServeConfig,
    TcpBackend,
    pinned_config,
    pinned_workload,
)
from repro.simulation import simulate_query

SMALL_TREE = TreeSpec.two_level(LogNormal(1.0, 0.4), 3, LogNormal(0.5, 0.3), 2)


def _pinned_requests(qps, n, seed=2608, deadline=60.0):
    workload = pinned_workload()
    generator = LoadGenerator(
        workload=workload,
        qps=qps,
        n_requests=n,
        deadline=deadline,
        seed=seed,
        rate_amplitude=0.5,
    )
    return workload.offline_tree(), generator.generate()


class TestBitIdentity:
    def test_same_seed_same_report(self):
        offline, requests = _pinned_requests(qps=0.1, n=30)
        cfg = ServeConfig(max_concurrent=4, max_queue=8, contention_coeff=0.5)
        first = CedarServer(offline_tree=offline, config=cfg).run(requests)
        second = CedarServer(offline_tree=offline, config=cfg).run(requests)
        assert first.to_json(include_outcomes=True) == second.to_json(
            include_outcomes=True
        )

    def test_different_seed_differs(self):
        offline, requests = _pinned_requests(qps=0.1, n=30)
        _, other = _pinned_requests(qps=0.1, n=30, seed=7)
        cfg = ServeConfig(max_concurrent=4, max_queue=8, contention_coeff=0.5)
        first = CedarServer(offline_tree=offline, config=cfg).run(requests)
        second = CedarServer(offline_tree=offline, config=cfg).run(other)
        assert first.to_json(include_outcomes=True) != second.to_json(
            include_outcomes=True
        )


class TestOptimizerMemo:
    """The per-policy optimizer memo is keyed on the remaining deadline,
    so on the serve path it would grow with every request without its
    cap; evicted optimizers are rebuilt exactly."""

    def _run(self):
        offline, requests = _pinned_requests(qps=0.08, n=3200)
        server = CedarServer(offline_tree=offline, config=pinned_config())
        report = server.run(requests)
        return server.policy, report.to_json(include_outcomes=True)

    def test_memo_bounded_and_eviction_changes_no_outcome(self, monkeypatch):
        policy, default = self._run()
        assert 0 < len(policy._optimizers) <= policies.MAX_OPTIMIZERS
        monkeypatch.setattr(policies, "MAX_OPTIMIZERS", 8)
        policy, capped = self._run()
        assert len(policy._optimizers) <= 8
        assert capped == default


class TestSimulatorEquivalence:
    def test_qps_to_zero_reproduces_simulate_query(self):
        """At vanishing load every query runs alone with its full budget:
        the serve outcome must equal a standalone simulate_query call
        bit-for-bit (same tree, same seed, same grid)."""
        offline, requests = _pinned_requests(qps=1e-5, n=5)
        cfg = ServeConfig(
            max_concurrent=4, max_queue=8, contention_coeff=0.5, warm_start=False
        )
        report = CedarServer(offline_tree=offline, config=cfg).run(requests)
        assert report.shed == 0
        by_index = {o.index: o for o in report.outcomes}
        for request in requests:
            ctx = QueryContext(
                deadline=request.deadline,
                offline_tree=offline,
                true_tree=request.tree,
            )
            res = simulate_query(
                ctx, CedarPolicy(grid_points=cfg.grid_points), seed=request.seed
            )
            outcome = by_index[request.index]
            assert outcome.queue_delay == 0.0
            assert outcome.slowdown == 1.0
            assert outcome.quality == res.quality
            assert outcome.included_outputs == res.included_outputs
            assert outcome.latency == res.elapsed


class TestContention:
    def test_overlapping_queries_slowed(self):
        cfg = ServeConfig(
            max_concurrent=2,
            max_queue=4,
            contention_coeff=1.0,
            warm_start=False,
        )
        server = CedarServer(
            offline_tree=SMALL_TREE, config=cfg, backend=FixedServiceBackend(10.0)
        )
        requests = [
            QueryRequest(index=i, arrival=0.0, deadline=100.0, tree=SMALL_TREE, seed=i)
            for i in range(3)
        ]
        report = server.run(requests)
        slowdowns = sorted(o.slowdown for o in report.outcomes)
        assert slowdowns[0] == 1.0  # first query dispatched alone
        assert slowdowns[-1] == pytest.approx(1.5)  # second slot busy


class TestObservability:
    def test_spans_and_metrics_emitted(self):
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        offline, requests = _pinned_requests(qps=0.1, n=8)
        cfg = ServeConfig(max_concurrent=2, max_queue=2, contention_coeff=0.5)
        CedarServer(
            offline_tree=offline, config=cfg, tracer=tracer, metrics=metrics
        ).run(requests)
        request_spans = [s for s in tracer.spans if s.kind == "request"]
        assert len(request_spans) == len(requests)
        for span in request_spans:
            assert set(span.attrs) <= SERVE_SPAN_ATTRS
        doc = json.loads(metrics.render_json())
        assert "cedar_serve_requests_total" in doc
        assert "cedar_serve_queue_depth" in doc


class TestTcpBackend:
    def test_serve_over_tcp(self):
        cfg = ServeConfig(max_concurrent=2, max_queue=4, warm_start=False)
        server = CedarServer(
            offline_tree=SMALL_TREE,
            config=cfg,
            backend=TcpBackend(time_scale=0.002),
        )
        requests = [
            QueryRequest(
                index=i, arrival=float(i), deadline=30.0, tree=SMALL_TREE, seed=i + 1
            )
            for i in range(3)
        ]
        report = server.run(requests)
        assert report.completed == 3
        for outcome in report.outcomes:
            assert 0.0 <= outcome.quality <= 1.0
            assert 0.0 < outcome.latency <= 30.0 + 1e-9


class TestDeploymentSizing:
    def test_for_deployment_capacity(self):
        config = ServeConfig.for_deployment(DeploymentConfig(k1=5, k2=4))
        assert config.max_concurrent == 16  # 320 slots / 20 tasks
        assert config.max_queue == ServeConfig().max_queue

    def test_for_deployment_overrides(self):
        config = ServeConfig.for_deployment(
            DeploymentConfig(k1=5, k2=4), max_queue=3, contention_coeff=0.5
        )
        assert config.max_concurrent == 16
        assert config.max_queue == 3
        assert config.contention_coeff == 0.5

    def test_default_deployment_fits_one_query(self):
        # 320 slots, 20x16 = 320 tasks per query
        assert DeploymentConfig().concurrent_query_capacity() == 1
