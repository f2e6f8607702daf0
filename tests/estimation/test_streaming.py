"""Streaming estimator facade and the running-sum order-statistic fold."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Stage, WaitOptimizer
from repro.core.aggregator import AdaptiveController
from repro.distributions import Exponential, LogNormal, Normal
from repro.errors import EstimationError
from repro.estimation import (
    EmpiricalEstimator,
    OrderStatisticEstimator,
    ParameterEstimate,
    StreamingEstimator,
)


@pytest.fixture
def stream():
    return StreamingEstimator(OrderStatisticEstimator("lognormal"), k=10)


class TestStreaming:
    def test_not_ready_before_min_samples(self, stream):
        assert not stream.ready
        stream.observe(1.0)
        assert not stream.ready
        with pytest.raises(EstimationError):
            stream.estimate()

    def test_ready_after_two(self, stream):
        stream.observe(1.0)
        stream.observe(2.0)
        assert stream.ready
        assert isinstance(stream.estimate_distribution(), LogNormal)

    def test_monotone_arrivals_enforced(self, stream):
        stream.observe(2.0)
        with pytest.raises(EstimationError):
            stream.observe(1.0)

    def test_complete_after_k(self, stream):
        for i in range(10):
            stream.observe(float(i + 1))
        assert stream.complete
        with pytest.raises(EstimationError):
            stream.observe(99.0)

    def test_estimate_cached_until_new_data(self, stream):
        stream.observe(1.0)
        stream.observe(2.0)
        first = stream.estimate()
        assert stream.estimate() is first
        stream.observe(3.0)
        assert stream.estimate() is not first

    def test_estimate_updates_with_data(self, stream):
        stream.observe(1.0)
        stream.observe(2.0)
        est2 = stream.estimate()
        stream.observe(10.0)
        est3 = stream.estimate()
        assert est3.n_observed == 3
        assert est2.n_observed == 2

    def test_reset(self, stream):
        stream.observe(1.0)
        stream.observe(2.0)
        stream.reset()
        assert stream.n_observed == 0
        assert not stream.ready

    def test_invalid_k(self):
        with pytest.raises(EstimationError):
            StreamingEstimator(OrderStatisticEstimator("lognormal"), k=0)


# ----------------------------------------------------------------------
# the pre-fold numpy formula, kept verbatim as an independent oracle


def _oracle(family, arrivals, k, scores):
    arr = np.asarray(arrivals, dtype=float)
    r = arr.size
    if family == "exponential":
        gaps = np.diff(np.concatenate(([0.0], arr)))
        score_gaps = np.diff(np.concatenate(([0.0], scores[:r])))
        mean_est = float(np.mean(gaps / score_gaps))
        correction = (r - 1) / r if r > 1 else 1.0
        return correction / mean_est, 0.0, 0.0, 0.0
    y = np.log(arr) if family == "lognormal" else arr
    m = scores[:r]
    sigmas = np.diff(y) / np.diff(m)
    mus = y[:-1] - sigmas * m[:-1]
    sigma = max(float(np.mean(sigmas)), 1e-9)
    mu = float(np.mean(mus))
    n_pairs = len(sigmas)
    if n_pairs >= 2:
        mu_se = float(np.std(mus, ddof=1) / np.sqrt(n_pairs))
        sigma_se = float(np.std(sigmas, ddof=1) / np.sqrt(n_pairs))
    else:
        mu_se = sigma_se = 0.0
    return mu, sigma, mu_se, sigma_se


def _close(got, want):
    """Within 1e-12, relative for magnitudes of 1 and more, else absolute."""
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _bits(fit: ParameterEstimate):
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(fit)
    )


TRUTHS = {
    "lognormal": LogNormal(3.0, 0.9),
    "normal": Normal(40.0, 10.0),
    "exponential": Exponential(lam=0.5),
}


def _draws(family, k, seed, tie_step):
    draws = np.sort(np.asarray(TRUTHS[family].sample(k, seed=seed), dtype=float))
    if tie_step:  # coarse clock: rounding makes neighbours tie
        draws = np.maximum(np.round(draws / tie_step) * tie_step, tie_step)
    return draws.tolist()


def _stream_matches_batch(est, arrivals, k):
    """Every prefix: streaming fit is the batch fit bit for bit, and both
    are within 1e-12 of the numpy oracle."""
    stream = StreamingEstimator(est, k)
    scores = np.asarray(est.scores(k))
    for r, t in enumerate(arrivals, start=1):
        stream.observe(t)
        if r < 2:
            continue
        got = stream.estimate()
        batch = est.estimate(arrivals[:r], k)
        assert _bits(got) == _bits(batch)
        want = _oracle(est.family, arrivals[:r], k, scores)
        fields = (got.mu, got.sigma, got.mu_stderr, got.sigma_stderr)
        assert all(map(_close, fields, want)), (r, fields, want)


class TestFoldProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(TRUTHS)),
        k=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
        tie_step=st.sampled_from([0.0, 0.0, 0.5, 5.0]),
    )
    def test_streaming_equals_batch_and_oracle(self, family, k, seed, tie_step):
        est = OrderStatisticEstimator(family)
        _stream_matches_batch(est, _draws(family, k, seed, tie_step), k)

    def test_two_arrivals_have_zero_stderr(self):
        stream = StreamingEstimator(OrderStatisticEstimator("lognormal"), 50)
        stream.observe(3.0)
        stream.observe(5.0)
        fit = stream.estimate()
        assert fit.mu_stderr == 0.0 and fit.sigma_stderr == 0.0
        assert _bits(fit) == _bits(OrderStatisticEstimator().estimate([3.0, 5.0], 50))

    @pytest.mark.parametrize("family", ["lognormal", "normal"])
    def test_tied_arrivals_clamp_sigma_to_floor(self, family):
        est = OrderStatisticEstimator(family)
        _stream_matches_batch(est, [2.0] * 12, 40)
        stream = StreamingEstimator(est, 40)
        for _ in range(12):
            stream.observe(2.0)
        fit = stream.estimate()
        assert fit.sigma == 1e-9
        assert fit.mu_stderr == 0.0 and fit.sigma_stderr == 0.0

    def test_reset_then_reuse(self):
        est = OrderStatisticEstimator("lognormal")
        stream = StreamingEstimator(est, 30)
        first = _draws("lognormal", 30, 1, 0.0)
        second = _draws("lognormal", 30, 2, 0.0)
        for t in first[:20]:
            stream.observe(t)
        stream.estimate()
        stream.reset()
        for r, t in enumerate(second, start=1):
            stream.observe(t)
            if r >= 2:
                assert _bits(stream.estimate()) == _bits(est.estimate(second[:r], 30))

    def test_deflated_estimate_k_through_controller(self):
        est = OrderStatisticEstimator("lognormal")
        k, estimate_k = 20, 12
        arrivals = _draws("lognormal", k, 7, 0.0)
        ctl = AdaptiveController(
            est,
            WaitOptimizer([Stage(LogNormal(2.0, 0.5), 4)], 500.0, grid_points=64),
            k=k,
            deadline=500.0,
            estimate_k=estimate_k,
        )
        for r, t in enumerate(arrivals[:-1], start=1):
            ctl.on_arrival(t)
            if r < 2:
                continue
            fed = min(r, estimate_k)
            want = est.estimate(arrivals[:fed], estimate_k)
            assert (ctl.last_estimate.mu, ctl.last_estimate.sigma) == (want.mu, want.sigma)

    def test_batch_default_accumulator_unchanged(self):
        est = EmpiricalEstimator("lognormal")
        arrivals = _draws("lognormal", 15, 3, 0.0)
        stream = StreamingEstimator(est, 15)
        for r, t in enumerate(arrivals, start=1):
            stream.observe(t)
            if r >= 2:
                assert stream.estimate() == est.estimate(arrivals[:r], 15)


# ----------------------------------------------------------------------
def _outcome(fit):
    """A fit's bits, or the error message it raised."""
    try:
        return _bits(fit())
    except EstimationError as exc:
        return str(exc)


@pytest.mark.parametrize("family", ["lognormal", "exponential"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("slot", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("tail", [[], [math.inf]])
def test_bad_arrival_error_parity(family, bad, slot, tail):
    """A zero, negative, infinite or NaN arrival: the streaming fit raises
    what the batch fit of the same prefix raises (or both agree on the
    fit), at every prefix and again on a repeated call. A trailing
    ``inf`` puts two bad arrivals in one prefix, where the batch fit's
    check order decides the message."""
    est = OrderStatisticEstimator(family)
    arrivals = [1.0, 2.0, 3.0, 4.0]
    arrivals.insert(slot, bad)
    arrivals += tail
    stream = StreamingEstimator(est, 10)
    for r, t in enumerate(arrivals, start=1):
        try:
            stream.observe(t)
        except EstimationError:
            return  # out of order: the stream never holds this prefix
        if r < 2:
            continue
        want = _outcome(lambda: est.estimate(arrivals[:r], 10))
        assert _outcome(stream.estimate) == want
        assert _outcome(stream.estimate) == want
