"""Wall-clock benchmark of Cedar's decision path.

Run from the repository root::

    python3 perfbench/run.py --workload serve-steady --seed 2608 --seconds 25 --trace 0

One process, one thread, one workload per invocation. The run sets up
the workload several times (the median is ``setup_s``), then makes whole
rounds until ``--seconds`` of round time have elapsed: round 0 serves
the inputs generated from ``--seed``, later rounds inputs from seeds
derived from it. Quality values are exact for a seed; only wall-clock
values drift, and those are normalized to a reference host speed
(``hostspeed.py``), with the raw values printed beside them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` replays round 0, alternately untraced and traced, reports
the per-layer metrics from the traced rounds (self times from the
program's ``PROFILER`` sites and the benchmark's own spans), the tracing
overhead against the untraced rounds, and writes the spans as JSONL
under ``perfbench/out/``.

Every run checks its outputs: each request has exactly one outcome,
every replay of round 0 repeats its outcome digest and counters, and on
the default seed the digest and quality values equal those recorded in
``perfbench/expected.json``. A failed check prints ``"correct": false``
and exits with status 1. ``--record`` rewrites ``expected.json`` from
the program's own code paths (``CedarServer`` with its own backend,
``run_experiment``) after checking that the benchmark's path reproduces
them.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 5
#: calibration samples taken before and after each set-up and round.
EDGE_SAMPLES = 3

#: profiler site or benchmark span -> the layer its self time counts to.
SPAN_LAYER = {
    "estimation.streaming.estimate": "estimation",
    "core.wait.sweep": "core.wait",
    "core.wait.calculate_wait": "core.wait",
    "core.quality.tail_grid": "core.quality",
    "core.waitbatch.lookup": "core.waitbatch",
    "core.waitbatch.solve": "core.waitbatch",
    "serve.waitcache.prewarm": "core.waitbatch",
    "serve.warmstart.observe": "serve.warmstart",
    "serve.dispatch": "serve.dispatch",
    "serve.admission.offer": "serve.admission",
    "serve.degrade.decide": "serve.degrade",
    "serve.run": "serve.loop",
    "backend.run": "simulation",
    "simulation.query": "simulation",
    "bench.round": "unattributed",
    "bench.calibrate": "unattributed",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclasses.dataclass
class Round:
    seconds: float
    summary: Any
    traced: bool
    index: int
    #: host slowdown measured while the round ran (1 = reference speed).
    slowdown: float
    #: part of ``seconds`` spent in calibration samples.
    calibration_s: float

    @property
    def normalized_s(self) -> float:
        """Round time without calibration, at the reference host speed."""
        return (self.seconds - self.calibration_s) / self.slowdown


# ----------------------------------------------------------------------
def setup_workload(name: str, seed: int):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last one.

    Returns the workload, the host-speed tracker, and the median
    normalized set-up seconds and input-generation seconds.
    """
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    host = HostSpeed()
    totals, generates = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        host.sample(EDGE_SAMPLES)
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, host)
        workload.setup()
        end = time.perf_counter()
        host.sample(EDGE_SAMPLES)
        slowdown = host.slowdown_between(start, end)
        totals.append((end - start) / slowdown)
        generates.append(workload.generate_s / slowdown)
    return workload, host, statistics.median(totals), statistics.median(generates)


def run_rounds(workload, host, seconds: float, trace: bool):
    """Make whole rounds until ``seconds`` of round time has elapsed.

    Untraced, round ``i`` serves the workload's inputs ``i``. With
    ``trace`` the rounds replay round 0's inputs, alternately untraced
    and traced, with at least one of each. Returns ``(rounds, recorder,
    traced_span_counts)``.
    """
    from tracing import SpanRecorder, recording_profiler

    recorder = SpanRecorder() if trace else None
    rounds: list[Round] = []
    span_counts = []
    while True:
        index = 0 if trace else len(rounds)
        inputs = workload.inputs(index)
        traced = trace and len(rounds) % 2 == 1
        host.sample(EDGE_SAMPLES)
        calibrated_before = host.total_s
        if traced:
            first = len(recorder.spans)
            with recording_profiler(recorder):
                start = time.perf_counter()
                raw = workload.execute(inputs, recorder)
                end = time.perf_counter()
            recorder.add("bench.round", start, end)
            counts: dict[str, int] = {}
            for span in recorder.spans[first:]:
                counts[span.name] = counts.get(span.name, 0) + 1
            span_counts.append(counts)
        else:
            start = time.perf_counter()
            raw = workload.execute(inputs, None)
            end = time.perf_counter()
        calibration_s = host.total_s - calibrated_before
        host.sample(EDGE_SAMPLES)
        summary = workload.summarize(inputs, raw)
        slowdown = host.slowdown_between(start, end)
        rounds.append(Round(end - start, summary, traced, index, slowdown, calibration_s))
        if sum(r.seconds for r in rounds) >= seconds and (not trace or len(rounds) >= 2):
            return rounds, recorder, span_counts


def check_rounds(name: str, seed: int, rounds: list[Round], span_counts) -> list[str]:
    """Structural checks on every round, exact repeats of round 0 and,
    on the default seed, the values recorded for round 0."""
    problems: list[str] = []
    first = rounds[0].summary
    for r in rounds:
        problems.extend(r.summary.problems)
        if r.index != 0:
            continue
        if r.summary.digest != first.digest:
            problems.append("a replay of round 0 has another outcome digest")
        if r.summary.counters != first.counters or r.summary.quality != first.quality:
            problems.append("a replay of round 0 has other counters or quality values")
    if any(counts != span_counts[0] for counts in span_counts):
        problems.append("a traced round's call counts differ from the first traced round's")
    expected = _load(EXPECTED)
    if seed == expected["default_seed"]:
        recorded = expected["exact"][name]
        if recorded["digest"] != first.digest:
            problems.append("outcome digest differs from the value recorded for the default seed")
        for key, value in first.quality.items():
            if recorded[key] != value:
                problems.append(f"{key} {value!r} differs from the recorded {recorded[key]!r}")
    return sorted(set(problems))


def queries_per_s(rounds: list[Round], normalized: bool = True) -> float:
    """Completed queries over round time, calibration excluded."""
    completed = sum(r.summary.completed for r in rounds)
    if normalized:
        return completed / sum(r.normalized_s for r in rounds)
    return completed / sum(r.seconds - r.calibration_s for r in rounds)


def end_to_end_metrics(workload, host, rounds: list[Round], setup_s: float):
    """The end-to-end metrics (normalized) and their raw wall values."""
    raw_ms = [s * 1e3 for _, s in workload.query_seconds]
    norm_ms = [s * 1e3 / host.slowdown_at(end) for end, s in workload.query_seconds]
    metrics = {
        "setup_s": setup_s,
        "queries_per_s": queries_per_s(rounds),
        "query_ms_p50": _percentile(norm_ms, 50.0),
        "query_ms_p90": _percentile(norm_ms, 90.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "queries_per_s": queries_per_s(rounds, normalized=False),
        "query_ms_p50": _percentile(raw_ms, 50.0),
        "query_ms_p90": _percentile(raw_ms, 90.0),
        "host_slowdown": statistics.median(r.slowdown for r in rounds),
    }
    return metrics, raw


def per_layer_metrics(workload, rounds: list[Round], recorder, generate_s: float):
    """Per-layer metrics from the traced rounds: counts per round, self
    times normalized by the traced rounds' host slowdown.

    Returns the metrics, a per-span breakdown and the linked spans.
    """
    ordered = recorder.link()
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    n = len(traced)
    traced_s = sum(r.seconds for r in traced)
    slowdown = traced_s / sum(r.seconds / r.slowdown for r in traced)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span in ordered:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_time
    layer_s: dict[str, float] = {}
    for name, seconds in self_s.items():
        layer = SPAN_LAYER.get(name, "other:" + name)
        layer_s[layer] = layer_s.get(layer, 0.0) + seconds

    def per_round(name: str) -> float:
        return calls.get(name, 0) / n

    def self_ms(*names: str) -> float:
        return sum(self_s.get(x, 0.0) for x in names) / slowdown / n * 1e3

    def self_us(name: str) -> float:
        return self_s[name] / slowdown / calls[name] * 1e6 if calls.get(name) else 0.0

    def share(layer: str) -> float:
        return layer_s.get(layer, 0.0) / traced_s

    counters = traced[0].summary.counters
    grid = workload.grid_points
    sweeps = per_round("core.wait.sweep") + per_round("core.wait.calculate_wait")
    work_units = (
        sweeps * grid
        + counters["cache_solved_rows"] * grid
        + per_round("core.quality.tail_grid") * grid * grid
        + counters["cache_hits"]
    )
    lookups = counters["cache_hits"] + counters["cache_misses"]
    queries = per_round("backend.run") + per_round("simulation.query")
    metrics = {
        "estimation.estimate_calls": per_round("estimation.streaming.estimate"),
        "estimation.estimate_us": self_us("estimation.streaming.estimate"),
        "estimation.share": share("estimation"),
        "core.wait.sweep_calls": sweeps,
        "core.wait.sweep_us": self_us("core.wait.sweep"),
        "core.wait.share": share("core.wait"),
        "core.quality.tail_grid_calls": per_round("core.quality.tail_grid"),
        "core.quality.tail_grid_ms": self_ms("core.quality.tail_grid"),
        "core.waitbatch.lookup_calls": per_round("core.waitbatch.lookup"),
        "core.waitbatch.hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
        "core.waitbatch.lookup_us": self_us("core.waitbatch.lookup"),
        "core.waitbatch.solve_calls": per_round("core.waitbatch.solve"),
        "core.waitbatch.prewarm_ms": self_ms("serve.waitcache.prewarm"),
        "core.waitbatch.entries": counters["cache_entries"],
        "core.waitbatch.share": share("core.waitbatch"),
        "core.work_units": work_units,
        "serve.warmstart.observe_calls": per_round("serve.warmstart.observe"),
        "serve.warmstart.observe_ms": self_ms("serve.warmstart.observe"),
        "serve.warmstart.share": share("serve.warmstart"),
        "serve.dispatch.self_ms": self_ms("serve.dispatch"),
        "serve.admission.offer_calls": per_round("serve.admission.offer"),
        "serve.admission.shed_count": counters["shed_count"],
        "serve.admission.queue_delay_mean": counters["queue_delay_mean"],
        "serve.loop.self_ms": self_ms("serve.run"),
        "simulation.query_self_ms": (
            self_ms("backend.run", "simulation.query") / queries if queries else 0.0
        ),
        "simulation.share": share("simulation"),
        "faults.degraded_count": counters["degraded_count"],
        "faults.retries": counters["retries"],
        "faults.brownout_completions": counters["brownout_completions"],
        "serve.degrade.decide_us": self_us("serve.degrade.decide"),
        "serve.loadgen.generate_s": generate_s,
        "unattributed.share": share("unattributed"),
        "trace_overhead_pct": (queries_per_s(untraced) / queries_per_s(traced) - 1.0) * 100.0,
    }
    breakdown = {
        "calls_per_round": {k: calls[k] / n for k in sorted(calls)},
        "self_ms_per_round": {k: self_s[k] / slowdown / n * 1e3 for k in sorted(self_s)},
        "layer_share": {k: layer_s[k] / traced_s for k in sorted(layer_s)},
        "traced_round_ms": traced_s / slowdown / n * 1e3,
        "host_slowdown": slowdown,
        "self_time_sum_over_round_time": sum(layer_s.values()) / traced_s,
    }
    return metrics, breakdown, ordered


# ----------------------------------------------------------------------
def record_expected() -> None:
    """Rewrite ``expected.json`` at the default seed from the program's
    own code paths, after checking the benchmark's path matches them."""
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    expected = _load(EXPECTED)
    seed = expected["default_seed"]
    exact = {}
    for name, cls in WORKLOADS.items():
        workload = cls(seed, HostSpeed())
        workload.setup()
        reference = workload.reference_summary()
        inputs = workload.inputs(0)
        bench = workload.summarize(inputs, workload.execute(inputs, None))
        if reference.problems or bench.problems:
            raise SystemExit(f"{name}: {reference.problems + bench.problems}")
        if (bench.digest, bench.quality) != (reference.digest, reference.quality):
            raise SystemExit(f"{name}: the benchmark path does not reproduce the program's own")
        exact[name] = {"digest": reference.digest, **reference.quality}
        print(f"{name}: {exact[name]}")
    expected["exact"] = exact
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=2)
        f.write("\n")


def _fmt(value) -> str:
    if value is None:
        return "—"
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    if args.record:
        record_expected()
        return 0

    spec = _load(ROOT / "BENCHMARK.json")
    expected = _load(EXPECTED)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seed = expected["default_seed"] if args.seed is None else args.seed

    workload, host, setup_s, generate_s = setup_workload(args.workload, seed)
    rounds, recorder, span_counts = run_rounds(workload, host, args.seconds, bool(args.trace))
    problems = check_rounds(args.workload, seed, rounds, span_counts)
    attempted = sum(r.summary.sent for r in rounds)
    failed = sum(r.summary.sent for r in rounds if r.summary.problems)

    print(f"workload {args.workload}  seed {seed}  rounds {len(rounds)}  trace {args.trace}")
    print("  round 0 quality (exact for the seed):")
    for key, value in rounds[0].summary.quality.items():
        unit = "%" if key == "cedar_improvement_pct" else "fraction"
        print(f"    {key:<30} {_fmt(value):>14} {unit}")
    if args.trace:
        from layers import isolated_layer_timings

        declared = spec["per_layer"]
        values, breakdown, ordered = per_layer_metrics(workload, rounds, recorder, generate_s)
        values.update(isolated_layer_timings(expected["default_seed"], host))
        if abs(breakdown["self_time_sum_over_round_time"] - 1.0) > 1e-6:
            problems.append("span self times do not add up to the traced round time")
        OUT.mkdir(exist_ok=True)
        recorder.write_jsonl(str(OUT / f"{args.workload}-spans.jsonl"), ordered)
        with open(OUT / f"{args.workload}-layers.json", "w", encoding="utf-8") as f:
            json.dump(breakdown, f, indent=2)
        print(f"  layer shares of {breakdown['traced_round_ms']:.1f} ms per traced round:")
        for layer, frac in breakdown["layer_share"].items():
            print(f"    {layer:<30} {frac:>8.2%}")
    else:
        declared = spec["end_to_end"]
        values, raw = end_to_end_metrics(workload, host, rounds, setup_s)
        print("  raw wall-clock values (not normalized):")
        for key, value in raw.items():
            print(f"    {key:<30} {_fmt(value):>14}")
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("  metrics:")
    for name, entry in metrics.items():
        print(f"    {name:<30} {_fmt(entry['value']):>14} {entry['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
