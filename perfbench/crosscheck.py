"""Work units against wall time: ``serve-steady`` against ``serve-cached``.

Run from the repository root::

    python3 perfbench/crosscheck.py --seed 2608 --seconds 4 --repeats 3

The committed work-unit benches (``benchmarks/BENCH_waitpath.json``)
count the wait cache's gain in grid-cell operations. This script puts
that count beside wall time, in one process so host-speed drift cancels:
each repeat runs both workloads back to back, each with alternating
untraced and traced rounds, and reports

* the ``core.work_units`` ratio (steady over cached, per round),
* the ``queries_per_s`` ratio (cached over steady, untraced rounds,
  host-speed normalized),
* the shift from ``core.wait.share`` to ``core.waitbatch.share``,

each with its base. Wall-clock ratios are medians over the repeats.
The last line of standard output is the same figures as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import (
    _import_program,
    check_rounds,
    per_layer_metrics,
    queries_per_s,
    run_rounds,
    setup_workload,
)

PAIR = ("serve-steady", "serve-cached")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2608)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    _import_program()

    workloads = {name: setup_workload(name, args.seed) for name in PAIR}
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in PAIR}
    problems: list[str] = []
    for _ in range(args.repeats):
        for name in PAIR:
            workload, host, _, generate_s = workloads[name]
            rounds, recorder, span_counts = run_rounds(workload, host, args.seconds, True)
            problems += check_rounds(name, args.seed, rounds, span_counts)
            metrics, _, _ = per_layer_metrics(workload, rounds, recorder, generate_s)
            metrics["queries_per_s"] = queries_per_s([r for r in rounds if not r.traced])
            for key, value in metrics.items():
                samples[name].setdefault(key, []).append(value)

    def median(name: str, key: str) -> float:
        return statistics.median(samples[name][key])

    steady, cached = PAIR
    doc = {
        "seed": args.seed,
        "repeats": args.repeats,
        "work_units": {steady: median(steady, "core.work_units"), cached: median(cached, "core.work_units")},
        "work_units_ratio": median(steady, "core.work_units") / median(cached, "core.work_units"),
        "queries_per_s": {steady: median(steady, "queries_per_s"), cached: median(cached, "queries_per_s")},
        "queries_per_s_ratio": statistics.median(
            c / s for c, s in zip(samples[cached]["queries_per_s"], samples[steady]["queries_per_s"])
        ),
        "core.wait.share": {steady: median(steady, "core.wait.share"), cached: median(cached, "core.wait.share")},
        "core.waitbatch.share": {
            steady: median(steady, "core.waitbatch.share"),
            cached: median(cached, "core.waitbatch.share"),
        },
        "correct": not problems,
    }
    wu = doc["work_units"]
    qps = doc["queries_per_s"]
    print(
        f"work units per round: {steady} {wu[steady]:.0f} / {cached} {wu[cached]:.0f}"
        f" = {doc['work_units_ratio']:.2f}x fewer with the cache"
    )
    print(
        f"admitted queries/s:   {cached} {qps[cached]:.1f} / {steady} {qps[steady]:.1f}"
        f" = {doc['queries_per_s_ratio']:.2f}x (median of per-repeat ratios)"
    )
    for key in ("core.wait.share", "core.waitbatch.share"):
        print(f"{key + ':':<21} {steady} {doc[key][steady]:.1%} -> {cached} {doc[key][cached]:.1%}")
    for problem in sorted(set(problems)):
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(doc))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
