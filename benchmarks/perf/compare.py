"""Compare two benchmark result files: the parent (A) against a change (B).

    python3 benchmarks/perf/compare.py A.json B.json

``A.json`` and ``B.json`` are written by ``run.py --out``; each may hold many
runs (``--out`` appends).  For every workload and end-to-end metric the
script prints each side's median and quartiles over its runs and a verdict
from :func:`perfstats.verdict` with the metric's bound from
``BENCHMARK.json``: better, worse, unchanged, or unresolved when the
run-to-run spread is wider than the bound.  The op-time metrics of
:data:`UNGATED` get the same verdict against their 10 % bound, read from the
untraced runs, although ``BENCHMARK.json`` lists them without a bound.  A side with a single run is
summarised over that run's rounds instead, its spread scaled down by the
square root of the round count.  Per-layer metrics of traced runs
are printed side by side, without a verdict, to show where a change moved
time.  Exits with status 1 when any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perfstats  # noqa: E402

BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
#: End-to-end metrics listed in ``BENCHMARK.json``'s per-layer table because
#: their run-to-run spread exceeds the bound they are judged by here.
UNGATED = {"op_p50_s": 0.10, "ops_per_s": 0.10}


def metric_values(results: dict, workload: str, metric: str, trace: int) -> list[float]:
    """Per-run values of one metric, reported or kept among a run's extras."""
    values = []
    for r in results["runs"]:
        if r["workload"] != workload or r["trace"] != trace:
            continue
        if metric in r["metrics"]:
            values.append(r["metrics"][metric]["value"])
        elif metric in r["extra"]:
            values.append(r["extra"][metric])
    return values


def run_level(results: dict, workload: str, metric: str) -> tuple[list[float], float]:
    """Values of an end-to-end metric and their run-to-run spread.

    With several runs these are the runs.  A single run is split into its
    rounds; the run pools all of them, so its own spread is estimated as the
    rounds' spread over the square root of their number.
    """
    values = metric_values(results, workload, metric, 0)
    if len(values) == 1:
        run = next(r for r in results["runs"] if r["workload"] == workload and r["trace"] == 0)
        rounds = [r[metric] for r in run["rounds"] if metric in r]
        if len(rounds) > 1:
            return rounds, perfstats.spread(rounds) / math.sqrt(len(rounds))
    return values, perfstats.spread(values) if values else 0.0


def compare(base: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether any (workload, end-to-end metric) pair got worse."""
    workloads = [w["name"] for w in spec["workloads"]]
    lines = [f"{'workload':16s} {'metric':26s} {'A median [q1, q3]':>34s} "
             f"{'B median [q1, q3]':>34s}  verdict"]
    any_worse = False
    judged = spec["end_to_end"] + [
        {**metric, "bound": UNGATED[metric["name"]]}
        for metric in spec["per_layer"] if metric["name"] in UNGATED
    ]
    for workload in workloads:
        for metric in judged:
            a, a_spread = run_level(base, workload, metric["name"])
            b, b_spread = run_level(change, workload, metric["name"])
            if not a or not b:
                continue
            verdict = perfstats.verdict(a, b, metric["bound"], metric["better"], a_spread, b_spread)
            any_worse |= verdict == "worse"
            lines.append(f"{workload:16s} {metric['name']:26s} {_summary(a):>34s} "
                         f"{_summary(b):>34s}  {verdict} (bound {metric['bound']:.0%}"
                         f"{', not gated' if metric['name'] in UNGATED else ''})")
    layer_lines = []
    for workload in workloads:
        for metric in spec["per_layer"]:
            a = metric_values(base, workload, metric["name"], 1)
            b = metric_values(change, workload, metric["name"], 1)
            if a and b and (any(a) or any(b)):
                layer_lines.append(f"{workload:16s} {metric['name']:38s} "
                                   f"{perfstats.median(a):14.6g} {perfstats.median(b):14.6g} "
                                   f"{metric['unit']}")
    if layer_lines:
        lines.append("")
        lines.append(f"{'workload':16s} {'per-layer metric (traced runs)':38s} "
                     f"{'A median':>14s} {'B median':>14s}")
        lines.extend(layer_lines)
    return lines, any_worse


def _summary(values: list[float]) -> str:
    q1, q2, q3 = perfstats.quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="results of the parent commit")
    parser.add_argument("change", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    lines, any_worse = compare(
        json.loads(args.base.read_text()), json.loads(args.change.read_text()), spec
    )
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
