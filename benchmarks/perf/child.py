"""One round of one workload, in a fresh process.

``run.py`` starts this script once per round.  It prints one JSON object on
its last stdout line: the set-up time, the timed samples and the timed wall,
the failed checks, the output digest and (when tracing) the per-op layer
totals.

    python3 benchmarks/perf/child.py --workload NAME --seed S --seconds T \
        [--trace 0|1] [--quick] [--launched EPOCH_S]
"""

from __future__ import annotations

import time

_STARTED = time.time()  # before the heavy imports: they belong to set-up

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.observe import Tracer  # noqa: E402

REFERENCE = HERE / "reference.json"


def run_round(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    reference: dict | None = None,
    started: float | None = None,
) -> dict:
    """Set up ``name``, warm up, then run ops for at most ``seconds`` (at least one).

    An op starts only if one more op of the round's median length still ends
    within ``seconds``, so the round never overruns its share by a long op.
    With ``trace`` the ops alternate untraced / traced, so the tracing
    overhead is measured under the same host conditions as the ops it
    perturbs.  Never raises for a failed op: exceptions and failed checks are
    counted in ``failures``.
    """
    started = _STARTED if started is None else started
    min_ops = 2 if trace else 1  # a traced run needs one traced op
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    reference = reference["quick" if quick else "full"][name]
    workload = workloads.WORKLOADS[name](seed, quick, reference)
    result: dict = {"workload": name, "samples": {}, "failures": [], "attempted": 0,
                    "failed": 0, "digest": None, "layers": []}
    try:
        workload.warmup()
        result["setup_s"] = time.time() - started
        slots: list[float] = []  # wall time of each loop iteration
        result["timed_s"] = 0.0  # summed over the untraced iterations
        begin = perf_counter()
        while len(slots) < min_ops or perf_counter() - begin + statistics.median(slots) <= seconds:
            slot = len(slots)
            traced = trace and slot % 2 == 1
            tracer = Tracer() if traced else None
            meter = workloads.Meter(tracer)
            result["attempted"] += 1
            gc.collect()  # the previous op's garbage is not this op's work
            slot_start = perf_counter()
            try:
                workload.clear_caches()
                before = dict(workload.pool.stats) if traced and workload.pool else {}
                outcome = workload.op(slot, meter)
            except Exception as error:  # a failed op is counted, never fatal
                outcome = workloads.Outcome("", [f"op raised {error!r}"])
            if result["digest"] is None:
                result["digest"] = outcome.digest or None
            elif outcome.digest and outcome.digest != result["digest"]:
                outcome.failures.append("outputs differ from the first op of the round")
            if outcome.failures:
                result["failed"] += 1
                result["failures"].extend(outcome.failures[:3])
            # Only ops that passed their checks are timed samples.
            if not outcome.failures:
                for kind, value in meter.samples.items():
                    key = f"{kind}_traced" if traced else kind
                    result["samples"].setdefault(key, []).append(value)
            if traced and tracer.roots:
                totals = layers.op_layers(tracer.roots[0])
                totals.update(outcome.counts)
                if workload.pool is not None:
                    after = workload.pool.stats
                    for key in layers.POOL_COUNTERS:
                        totals[f"pool.{key}"] = float(after[key] - before.get(key, 0))
                result["layers"].append(totals)
            slots.append(perf_counter() - slot_start)
            if not traced:
                result["timed_s"] += slots[-1]
    finally:
        workload.close()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = usage / 1024.0  # ru_maxrss is in KiB on Linux
    result["n_workers"] = workloads.n_workers()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--launched", type=float, default=None,
                        help="epoch seconds at which the parent started this process")
    args = parser.parse_args(argv)
    result = run_round(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        started=args.launched,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
