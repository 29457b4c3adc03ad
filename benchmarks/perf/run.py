"""The repository benchmark: four seeded workloads, end-to-end and per-layer metrics.

One workload, as ``BENCHMARK.json``'s command runs it (the last stdout line
is the result object)::

    python3 benchmarks/perf/run.py --workload barbera-design --seed 0 --seconds 30 --trace 0

Every workload, untraced then traced, with a table on stderr and a results
file for ``compare.py``::

    python3 benchmarks/perf/run.py --seed 0 [--out results.json] [--quick]

A run is :data:`ROUNDS` rounds.  Each round is a fresh process per workload
(in seed-shuffled order when several workloads run) that sets up, warms up
once on the workload's smallest input, then runs ops for its share of
``--seconds``.  Samples are pooled across rounds; set-up time is the median
over rounds.  With ``--trace 1`` ops alternate untraced and traced and
the per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import perfstats  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
#: Rounds per run: fresh processes that spread host drift over the run.
ROUNDS = 4
#: One BLAS thread per process: with the pool's workers a run then never
#: starts more busy threads than it has cores.
BLAS_PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
#: A single-workload run ends within three minutes, crashed rounds included.
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("barbera-design", "paper-parallel", "hier-grid", "campaign-sweep")


def host_probe() -> float:
    """A fixed numpy workload timed between rounds (diagnostic only)."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    start = perf_counter()
    for _ in range(8):
        a = np.tanh(a @ a / 256.0)
    return perf_counter() - start


def run_child(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
              deadline: float) -> dict:
    """One round in a fresh process; a crash or timeout is one failed op."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--launched", repr(time.time()),
    ]
    if quick:
        command.append("--quick")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True, text=True,
        env={**os.environ, **BLAS_PINNED},
    )
    try:
        stdout, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the round and its pool workers
        process.communicate()
        return {"workload": workload, "crashed": "timed out", "attempted": 1, "failed": 1}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"workload": workload, "crashed": f"exit code {process.returncode}",
                "attempted": 1, "failed": 1}
    return json.loads(lines[-1])


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """End-to-end metrics of the pooled rounds (empty when no op passed).

    ``op_p50_s`` and ``ops_per_s`` come from the untraced ops only.
    ``ops_per_s`` is closed-loop throughput: ops that passed their checks over
    the timed wall of the untraced loop iterations, which also holds the
    per-op cache clearing and checks and, on ``paper-parallel``, the serial
    baseline slots.
    """
    ops = [value for r in rounds for value in r["samples"].get("op", [])]
    if not ops:
        return {}
    return {
        "setup_s": perfstats.median([r["setup_s"] for r in rounds]),
        "op_p50_s": perfstats.median(ops),
        "ops_per_s": len(ops) / sum(r["timed_s"] for r in rounds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def aggregate(workload: str, rounds: list[dict], probes: list[float], trace: bool,
              spec: dict) -> dict:
    """Fold the rounds of one workload into the reported result."""
    import layers

    ok = [r for r in rounds if "crashed" not in r]
    failures = [f"round crashed: {r['crashed']}" for r in rounds if "crashed" in r]
    digests = {r["digest"] for r in ok if r.get("digest")}
    if len(digests) > 1:
        failures.append("outputs differ between rounds")
    for r in ok:
        failures.extend(r["failures"])
    samples: dict[str, list[float]] = {}
    for r in ok:
        for kind, values in r["samples"].items():
            samples.setdefault(kind, []).extend(values)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds) + (len(digests) - 1 if digests else 0)
    ops = samples.get("op", [])
    metrics = end_to_end(ok)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    extra = {name: value for name, value in metrics.items() if name not in names}
    if ops:
        tail = perfstats.tail_percentile(ops)
        if tail is not None:
            extra[f"op_p{tail[0]}_s"] = tail[1]
        for kind in ("analysis", "raster", "serial"):
            if samples.get(kind):
                extra[f"{kind}_p50_s"] = perfstats.median(samples[kind])
        if samples.get("serial"):
            extra["parallel_speedup"] = extra["serial_p50_s"] / metrics["op_p50_s"]
    if trace and ops:
        totals = [t for r in ok for t in r["layers"]]
        n_workers = ok[0]["n_workers"]
        layer = layers.layer_metrics(totals, n_workers)
        traced = samples.get("op_traced", [])
        layer["trace.overhead_frac"] = (
            perfstats.median(traced) / metrics["op_p50_s"] - 1.0 if traced else 0.0
        )
        layer["host.probe_s"] = perfstats.median(probes)
        serial = extra.get("serial_p50_s")
        layer["parallel.executor.speedup"] = extra.get("parallel_speedup", 0.0)
        layer["parallel.executor.overhead_frac"] = (
            (metrics["op_p50_s"] - serial / n_workers) / metrics["op_p50_s"] if serial else 0.0
        )
        metrics = {**metrics, **layer}
    missing = [name for name in names if name not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "workload": workload,
        "trace": int(trace),
        "correct": not failures and failed == 0,
        "attempted": max(attempted, 1),
        "failed": max(failed, 1) if failures else failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names if name in metrics},
        "samples_n": {kind: len(values) for kind, values in samples.items()},
        "samples": samples,
        "extra": extra,
        # compare.py's samples when a side has a single run.
        "rounds": [end_to_end([r]) for r in ok],
        "probes": probes,
        "failures": failures[:20],
    }


def run_workloads(names: list[str], seed: int, seconds: float, trace: bool, quick: bool,
                  deadline: float | None = None) -> dict[str, dict]:
    """:data:`ROUNDS` rounds over ``names``, shuffled per round by the seed."""
    spec = json.loads(BENCHMARK.read_text())
    shuffle = random.Random(seed)
    per_round = seconds / ROUNDS
    results: dict[str, list[dict]] = {name: [] for name in names}
    probes: list[float] = []
    for _ in range(ROUNDS):
        order = list(names)
        shuffle.shuffle(order)
        for name in order:
            probes.append(host_probe())
            limit = deadline if deadline is not None else time.monotonic() + 3600.0
            results[name].append(run_child(name, seed, per_round, trace, quick, limit))
    return {name: aggregate(name, results[name], probes, trace, spec) for name in names}


def describe(result: dict) -> str:
    lines = [f"{result['workload']} (trace={result['trace']}): correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"samples={result['samples_n']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in result["extra"].items():
        lines.append(f"  {name:40s} {value:14.6g} (reported only)")
    lines.extend(f"  FAILED: {failure}" for failure in result["failures"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="toy problem sizes")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run's results to a JSON file (for compare.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINNED)  # before host_probe loads numpy
    sys.path.insert(0, str(ROOT / "src"))  # layers.py rolls traces up with repro.observe
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(BENCHMARK.read_text())["run_seconds"])

    if args.workload is not None:
        deadline = time.monotonic() + DEADLINE_S
        result = run_workloads([args.workload], args.seed, seconds, bool(args.trace),
                               args.quick, deadline)[args.workload]
        results = [result]
    else:
        results = []
        for trace in (False, True):
            # The traced pass only feeds the per-layer table: half the time.
            batch = run_workloads(list(WORKLOAD_NAMES), args.seed,
                                  seconds / 2 if trace else seconds, trace, args.quick)
            results.extend(batch.values())
    for result in results:
        print(describe(result), file=sys.stderr)
    if args.out is not None:
        record = {"seed": args.seed, "nproc": os.cpu_count(), "seconds": seconds,
                  "quick": args.quick, "runs": results}
        previous = json.loads(args.out.read_text()) if args.out.is_file() else {"runs": []}
        previous["runs"].extend({**run, "seed": args.seed} for run in results)
        previous.update({k: v for k, v in record.items() if k != "runs"})
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(previous, indent=1) + "\n")
    final = results[-1] if args.workload is not None else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    print(json.dumps({key: final[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
