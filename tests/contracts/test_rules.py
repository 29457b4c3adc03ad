"""Fixture-based tests of the rule battery: one violating and one clean
snippet per rule id, analysed through virtual paths so each rule's package
scoping is exercised exactly as on the real tree."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.contracts import analyze_source, default_rules
from repro.contracts.rules import rule_catalog

ALL_RULE_IDS = {
    "DET001", "DET002", "DET003", "FORK001", "MSG001", "API001", "RES001", "OBS001",
}  # fmt: skip


def run(source: str, virtual_path: str):
    """``(active, suppressed)`` findings of ``source`` at ``virtual_path``."""
    return analyze_source(
        textwrap.dedent(source),
        Path(virtual_path),
        default_rules(),
        display_path=virtual_path,
    )


def rule_ids(findings) -> set:
    return {finding.rule_id for finding in findings}


class TestBattery:
    def test_catalog_covers_the_documented_battery(self):
        assert {rule_id for rule_id, _ in rule_catalog()} == ALL_RULE_IDS

    def test_clean_file_has_no_findings(self):
        active, suppressed = run(
            """
            import numpy as np

            def centroids(points):
                return np.asarray(points).mean(axis=0)
            """,
            "src/repro/cluster/helpers.py",
        )
        assert active == [] and suppressed == []


class TestDET001UnseededRandom:
    def test_flags_unseeded_rng_sources(self):
        active, _ = run(
            """
            import random

            import numpy as np
            from numpy.random import default_rng

            def jitter(points):
                noise = np.random.rand(len(points))          # global-state sampler
                rng = default_rng()                           # bare default_rng
                other = np.random.default_rng(seed=None)      # explicit None seed
                return noise + rng.normal() + other.normal() + random.random()
            """,
            "src/repro/geometry/jitter.py",
        )
        det = [f for f in active if f.rule_id == "DET001"]
        assert len(det) == 4
        assert {f.line for f in det} == {8, 9, 10, 11}

    def test_seeded_generators_and_test_code_are_clean(self):
        source = """
        import numpy as np

        def jitter(points, seed):
            rng = np.random.default_rng(seed)
            fixed = np.random.default_rng(1234)
            return rng.normal(size=len(points)) + fixed.normal()
        """
        active, _ = run(source, "src/repro/geometry/jitter.py")
        assert rule_ids(active) == set()
        # The same unseeded code is fine inside tests/ and benchmarks/.
        noisy = "import numpy as np\nx = np.random.rand(3)\n"
        for exempt in ("tests/geometry/test_jitter.py", "benchmarks/bench_jitter.py"):
            active, _ = analyze_source(noisy, Path(exempt), default_rules(), exempt)
            assert active == []


class TestDET002WallClock:
    def test_flags_clock_and_entropy_in_numeric_packages(self):
        active, _ = run(
            """
            import os
            import time
            from time import perf_counter

            def assemble(n):
                start = time.perf_counter()
                tag = os.urandom(8)
                tick = perf_counter()
                return start, tag, tick
            """,
            "src/repro/cluster/assembly_probe.py",
        )
        det = [f for f in active if f.rule_id == "DET002"]
        assert len(det) == 3

    def test_out_of_scope_and_allowlisted_modules_are_clean(self):
        source = "import time\n\ndef t():\n    return time.perf_counter()\n"
        for clean in (
            "src/repro/campaign/probe.py",      # package not in DET002 scope
            "src/repro/timing.py",              # the sanctioned facade itself
        ):
            active, _ = run(source, clean)
            assert rule_ids(active) == set(), clean

    def test_former_measurement_module_path_is_in_scope(self):
        # The Section 6 studies moved to repro.experiments.scaling; only
        # repro.timing may read the clock inside the numeric packages.
        source = "import time\n\ndef t():\n    return time.perf_counter()\n"
        active, _ = run(source, "src/repro/parallel/speedup.py")
        assert [f.rule_id for f in active] == ["DET002"]

    def test_wall_clock_facade_is_sanctioned_in_scope(self):
        active, _ = run(
            """
            from repro.timing import wall_clock

            def assemble(n):
                start = wall_clock()
                return wall_clock() - start
            """,
            "src/repro/bem/probe.py",
        )
        assert active == []


class TestDET003AccumulationOrder:
    def test_flags_unordered_reductions_in_operator_modules(self):
        active, _ = run(
            """
            import numpy as np

            def reduce_partials(partials, blocks):
                total = sum(partials.values())
                acc = 0.0
                for block in set(blocks):
                    acc += block.weight
                tree = np.add.reduce(blocks)
                return total, acc, tree
            """,
            "src/repro/cluster/operator.py",
        )
        det = [f for f in active if f.rule_id == "DET003"]
        assert len(det) == 3
        assert all("repro.cluster.operator.pairwise_tree_sum" in f.message for f in det)

    def test_ordered_iteration_and_out_of_scope_modules_are_clean(self):
        source = """
        def reduce_partials(partials, blocks):
            total = sum(partials[key] for key in sorted(partials))
            acc = 0.0
            for block in sorted(set(blocks)):
                acc += block
            return total + acc + sum(list(blocks))
        """
        active, _ = run(source, "src/repro/parallel/block_backend.py")
        assert rule_ids(active) == set()
        # Same unordered code outside the operator/matvec modules is not
        # DET003's business (campaign bookkeeping may fold dicts).
        unordered = "def f(d):\n    return sum(d.values())\n"
        active, _ = run(unordered, "src/repro/campaign/bookkeeping.py")
        assert active == []


class TestFORK001ForkSafeLocks:
    def test_flags_locks_without_fork_rearm(self):
        active, _ = run(
            """
            import threading

            _LOCK = threading.Lock()

            class Cache:
                def __init__(self):
                    self._lock = threading.RLock()
            """,
            "src/repro/parallel/cachelet.py",
        )
        det = [f for f in active if f.rule_id == "FORK001"]
        assert len(det) == 2

    def test_register_at_fork_module_is_clean(self):
        active, _ = run(
            """
            import os
            import threading

            _LOCK = threading.Lock()

            def _rearm():
                global _LOCK
                _LOCK = threading.Lock()

            os.register_at_fork(after_in_child=_rearm)
            """,
            "src/repro/parallel/cachelet.py",
        )
        assert rule_ids(active) == set()


class TestMSG001WorkerTaskPurity:
    def test_flags_lambdas_and_nested_functions_at_dispatch_sites(self):
        active, _ = run(
            """
            from repro.parallel.executor import ScheduledExecutor

            def assemble(pool, shards, schedule, operator):
                def shard_task(index):
                    return operator.apply(index)

                pool.run_partition(shard_task, shards, batch_fn=lambda ix: list(ix))
                with ScheduledExecutor(lambda i: i, n_workers=2) as executor:
                    executor.run(shards, schedule)
            """,
            "src/repro/parallel/dispatch_probe.py",
        )
        msg = [f for f in active if f.rule_id == "MSG001"]
        assert len(msg) == 3  # nested def + two lambdas

    def test_module_level_tasks_are_clean(self):
        active, _ = run(
            """
            from repro.parallel.executor import ScheduledExecutor

            class ShardTask:
                def __call__(self, index):
                    return index

            def assemble(pool, shards, schedule):
                task = ShardTask()
                pool.run_partition(task, shards, batch_fn=ShardTask())
                with ScheduledExecutor(task, n_workers=2) as executor:
                    executor.run(shards, schedule)
            """,
            "src/repro/parallel/dispatch_probe.py",
        )
        assert rule_ids(active) == set()


class TestRES001ResilientChannels:
    def test_flags_unbounded_reads_and_swallowed_errors(self):
        active, _ = run(
            """
            import multiprocessing.connection

            def drain(connections):
                ready = multiprocessing.connection.wait(connections)
                for connection in ready:
                    try:
                        message = connection.recv()
                    except Exception:
                        pass
            """,
            "src/repro/parallel/drain_probe.py",
        )
        res = [f for f in active if f.rule_id == "RES001"]
        assert len(res) == 3  # untimed wait + bare recv + except-and-ignore

    def test_bare_except_and_import_aliases_are_flagged(self):
        active, _ = run(
            """
            from multiprocessing import connection as mpc

            def drain(connections, pipe):
                mpc.wait(connections)
                try:
                    pipe.recv()
                except:
                    pass
            """,
            "src/repro/parallel/alias_probe.py",
        )
        res = [f for f in active if f.rule_id == "RES001"]
        assert len(res) == 3

    def test_bare_recv_bytes_is_flagged(self):
        active, _ = run(
            """
            from repro.resilience.channel import wait_readable

            def drain(connections):
                for connection in wait_readable(connections, timeout=0.2):
                    frame = connection.recv_bytes()
            """,
            "src/repro/parallel/frame_probe.py",
        )
        res = [f for f in active if f.rule_id == "RES001"]
        assert len(res) == 1
        assert "recv_bytes()" in res[0].message

    def test_channel_helpers_and_handled_errors_are_clean(self):
        active, _ = run(
            """
            from repro.resilience.channel import recv_frame, recv_message, wait_readable

            def drain(connections, connection, health):
                ready = wait_readable(connections, timeout=0.2)
                try:
                    frames = [recv_frame(ready_one, True) for ready_one in ready]
                    return recv_message(connection, timeout=5.0), frames
                except Exception as error:
                    health.bump("retries", error=repr(error))
                    raise
            """,
            "src/repro/parallel/clean_probe.py",
        )
        assert rule_ids(active) == set()

    def test_out_of_scope_modules_and_tests_are_exempt(self):
        source = """
        def drain(connection):
            try:
                return connection.recv()
            except Exception:
                pass
        """
        for exempt in (
            "src/repro/resilience/channel_probe.py",  # outside repro.parallel
            "tests/parallel/test_drain.py",           # test code
        ):
            active, _ = run(source, exempt)
            assert rule_ids(active) == set(), exempt


class TestAPI001ExactFloatComparison:
    def test_flags_float_equality(self):
        active, _ = run(
            """
            def classify(x, z):
                if x == 1.0:
                    return "unit"
                if float(z) != 0.0:
                    return "sloped"
                return "flat"
            """,
            "src/repro/geometry/classify.py",
        )
        api = [f for f in active if f.rule_id == "API001"]
        assert len(api) == 2

    def test_tolerant_and_integer_comparisons_are_clean(self):
        active, _ = run(
            """
            import numpy as np

            def classify(x, z, n):
                if n == 1 or x <= 0.0:
                    return "edge"
                return bool(np.isclose(z, 0.0))
            """,
            "src/repro/geometry/classify.py",
        )
        assert rule_ids(active) == set()


class TestOBS001PhaseBookkeeping:
    def test_flags_timing_dict_literal_and_raw_delta(self):
        active, _ = run(
            """
            from repro.timing import wall_clock

            def run_pipeline(work):
                timings = {"assemble_seconds": 0.0, "solve_seconds": 0.0}
                start = wall_clock()
                work()
                timings["assemble_seconds"] = wall_clock() - start
                start = wall_clock()
                work()
                timings["solve_seconds"] += wall_clock() - start
                return timings
            """,
            "src/repro/campaign/pipeline.py",
        )
        obs = [f for f in active if f.rule_id == "OBS001"]
        assert len(obs) == 3  # the literal plus both subscript deltas

    def test_flags_seconds_key_on_any_dict_name(self):
        active, _ = run(
            """
            from repro.timing import wall_clock

            def run(work, metadata):
                start = wall_clock()
                work()
                metadata["generation_seconds"] = wall_clock() - start
            """,
            "src/repro/bem/helpers.py",
        )
        obs = [f for f in active if f.rule_id == "OBS001"]
        assert len(obs) == 1

    def test_sanctioned_helpers_and_unrelated_stores_are_clean(self):
        active, _ = run(
            """
            from repro.timing import PhaseTimer, Timer, wall_clock

            def run_pipeline(work):
                phases = PhaseTimer()
                with phases.phase("assemble"):
                    work()
                storage = Timer()
                with storage:
                    work()
                phases.add("results_storage", storage.elapsed)
                timings = phases.as_dict()
                timings["results_storage"] = phases["results_storage"]
                deadlines = {}
                deadlines[3] = wall_clock() + 5.0  # scheduling deadline, not timing
                cache_stats = {"hits": 0, "misses": 0}  # counters, no *_seconds
                return timings, deadlines, cache_stats
            """,
            "src/repro/campaign/pipeline.py",
        )
        assert rule_ids(active) == set()

    def test_out_of_scope_and_allowlisted_modules_are_clean(self):
        source = """
            from repro.timing import wall_clock

            def measure(work):
                timings = {"wall_seconds": 0.0}
                start = wall_clock()
                work()
                timings["wall_seconds"] = wall_clock() - start
                return timings
            """
        for clean in (
            "src/repro/experiments/probe.py",   # package not in OBS001 scope
            "benchmarks/bench_probe.py",        # measurement code is exempt
        ):
            active, _ = run(source, clean)
            assert rule_ids(active) == set(), clean
