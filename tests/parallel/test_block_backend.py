"""Golden determinism suite of the hierarchical block builder.

The contract under test (see :mod:`repro.parallel.block_backend`): the
in-process build (``workers=0``), forked builds for workers in {1, 2, 3, 7}
and a persistent ``WorkerPool(2)`` build are **bit-identical** — matvec,
diagonal, ``todense`` and the PCG solution with its iteration count — on a
flat, a rodded and a far-field mesh (canonical matvec segments + pairwise
tree-sum reduction in fixed segment order).  Worker counts beyond the host's
cores run oversubscribed (1-core hosts included) and must change nothing, and
so must the pool backend.  No step of an assembly, a matvec, a PCG solve or a
campaign starts a thread: the process runtime is one thread per process.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bem.assembly import AssemblyOptions, assemble_system
from repro.cluster import HierarchicalControl, HierarchicalOperator
from repro.cluster.block_assembly import (
    compress_far_block,
    far_dof_halves,
    near_block_pair_columns,
    upper_triangle_scatter,
)
from repro.cluster.operator import pairwise_tree_sum
from repro.exceptions import ParallelExecutionError
from repro.parallel.pool import WorkerPool
from repro.solvers import solve_system

WORKER_COUNTS = (1, 2, 3, 7)

#: Small leaves force a real block hierarchy even on the deliberately small
#: flat and rodded meshes (near blocks plus admissible blocks, which all fall
#: back to dense there).
LEAF_SIZE = 6
#: Leaves of the far-field mesh: large enough that ACA pays, so the operator
#: has several far segments.
FAR_LEAF_SIZE = 16


def _control(workers: int = 0, leaf_size: int = LEAF_SIZE) -> HierarchicalControl:
    return HierarchicalControl(leaf_size=leaf_size, workers=workers)


def _assemble(mesh, soil, control: HierarchicalControl, pool=None):
    return assemble_system(
        mesh, soil, gpr=1000.0, options=AssemblyOptions(hierarchical=control), pool=pool
    )


@pytest.fixture(scope="module")
def far_field_mesh(two_layer_soil):
    """A rodded 4 x 4 grid at 1 m elements: its operator has far segments.

    On the flat and rodded meshes every admissible block falls back to dense,
    so only a mesh like this one reaches the far-segment partials of the matvec.
    """
    from repro.geometry.builder import GridBuilder
    from repro.geometry.discretize import discretize_grid

    builder = GridBuilder(
        depth=0.6, conductor_radius=5.0e-3, rod_radius=7.0e-3, rod_length=2.0, name="far"
    )
    grid = builder.rectangular_mesh(24.0, 24.0, 4, 4)
    builder.add_rods(grid, [(0.0, 0.0), (24.0, 0.0), (0.0, 24.0), (24.0, 24.0)])
    return discretize_grid(grid, soil=two_layer_soil, max_element_length=1.0)


@pytest.fixture(scope="module", params=["flat", "rodded", "far-field"])
def golden_case(request, small_mesh, uniform_soil, rodded_mesh, two_layer_soil, far_field_mesh):
    """In-process, forked and pooled systems of one mesh."""
    mesh, soil, leaf_size = {
        "flat": (small_mesh, uniform_soil, LEAF_SIZE),
        "rodded": (rodded_mesh, two_layer_soil, LEAF_SIZE),
        "far-field": (far_field_mesh, two_layer_soil, FAR_LEAF_SIZE),
    }[request.param]
    serial = _assemble(mesh, soil, _control(leaf_size=leaf_size))
    if request.param == "far-field":
        assert serial.matrix.stats["n_far_segments"] > 1
    sharded = {
        workers: _assemble(mesh, soil, _control(workers, leaf_size))
        for workers in WORKER_COUNTS
    }
    with WorkerPool(2) as pool:
        pooled = _assemble(mesh, soil, _control(leaf_size=leaf_size), pool=pool)
    return {"name": request.param, "serial": serial, "sharded": sharded, "pooled": pooled}


def _engines(golden_case) -> dict:
    """Every system to compare bitwise against the in-process ``workers=0`` one."""
    return {**golden_case["sharded"], "pool": golden_case["pooled"]}


def _probe_vectors(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(20260726)
    return [np.ones(n), np.linspace(-1.0, 1.0, n), rng.standard_normal(n)]


class TestGoldenDeterminism:
    def test_operator_types(self, golden_case):
        assert isinstance(golden_case["serial"].matrix, HierarchicalOperator)
        for system in _engines(golden_case).values():
            assert isinstance(system.matrix, HierarchicalOperator)

    def test_matvec_matches_serial_engine(self, golden_case):
        serial_op = golden_case["serial"].matrix
        for x in _probe_vectors(serial_op.shape[0]):
            reference = serial_op.matvec(x)
            for engine, system in _engines(golden_case).items():
                assert np.array_equal(system.matrix.matvec(x), reference), engine

    def test_matvec_bitwise_identical_across_worker_counts(self, golden_case):
        systems = golden_case["sharded"]
        reference = systems[WORKER_COUNTS[0]].matrix
        for x in _probe_vectors(reference.shape[0]):
            expected = reference.matvec(x)
            for workers in WORKER_COUNTS[1:]:
                result = systems[workers].matrix.matvec(x)
                assert np.array_equal(expected, result), workers

    def test_diagonal_bitwise_identical_across_worker_counts(self, golden_case):
        expected = golden_case["serial"].matrix.diagonal()
        for engine, system in _engines(golden_case).items():
            assert np.array_equal(expected, system.matrix.diagonal()), engine

    def test_pcg_solutions_and_iterates_match_serial(self, golden_case):
        serial = golden_case["serial"]
        reference = solve_system(serial.matrix, serial.rhs, method="pcg")
        assert reference.converged
        for engine, system in _engines(golden_case).items():
            solved = solve_system(system.matrix, system.rhs, method="pcg")
            assert np.array_equal(solved.solution, reference.solution), engine
            assert solved.iterations == reference.iterations, engine

    def test_pcg_bitwise_identical_across_worker_counts(self, golden_case):
        systems = golden_case["sharded"]
        reference = solve_system(
            systems[WORKER_COUNTS[0]].matrix, systems[WORKER_COUNTS[0]].rhs, method="pcg"
        )
        for workers in WORKER_COUNTS[1:]:
            solved = solve_system(systems[workers].matrix, systems[workers].rhs, method="pcg")
            assert np.array_equal(solved.solution, reference.solution), workers
            assert solved.iterations == reference.iterations, workers

    def test_todense_matches_serial_engine(self, golden_case):
        serial_dense = golden_case["serial"].matrix.todense()
        for engine, system in _engines(golden_case).items():
            assert np.array_equal(system.matrix.todense(), serial_dense), engine

    def test_diagonal_matches_dense(self, golden_case):
        operator = golden_case["sharded"][2].matrix
        dense = operator.todense()
        assert np.allclose(operator.diagonal(), np.diag(dense), rtol=0, atol=1e-12 * np.abs(dense).max())

    def test_oversubscription_flagged(self, golden_case):
        import os

        available = os.cpu_count() or 1
        for workers, system in golden_case["sharded"].items():
            stats = system.metadata["hierarchical"]
            assert stats["workers"] == workers
            assert stats["oversubscribed"] is (workers > available)

    def test_sharded_metadata_backend(self, golden_case):
        assert golden_case["serial"].metadata["backend"] == "hierarchical"
        for system in _engines(golden_case).values():
            assert system.metadata["backend"] == "hierarchical"


def _sparse_reference(operator):
    """scipy.sparse matrices of the operator's stored entries (the test oracle).

    The near upper triangle, then per far segment the tall ``(U, V)`` factors
    with one column per rank-one term of its blocks.
    """
    from scipy import sparse

    near = operator.near
    n = operator.shape[0]
    upper = sparse.csr_matrix((near.vals, (near.rows, near.cols)), shape=(n, n))
    # Per segment: COO parts of U and of V, and the next free term column.
    coo = [([], []) for _ in range(operator.far.n_segments)]
    next_term = [0] * operator.far.n_segments
    for segment, row_dofs, u, col_dofs, v in operator.far.blocks():
        rank = u.shape[0]
        terms = next_term[segment] + np.arange(rank)
        next_term[segment] += rank
        for parts, dofs, values in zip(coo[segment], (row_dofs, col_dofs), (u, v)):
            parts.append((np.tile(dofs, rank), np.repeat(terms, dofs.size), values.ravel()))

    def tall(parts, n_terms):
        rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n_terms))

    return upper, [
        (tall(u_parts, terms), tall(v_parts, terms))
        for (u_parts, v_parts), terms in zip(coo, next_term)
    ]


def _relative_gap(result: np.ndarray, reference: np.ndarray) -> float:
    """Norm-wise relative difference (2-norm of vectors, Frobenius of matrices)."""
    return float(np.linalg.norm(result - reference) / np.linalg.norm(reference))


class TestPlainNumpyStorage:
    """The operator's NumPy storage against a scipy.sparse oracle of the same entries."""

    def test_storage_layout(self, golden_case):
        operator = golden_case["serial"].matrix
        near, far = operator.near, operator.far
        assert near.row_ids.dtype == np.intp and near.cols.dtype == np.intp
        assert near.vals.dtype == np.float64
        # Unique pairs sorted by (row, col), upper triangle only.
        assert np.all(np.diff(near.rows * operator.shape[0] + near.cols) > 0)
        assert np.all(near.rows <= near.cols)
        # Runs hold blocks of one rank, ascending.
        ranks = [run.values.shape[0] for run in far.runs]
        assert ranks == sorted(ranks)
        assert far.rows.dtype == np.intp and far.keys.dtype == np.intp
        for segment, row_dofs, u, col_dofs, v in far.blocks():
            assert 0 <= segment < far.n_segments
            # Each half's dofs once, ascending; values term-major.
            assert np.all(np.diff(row_dofs) > 0) and np.all(np.diff(col_dofs) > 0)
            assert u.shape == (len(u), row_dofs.size) and v.shape == (len(u), col_dofs.size)

    def test_matvec_diagonal_todense_match_sparse_reference(self, golden_case):
        operator = golden_case["serial"].matrix
        near, far = _sparse_reference(operator)
        near_diagonal = near.diagonal()
        dense = near.toarray()
        dense = dense + dense.T - np.diag(near_diagonal)
        diagonal = near_diagonal.copy()
        for u, v in far:
            dense += (u @ v.T + v @ u.T).toarray()
            diagonal += 2.0 * np.asarray(u.multiply(v).sum(axis=1)).ravel()
        assert _relative_gap(operator.todense(), dense) <= 1e-15
        assert _relative_gap(operator.diagonal(), diagonal) <= 1e-15
        for x in _probe_vectors(operator.shape[0]):
            # Same partials, same fixed-order reduction as the operator.
            expected = pairwise_tree_sum(
                [near @ x + near.T @ x - near_diagonal * x]
                + [u @ (v.T @ x) + v @ (u.T @ x) for u, v in far]
            )
            assert _relative_gap(operator.matvec(x), expected) <= 1e-15

    def test_memory_bytes_counts_the_stored_arrays(self, golden_case):
        operator = golden_case["serial"].matrix
        near, far = operator.near, operator.far
        arrays = [near.row_ids, near.row_ptr, near.cols, near.vals, near.diagonal, near.chunks]
        arrays += [far.rows, far.keys]
        for run in far.runs:
            arrays += [run.values, run.starts, run.sizes]
        # Plus the operator's float64 diagonal.
        stored = sum(array.nbytes for array in arrays) + 8 * operator.shape[0]
        assert operator.memory_bytes() == stored
        assert operator.stored_entries() == near.nnz + sum(
            run.values.size for run in far.runs
        )


def _block_outcomes(mesh, soil, leaf_size: int) -> dict:
    """Every block outcome of one mesh, computed in process by the worker task."""
    from repro.bem.elements import DofManager
    from repro.bem.influence import ColumnAssembler
    from repro.cluster.block_assembly import build_block_profile
    from repro.kernels.base import kernel_for_soil
    from repro.parallel.block_backend import _BlockShardTask

    options = AssemblyOptions(hierarchical=_control(leaf_size=leaf_size))
    assembler = ColumnAssembler(
        mesh,
        kernel_for_soil(soil, options.series_control),
        DofManager(mesh, options.element_type),
        options.n_gauss,
        adaptive=options.adaptive,
    )
    profile = build_block_profile(assembler, options.hierarchical)
    task = _BlockShardTask(
        assembler,
        profile.tree,
        profile.partition.blocks,
        options.hierarchical,
        profile.stopping,
        profile.dof_matrix,
        profile.n_dofs,
    )
    return {
        "assembler": assembler,
        "profile": profile,
        "control": options.hierarchical,
        "outcomes": [task(index) for index in range(len(profile.partition.blocks))],
    }


class TestCompactNearField:
    """Near and fallback blocks are summed in the worker before they ship."""

    @pytest.fixture(scope="class", params=["flat", "rodded"])
    def near_case(self, request, small_mesh, uniform_soil, rodded_mesh, two_layer_soil):
        """Every block outcome of one golden mesh, its raw scatter and operator."""
        mesh, soil = {
            "flat": (small_mesh, uniform_soil),
            "rodded": (rodded_mesh, two_layer_soil),
        }[request.param]
        case = _block_outcomes(mesh, soil, LEAF_SIZE)
        near = [outcome for outcome in case["outcomes"] if outcome.kind != "far"]
        assert near
        return {
            "assembler": case["assembler"],
            "profile": case["profile"],
            "near": near,
            "operator": _assemble(mesh, soil, _control()).matrix,
        }

    @staticmethod
    def _raw_triplets(assembler, profile, block):
        """The unsummed upper-triangle scatter of one block's element pairs."""
        tree = profile.tree
        sources, targets = near_block_pair_columns(
            tree.elements_of(block.row), tree.elements_of(block.col), block.is_diagonal
        )
        parts = []
        for source in np.unique(sources):
            targets_k = targets[sources == source]
            ((_, values),) = assembler.column_batch([int(source)], [targets_k])
            parts.append(
                upper_triangle_scatter(
                    int(source), targets_k, values, profile.dof_matrix, profile.nb
                )
            )
        return [np.concatenate(column) for column in zip(*parts)]

    def test_entries_are_unique_int32_upper_pairs(self, near_case):
        for outcome in near_case["near"]:
            assert outcome.rows.dtype == np.int32 and outcome.cols.dtype == np.int32
            assert outcome.vals.dtype == np.float64
            assert np.all(outcome.rows <= outcome.cols)
            # Strictly increasing keys: sorted by (row, col), no pair twice.
            keys = outcome.rows.astype(np.int64) * near_case["profile"].n_dofs + outcome.cols
            assert np.all(np.diff(keys) > 0)

    def test_shipped_entries_bounded_by_near_nnz(self, near_case):
        # Raw element-pair triplets would be 6-10x near_nnz on these meshes.
        # What remains is the overlap between blocks sharing nodes: 2.18x on
        # the 16-dof flat mesh, where every block is near.
        shipped = sum(outcome.rows.size for outcome in near_case["near"])
        assert shipped <= 2.5 * near_case["operator"].stats["near_nnz"]

    def test_near_csr_matches_raw_scatter_sum(self, near_case):
        from scipy import sparse

        profile = near_case["profile"]
        raw = [
            self._raw_triplets(
                near_case["assembler"], profile, profile.partition.blocks[outcome.block_index]
            )
            for outcome in near_case["near"]
        ]
        rows, cols, vals = (np.concatenate(column) for column in zip(*raw))
        shape = (profile.n_dofs, profile.n_dofs)
        reference = sparse.coo_matrix((vals, (rows, cols)), shape=shape).toarray()
        near = near_case["operator"].near.upper_todense()
        scale = np.abs(reference).max()
        assert np.abs(near - reference).max() <= 1e-14 * scale


class TestFarPayload:
    """Far blocks ship their factors summed per dof; the master only packs them."""

    @pytest.fixture(scope="class", params=["flat", "rodded", "far-field"])
    def far_case(
        self, request, small_mesh, uniform_soil, rodded_mesh, two_layer_soil, far_field_mesh
    ):
        mesh, soil, leaf_size = {
            "flat": (small_mesh, uniform_soil, LEAF_SIZE),
            "rodded": (rodded_mesh, two_layer_soil, LEAF_SIZE),
            "far-field": (far_field_mesh, two_layer_soil, FAR_LEAF_SIZE),
        }[request.param]
        case = _block_outcomes(mesh, soil, leaf_size)
        far = [outcome for outcome in case["outcomes"] if outcome.kind == "far"]
        if request.param == "far-field":
            assert far
        return {**case, "mesh": mesh, "soil": soil, "leaf_size": leaf_size, "far": far}

    def test_helper_sums_factor_rows_per_dof(self):
        rng = np.random.default_rng(24)
        row_dofs, col_dofs = np.array([3, 1, 3, 5, 1, 1]), np.array([0, 2, 2])
        u, v = rng.standard_normal((6, 3)), rng.standard_normal((3, 3))
        halves = far_dof_halves(row_dofs, u, col_dofs, v, 8)
        for (dofs, values_t), raw_dofs, raw in zip(halves, (row_dofs, col_dofs), (u, v)):
            expected = np.zeros((8, 3))
            np.add.at(expected, raw_dofs, raw)
            assert dofs.dtype == np.int32
            assert np.array_equal(dofs, np.unique(raw_dofs))
            assert np.allclose(values_t.T, expected[dofs], rtol=0.0, atol=1e-15)
        # ACA converges at rank 0 on a block below its pivot floor.
        for dofs, values_t in far_dof_halves(row_dofs, u[:, :0], col_dofs, v[:, :0], 8):
            assert dofs.size == 0 and values_t.T.shape == (0, 0)

    def test_far_outcomes_ship_sorted_unique_int32_dofs(self, far_case):
        n_dofs = far_case["profile"].n_dofs
        for outcome in far_case["far"]:
            for dofs in (outcome.rows, outcome.cols):
                assert dofs.dtype == np.int32
                assert np.all(np.diff(dofs) > 0)
                assert dofs.size == 0 or 0 <= dofs[0] <= dofs[-1] < n_dofs
            assert outcome.u.shape == (outcome.rows.size, outcome.rank)
            assert outcome.v.shape == (outcome.cols.size, outcome.rank)

    def test_far_halves_equal_helper_on_raw_factors(self, far_case):
        profile, tree = far_case["profile"], far_case["profile"].tree
        for outcome in far_case["far"]:
            block = profile.partition.blocks[outcome.block_index]
            factors = compress_far_block(
                far_case["assembler"], tree, block, far_case["control"], profile.stopping
            )
            (rows, u_t), (cols, v_t) = far_dof_halves(
                profile.dof_matrix[tree.elements_of(block.row)].ravel(),
                factors.u,
                profile.dof_matrix[tree.elements_of(block.col)].ravel(),
                factors.v,
                profile.n_dofs,
            )
            for shipped, expected in ((outcome.rows, rows), (outcome.cols, cols)):
                assert shipped.dtype == expected.dtype
                assert shipped.tobytes() == expected.tobytes()
            for shipped, expected in ((outcome.u, u_t.T), (outcome.v, v_t.T)):
                assert shipped.shape == expected.shape
                assert np.ascontiguousarray(shipped).tobytes() == (
                    np.ascontiguousarray(expected).tobytes()
                )

    def test_pooled_master_sums_only_the_near_field(self, far_case, monkeypatch):
        from repro.cluster import block_assembly, operator

        calls = []
        summer = block_assembly.sum_duplicate_pairs

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return summer(*args, **kwargs)

        control = _control(leaf_size=far_case["leaf_size"])
        with WorkerPool(2) as pool:
            # Patched after the fork: only the master's calls are counted.
            monkeypatch.setattr(block_assembly, "sum_duplicate_pairs", counting)
            monkeypatch.setattr(operator, "sum_duplicate_pairs", counting)
            system = _assemble(far_case["mesh"], far_case["soil"], control, pool=pool)
        assert system.metadata["hierarchical"]["backend"] == "pool-process"
        near_blocks = sum(
            1 for outcome in far_case["outcomes"] if outcome.kind != "far" and outcome.rows.size
        )
        # One call, NearField's, over every near block's entries at once.
        assert calls == [near_blocks]

    def test_aca_sampled_entries_match_far_block_spans(self, far_case):
        from repro.observe import Tracer

        tracer = Tracer()
        system = assemble_system(
            far_case["mesh"],
            far_case["soil"],
            gpr=1000.0,
            options=AssemblyOptions(hierarchical=_control(leaf_size=far_case["leaf_size"])),
            tracer=tracer,
        )
        spans = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.name == "block" and span.attributes.get("kind") == "far"
        ]
        expected = sum(int(span.attributes["sampled_entries"]) for span in spans)
        assert system.matrix.stats["aca_sampled_entries"] == expected
        # ACA samples element basis rows; the shipped dof rows are fewer, so
        # a count taken from the payload's shape would read low.
        shipped = sum(
            outcome.rank * (outcome.rows.size + outcome.cols.size)
            for outcome in far_case["far"]
        )
        assert shipped <= expected
        if far_case["far"]:
            assert shipped < expected


class TestBackendEquivalence:
    """Persistent pool backends and block worker counts are bit-identical."""

    @pytest.fixture(scope="class")
    def process_system(self, rodded_mesh, two_layer_soil):
        return _assemble(rodded_mesh, two_layer_soil, _control(workers=2))

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backends_bitwise_equal(self, rodded_mesh, two_layer_soil, process_system, backend):
        with WorkerPool(3, backend=backend) as pool:
            system = _assemble(rodded_mesh, two_layer_soil, _control(), pool=pool)
        assert system.metadata["hierarchical"]["backend"] == f"pool-{backend}"
        x = np.linspace(-1.0, 1.0, system.rhs.size)
        assert np.array_equal(system.matrix.matvec(x), process_system.matrix.matvec(x))

    def test_worker_counts_matvec_bitwise_equal(
        self, rodded_mesh, two_layer_soil, process_system
    ):
        three = _assemble(rodded_mesh, two_layer_soil, _control(workers=3))
        x = np.linspace(-1.0, 1.0, three.rhs.size)
        assert np.array_equal(three.matrix.matvec(x), process_system.matrix.matvec(x))


def _alive_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate()]


class TestOneThreadPerProcess:
    """The library starts no thread: dispatch is one loop over processes."""

    def test_hierarchical_assembly_matvec_and_solve(self, far_field_mesh, two_layer_soil):
        with WorkerPool(2) as pool:
            system = _assemble(
                far_field_mesh, two_layer_soil, _control(leaf_size=FAR_LEAF_SIZE), pool=pool
            )
            # The operator stays alive while the count is taken.
            system.matrix.matvec(np.ones(system.rhs.size))
            solved = solve_system(system.matrix, system.rhs, method="pcg")
            assert solved.converged
            assert threading.active_count() == 1, _alive_threads()

    def test_campaign_with_concurrent_groups(self):
        from repro.campaign import Campaign, GeometryVariant, ScenarioSpec, run_campaign
        from repro.soil.two_layer import TwoLayerSoil
        from repro.soil.uniform import UniformSoil

        grid = GeometryVariant(name="g", width=60.0, height=60.0, nx=10, ny=10, rods="corners")
        soil = TwoLayerSoil(0.005, 0.016, 1.0)
        campaign = Campaign(
            name="one-thread",
            scenarios=(
                ScenarioSpec(name="base", geometry=grid, soil=soil),
                ScenarioSpec(name="hot", geometry=grid, soil=soil, gpr=15_000.0),
                ScenarioSpec(name="uni", geometry=grid, soil=UniformSoil(0.01)),
            ),
            hierarchical=HierarchicalControl(leaf_size=FAR_LEAF_SIZE),
        )
        with WorkerPool(2) as pool:
            result = run_campaign(campaign, pool=pool, group_concurrency=2)
            assert len(result.scenarios) == 3
            assert threading.active_count() == 1, _alive_threads()


class TestMeasureShardedSpeedup:
    def test_rows_and_agreement_fields(self, small_mesh, uniform_soil):
        from repro.experiments.scaling import measure_sharded_speedup

        rows = measure_sharded_speedup(
            small_mesh,
            uniform_soil,
            control=_control(),
            worker_counts=(1, 2),
            gpr=1000.0,
        )
        assert [row["n_workers"] for row in rows] == [0, 1, 2]
        assert [row["backend"] for row in rows] == ["pool-serial", "pool-process", "pool-process"]
        assert rows[0]["speedup"] == 1.0
        for row in rows:
            # Deterministic-reduction contract: every worker count reproduces
            # the in-process solution exactly.
            assert row["solution_rel_error"] == 0.0
            assert row["pcg_iterations"] == rows[0]["pcg_iterations"]

    def test_rejects_hierarchical_options(self, small_mesh, uniform_soil):
        from repro.bem.assembly import AssemblyOptions
        from repro.experiments.scaling import measure_sharded_speedup

        with pytest.raises(ParallelExecutionError):
            measure_sharded_speedup(
                small_mesh,
                uniform_soil,
                options=AssemblyOptions(hierarchical=_control()),
            )


class TestPairwiseTreeSum:
    def test_matches_plain_sum(self):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal(17) for _ in range(5)]
        assert np.allclose(pairwise_tree_sum(arrays), np.sum(arrays, axis=0))

    def test_single_array_passthrough(self):
        x = np.arange(4.0)
        assert np.array_equal(pairwise_tree_sum([x]), x)

    def test_deterministic_tree_order(self):
        arrays = [np.array([1.0e16]), np.array([1.0]), np.array([-1.0e16]), np.array([1.0])]
        # The fixed tree computes (1e16 + 1) + (-1e16 + 1): both inner sums
        # absorb the 1.0 (ulp at 1e16 is 2) and the total is exactly 0.0,
        # whereas left-to-right accumulation would give 1.0.
        assert pairwise_tree_sum(arrays)[0] == 0.0
        assert (((arrays[0][0] + arrays[1][0]) + arrays[2][0]) + arrays[3][0]) == 1.0

    def test_empty_rejected(self):
        from repro.exceptions import ClusterError

        with pytest.raises(ClusterError):
            pairwise_tree_sum([])


class TestRunPartition:
    """The explicit-partition path the block builder dispatches through."""

    def test_collects_all_results(self):
        with WorkerPool(2, backend="serial") as pool:
            outcome = pool.run_partition(lambda i: i * i, [[0, 2], [1, 3]])
        assert outcome.ordered_results() == [0, 1, 4, 9]
        assert outcome.n_chunks == 2
        assert outcome.schedule == "Pool,2"

    def test_empty_shards_skipped(self):
        with WorkerPool(3, backend="serial") as pool:
            outcome = pool.run_partition(lambda i: i + 1, [[], [0], []], label="LPT")
        assert outcome.ordered_results() == [1]
        assert outcome.n_chunks == 1
        assert outcome.schedule == "LPT,1"

    def test_duplicate_assignment_rejected(self):
        with WorkerPool(2, backend="serial") as pool:
            with pytest.raises(ParallelExecutionError):
                pool.run_partition(lambda i: i, [[0, 1], [1, 2]])

    def test_process_backend_round_trip(self):
        with WorkerPool(2) as pool:
            outcome = pool.run_partition(_triple, [[0, 3], [1, 2]])
        assert outcome.ordered_results() == [0, 3, 6, 9]
        assert outcome.backend == "pool-process"

    def test_permuted_partition_times_every_task(self):
        with WorkerPool(2, backend="serial") as pool:
            outcome = pool.run_partition(lambda i: i - 1, [[2, 0], [3, 1]])
        assert outcome.ordered_results() == [-1, 0, 1, 2]
        assert outcome.task_seconds.shape == (4,)
        assert np.all(outcome.task_seconds >= 0.0)


def _triple(index: int) -> int:
    return 3 * index
