"""Element-pair and element-column influence coefficients.

This module computes the paper's Galerkin coefficients (equation (4.5))

    ``R_ji = 1/(4 π γ_b) ∫_Γβ w_j(χ) ∫_Γα Σ_l k^l(χ, ξ) N_i(ξ) dΓα dΓβ``

for the 1D approximated formulation: the outer (test) integral over the target
element β is evaluated with a small Gauss–Legendre rule, while the inner
(trial) integral over the source element α is evaluated *analytically* for
every image term of the layered-soil kernel (the images of a straight segment
are straight segments, see :mod:`repro.geometry.transforms`).

One batched evaluator computes every column of the dense engine and every
near-field pair of the hierarchical engine:

* :meth:`ColumnAssembler.column_batch` — a batch of *source columns*, each
  against the paper's triangle column ``source..M-1`` (one cycle of the
  outer assembly loop, the task Section 6 distributes among processors) or
  against its own target list (the hierarchical near field).  The exact
  engine evaluates triangle columns in one vectorised NumPy pass over
  ``images × targets × Gauss points × sources``; the adaptive engine
  flattens every requested pair into one pass.

Next to it stand the exact reference :func:`element_pair_influence` (a single
(target, source) pair, used by the tests) and the two far-field ACA entry
samplers :meth:`ColumnAssembler.pair_block_row` and
:meth:`ColumnAssembler.adaptive_far_column`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bem.elements import DofManager, ElementType
from repro.bem.geometry_cache import GeometryCache, array_fingerprint, default_geometry_cache
from repro.bem.quadrature import gauss_legendre_rule
from repro.bem.segment_integrals import (
    adaptive_segment_sums,
    image_segment_integrals,
    line_integrals,
)
from repro.constants import DEFAULT_GAUSS_POINTS
from repro.exceptions import AssemblyError
from repro.geometry.discretize import Mesh, MeshElement
from repro.kernels.base import LayeredKernel
from repro.kernels.truncation import (
    AdaptiveControl,
    MergedSeries,
    TruncationPlan,
    i0_upper_bound,
    max_pair_distance,
)

__all__ = ["element_pair_influence", "ColumnAssembler", "BATCH_ELEMENT_BUDGET"]

#: Upper bound on the number of ``images × targets × Gauss × sources`` entries
#: evaluated in one vectorised pass of :meth:`ColumnAssembler.column_batch`.
#: Chosen so the per-pass temporaries stay around a megabyte each and remain
#: cache-resident: interleaved A/B timing on the reference host showed the
#: cache-friendly regime beating larger (DRAM-spilling) batches by 1.1–1.6×
#: on both the coarse and the full Barberá case.
BATCH_ELEMENT_BUDGET: int = 150_000


def element_pair_influence(
    target: MeshElement,
    source: MeshElement,
    kernel: LayeredKernel,
    dof_manager: DofManager,
    n_gauss: int = DEFAULT_GAUSS_POINTS,
) -> np.ndarray:
    """Influence block of a single (target, source) element pair.

    Returns
    -------
    numpy.ndarray
        Block of shape ``(basis_per_element, basis_per_element)``; entry
        ``[j, i]`` couples the ``j``-th test function on the target with the
        ``i``-th trial function on the source.
    """
    series = kernel.image_series(source.layer, target.layer)
    normalization = kernel.normalization(source.layer)

    nodes, weights = gauss_legendre_rule(n_gauss)
    gauss_points = target.p0[None, :] + nodes[:, None] * (target.p1 - target.p0)[None, :]
    outer_weights = weights * target.length
    test_values = dof_manager.shape_values(nodes)  # (G, nb)

    # Image-transformed source end points, shape (L, 3).
    q0 = np.broadcast_to(source.p0, (len(series), 3)).copy()
    q1 = np.broadcast_to(source.p1, (len(series), 3)).copy()
    q0[:, 2] = series.signs * source.p0[2] + series.offsets
    q1[:, 2] = series.signs * source.p1[2] + series.offsets

    # Inner analytic integrals for every (image, Gauss point): shape (L, G).
    i0, i1 = line_integrals(
        gauss_points[None, :, :], q0[:, None, :], q1[:, None, :], min_distance=source.radius
    )
    w0 = np.einsum("l,lg->g", series.weights, i0)
    w1 = np.einsum("l,lg->g", series.weights, i1)

    if dof_manager.element_type is ElementType.CONSTANT:
        trial_integrals = w0[:, None]  # (G, 1)
    else:
        trial_integrals = np.stack((w0 - w1, w1), axis=-1)  # (G, 2)

    block = normalization * np.einsum(
        "g,gj,gi->ji", outer_weights, test_values, trial_integrals
    )
    return block


class ColumnAssembler:
    """Vectorised computation of the influence of source columns on many targets.

    The assembler pre-computes, once per mesh, every per-element array needed by
    the hot loop (Gauss points, lengths, layers, radii) so that each batch
    evaluation is a handful of NumPy calls.  It pickles cleanly for
    process-based parallel assembly; each worker process then evaluates with
    its own geometry cache.
    """

    def __init__(
        self,
        mesh: Mesh,
        kernel: LayeredKernel,
        dof_manager: DofManager,
        n_gauss: int = DEFAULT_GAUSS_POINTS,
        batch_element_budget: int = BATCH_ELEMENT_BUDGET,
        adaptive: AdaptiveControl | None = None,
        geometry_cache: GeometryCache | None = None,
    ) -> None:
        if n_gauss < 1:
            raise AssemblyError("the outer quadrature needs at least one Gauss point")
        if batch_element_budget < 1:
            raise AssemblyError("batch_element_budget must be positive")
        self.mesh = mesh
        self.kernel = kernel
        self.dof_manager = dof_manager
        self.n_gauss = int(n_gauss)
        self.batch_element_budget = int(batch_element_budget)
        self.adaptive = adaptive

        nodes, weights = gauss_legendre_rule(self.n_gauss)
        p0, p1 = mesh.element_endpoints()
        self._p0 = p0
        self._p1 = p1
        self._lengths = mesh.element_lengths()
        self._radii = mesh.element_radii()
        self._layers = mesh.element_layers()
        # Gauss points of every element, shape (M, G, 3).
        self._gauss_points = p0[:, None, :] + nodes[None, :, None] * (p1 - p0)[:, None, :]
        # Outer quadrature weights (including the element length), shape (M, G).
        self._outer_weights = weights[None, :] * self._lengths[:, None]
        # Test function values at the Gauss nodes, shape (G, nb).
        self._test_values = dof_manager.shape_values(nodes)

        self._geometry_cache = geometry_cache
        if adaptive is not None:
            self._init_adaptive()

    # -- adaptive precomputation ----------------------------------------------------

    def _init_adaptive(self) -> None:
        """Pure per-mesh data driving the adaptive evaluation decisions.

        Everything here depends only on the mesh and the kernel — never on
        how callers batch the columns — so adaptive results are identical for
        any batch size and for every parallel backend.
        """
        if self._geometry_cache is None:
            self._geometry_cache = default_geometry_cache()
        p0, p1 = self._p0, self._p1
        self._mesh_fp = array_fingerprint(p0, p1, self._radii)
        mid = 0.5 * (p0 + p1)
        self._mid_xy = mid[:, :2]
        self._half_lengths = 0.5 * self._lengths
        self._z_slope = (p1[:, 2] - p0[:, 2]) / self._lengths
        self._horizontal = np.abs(p1[:, 2] - p0[:, 2]) <= 1.0e-12

        # Per-layer target population summaries (z interval, flat depth, max
        # outer integration length).
        self._layer_z_interval: dict[int, tuple[float, float]] = {}
        self._layer_flat_z: dict[int, float | None] = {}
        self._layer_max_length: dict[int, float] = {}
        for layer in np.unique(self._layers):
            members = np.flatnonzero(self._layers == layer)
            z_values = np.concatenate((p0[members, 2], p1[members, 2]))
            self._layer_z_interval[int(layer)] = (float(z_values.min()), float(z_values.max()))
            flat = bool(np.all(self._horizontal[members])) and np.ptp(z_values) <= 1.0e-12
            self._layer_flat_z[int(layer)] = float(z_values[0]) if flat else None
            self._layer_max_length[int(layer)] = float(self._lengths[members].max())

        self.reference_entry_scale()  # warm the cache once per mesh
        offset_max = max(
            float(np.abs(self.kernel.image_series(int(b), int(c)).offsets).max())
            for b in np.unique(self._layers)
            for c in np.unique(self._layers)
        )
        self._r_max = max_pair_distance(p0, p1, offset_max)
        self._plans: dict[tuple, TruncationPlan] = {}
        self._adaptive_costs: np.ndarray | None = None

    # -- pickling (the geometry cache stays process-local, never shipped) -----------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_geometry_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.adaptive is not None and self._geometry_cache is None:
            self._geometry_cache = default_geometry_cache()

    # -- properties ------------------------------------------------------------------

    @property
    def n_elements(self) -> int:
        """Number of mesh elements."""
        return self.mesh.n_elements

    @property
    def basis_per_element(self) -> int:
        """Local basis functions per element (1 or 2)."""
        return self.dof_manager.element_type.basis_per_element

    def reference_entry_scale(self) -> float:
        """Reference matrix-entry magnitude of the mesh.

        The largest self-influence entry bound (direct image, test integral
        ``~ L/2``, field point on the conductor surface) — the quantity the
        relative tolerances of both the adaptive evaluation layer and the
        hierarchical far-field compression are measured against.
        """
        cached = getattr(self, "_reference_scale", None)
        if cached is not None:
            return cached
        dominant = np.empty(self.n_elements)
        for layer in np.unique(self._layers):
            members = self._layers == layer
            series = self.kernel.image_series(int(layer), int(layer))
            w_max = float(np.abs(series.weights).max())
            dominant[members] = (
                self.kernel.normalization(int(layer))
                * 0.5
                * self._lengths[members]
                * w_max
                * i0_upper_bound(self._lengths[members], self._radii[members])
            )
        self._reference_scale = float(dominant.max())
        return self._reference_scale

    # -- the batched column kernel ------------------------------------------------------

    def column_batch(
        self,
        sources: Sequence[int] | np.ndarray,
        target_lists: Sequence[Sequence[int] | np.ndarray] | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Influence blocks of a batch of source columns.

        Parameters
        ----------
        sources:
            Indices of the source elements (a chunk of the paper's outer loop).
        target_lists:
            ``None`` — every source gets its triangle column ``source..M-1``,
            the task decomposition of the paper — or one target array per
            source (the hierarchical near field).

        Returns
        -------
        list of (targets, blocks)
            One entry per source, in input order: ``targets`` are the target
            indices of the column and ``blocks`` has shape
            ``(len(targets), nb, nb)``; entry ``[t, j, i]`` couples the
            ``j``-th test function on target ``t`` with the ``i``-th trial
            function on the source, as in :func:`element_pair_influence`.

        With the adaptive engine every (source, target) pair of the batch is
        flattened into one vectorised pass, so every evaluation *decision* is
        a function of the pair alone; values agree across batch compositions
        to BLAS reduction round-off (callers needing bit-exact
        reproducibility fix the batch composition, as the per-block assembly
        of :mod:`repro.cluster.block_assembly` does).  The exact engine
        evaluates target lists one source at a time.
        """
        m = self.n_elements
        sources = np.asarray(sources, dtype=int).ravel()
        if target_lists is not None and len(target_lists) != sources.size:
            raise AssemblyError(f"{sources.size} sources but {len(target_lists)} target lists")
        if sources.size == 0:
            return []
        if sources.min() < 0 or sources.max() >= m:
            raise AssemblyError(f"source element indices out of range 0..{m - 1}")
        if target_lists is None:
            targets = [np.arange(int(s), m, dtype=int) for s in sources]
        else:
            targets = [np.array(t, dtype=int).ravel() for t in target_lists]
            for t in targets:
                if t.size and (t.min() < 0 or t.max() >= m):
                    raise AssemblyError(f"target element indices out of range 0..{m - 1}")

        if self.adaptive is not None:
            return list(zip(targets, self._adaptive_batch(sources, targets)))
        if target_lists is not None:
            return [
                (t, self._rectangle_blocks(sources[k : k + 1], t)[0])
                for k, t in enumerate(targets)
            ]

        # Triangle mode: each source couples with the targets source..M-1.
        # Schedule chunks are runs of consecutive indices, so evaluating one
        # rectangle per run (targets run_start..M-1) wastes at most a tiny
        # triangular corner of the rectangle.
        order = np.argsort(sources, kind="stable")
        results: list[tuple[np.ndarray, np.ndarray] | None] = [None] * sources.size
        run: list[int] = []
        for position in order:
            if run and sources[position] > sources[run[-1]] + 1:
                self._emit_triangle_run(sources, run, results)
                run = []
            run.append(int(position))
        if run:
            self._emit_triangle_run(sources, run, results)
        return results  # type: ignore[return-value]

    def _emit_triangle_run(
        self,
        sources: np.ndarray,
        run_positions: list[int],
        results: list,
    ) -> None:
        """Evaluate one run of consecutive sources against shared rectangles.

        The rectangle of a run spans the targets of its *first* source, so the
        sources further into the run waste the triangular corner below their
        own column.  Long runs near the end of the mesh (short columns) are cut
        into sub-runs sized a fraction of the remaining targets, which bounds
        the wasted corner to a few percent of each rectangle.
        """
        m = self.n_elements
        index = 0
        while index < len(run_positions):
            first = int(sources[run_positions[index]])
            remaining = m - first
            sub_size = min(len(run_positions) - index, max(1, remaining // 8))
            sub_positions = run_positions[index : index + sub_size]
            sub_sources = sources[sub_positions]
            targets = np.arange(first, m, dtype=int)
            blocks = self._rectangle_blocks(sub_sources, targets)
            for k, position in enumerate(sub_positions):
                start = int(sub_sources[k]) - first
                results[position] = (targets[start:], blocks[k, start:])
            index += sub_size

    def _rectangle_blocks(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Dense rectangle of influence blocks, shape ``(S, T, nb, nb)``.

        Sources and targets may each span several soil layers; the rectangle is
        evaluated per (source layer, field layer) group because each group uses
        a distinct image series.  Groups larger than the memory budget are cut
        into source sub-batches.
        """
        nb = self.basis_per_element
        blocks = np.empty((sources.size, targets.size, nb, nb))
        source_layers = self._layers[sources]
        target_layers = self._layers[targets]
        for source_layer in np.unique(source_layers):
            source_positions = np.flatnonzero(source_layers == source_layer)
            normalization = self.kernel.normalization(int(source_layer))
            for field_layer in np.unique(target_layers):
                target_positions = np.flatnonzero(target_layers == field_layer)
                series = self.kernel.image_series(int(source_layer), int(field_layer))
                per_source = len(series) * target_positions.size * self.n_gauss
                step = max(1, self.batch_element_budget // max(per_source, 1))
                for start in range(0, source_positions.size, step):
                    chunk = source_positions[start : start + step]
                    rect = self._evaluate_group(
                        sources[chunk], targets[target_positions], series, normalization
                    )
                    blocks[np.ix_(chunk, target_positions)] = rect
        return blocks

    def _evaluate_group(
        self,
        source_ids: np.ndarray,
        target_ids: np.ndarray,
        series,
        normalization: float,
    ) -> np.ndarray:
        """One vectorised evaluation over ``images × targets × Gauss × sources``.

        All sources share one layer, all targets share one field layer, so a
        single image series applies.  Returns blocks of shape
        ``(S, T, nb, nb)``.
        """
        n_images = len(series)
        gauss_points = self._gauss_points[target_ids]  # (T, G, 3)
        i0, i1 = image_segment_integrals(
            gauss_points,
            self._p0[source_ids],
            self._p1[source_ids],
            self._lengths[source_ids],
            series.signs,
            series.offsets,
            self._radii[source_ids],
        )  # each (L, T, G, S)

        # Weight-sum over the images: a single BLAS matrix-vector product.
        shape = i0.shape[1:]
        w0 = (series.weights @ i0.reshape(n_images, -1)).reshape(shape)  # (T, G, S)
        w1 = (series.weights @ i1.reshape(n_images, -1)).reshape(shape)

        if self.dof_manager.element_type is ElementType.CONSTANT:
            trial_integrals = w0[..., None]  # (T, G, S, 1)
        else:
            trial_integrals = np.stack((w0 - w1, w1), axis=-1)  # (T, G, S, 2)

        outer = self._outer_weights[target_ids]  # (T, G)
        scaled = outer[:, :, None, None] * trial_integrals  # (T, G, S, nb)
        blocks = np.einsum("gj,tgsi->stji", self._test_values, scaled)
        blocks *= normalization
        return blocks

    # -- the adaptive column kernel -------------------------------------------------------

    def _pair_separation(self, source_index: int, target_ids: np.ndarray) -> np.ndarray:
        """Conservative lower bound of the in-plane pair separation [m]."""
        delta = self._mid_xy[target_ids] - self._mid_xy[source_index]
        distance = np.sqrt(np.einsum("tk,tk->t", delta, delta))
        return np.maximum(
            0.0,
            distance - self._half_lengths[target_ids] - self._half_lengths[source_index],
        )

    def _plan_for(self, source_index: int, field_layer: int) -> TruncationPlan:
        """The (cached) truncation plan of one source element vs one field layer."""
        source_layer = int(self._layers[source_index])
        length = float(self._lengths[source_index])
        z0 = float(self._p0[source_index, 2])
        z1 = float(self._p1[source_index, 2])
        radius = float(self._radii[source_index])
        # The key identifies every scalar of the evaluation (radius included),
        # so all sources sharing a plan can be evaluated in one batch group.
        # Evaluation uses the *rounded* key scalars, never an individual
        # source's raw values: sources agreeing only to the rounding
        # tolerance would otherwise make the result depend on which of them
        # a batch presents first — batch composition must not leak into the
        # entries (the determinism contract of the sharded block backend).
        key = (
            source_layer,
            field_layer,
            round(length, 12),
            round(z0, 12),
            round(z1, 12),
            round(radius, 12),
        )
        plan = self._plans.get(key)
        if plan is None:
            # The plan is built from the *key's* rounded scalars as well:
            # sources agreeing only to the rounding tolerance must produce
            # the identical plan (offsets, keep/drop decisions) no matter
            # which of them registers it first, or the registration order —
            # which differs between shard workers — would leak into entries.
            key_length, key_z0, key_z1 = key[2], key[3], key[4]
            series = self.kernel.image_series(source_layer, field_layer)
            flat_z = self._layer_flat_z[field_layer]
            merge_z = None
            if flat_z is not None and key_z0 == key_z1:
                merge_z = (key_z0, flat_z)
            plan = TruncationPlan.build(
                series,
                self.adaptive,
                source_length=key_length,
                source_z_interval=(min(key_z0, key_z1), max(key_z0, key_z1)),
                target_z_interval=self._layer_z_interval[field_layer],
                target_length_max=self._layer_max_length[field_layer],
                normalization=self.kernel.normalization(source_layer),
                scale=self.reference_entry_scale(),
                merge_z=merge_z,
                r_max=self._r_max,
            )
            self._plans[key] = plan
        return plan

    def _plan_eval_scalars(self, source_index: int) -> tuple[float, float, float, float]:
        """Canonical evaluation scalars ``(z0, z slope, length, radius)``.

        Derived from the source's values at the *plan-key rounding* (see
        :meth:`_plan_for`): every source sharing a plan yields the identical
        tuple, so a batch group can be evaluated with one scalar set no
        matter which of its sources registered the plan.
        """
        length = round(float(self._lengths[source_index]), 12)
        z0 = round(float(self._p0[source_index, 2]), 12)
        z1 = round(float(self._p1[source_index, 2]), 12)
        radius = round(float(self._radii[source_index]), 12)
        return (z0, (z1 - z0) / length, length, radius)

    def _inplane_geometry_rows(
        self, source_index: int, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """In-plane pair geometry of one source against selected target rows.

        For column-sized target sets this delegates to the cached full-mesh
        arrays of :meth:`_inplane_geometry`; for small target sets (the
        hierarchical near-field rectangles) it computes only the requested
        rows, avoiding the ``O(M)`` full-mesh pass per source.  Both paths are
        elementwise-identical, so results do not depend on the route taken.
        """
        key = (self._mesh_fp, "col", self.n_gauss, int(source_index))
        cached = self._geometry_cache.get(key)
        if cached is not None:
            p_axis, q_norm = cached
            return p_axis[rows], q_norm[rows]
        if 2 * rows.size >= self.n_elements:
            p_axis, q_norm = self._inplane_geometry(source_index)
            return p_axis[rows], q_norm[rows]
        length = self._lengths[source_index]
        u_xy = (self._p1[source_index, :2] - self._p0[source_index, :2]) / length
        disp = self._gauss_points[rows][..., :2] - self._p0[source_index, :2]  # (T, G, 2)
        return disp @ u_xy, np.einsum("tgk,tgk->tg", disp, disp)

    def _inplane_geometry(self, source_index: int) -> tuple[np.ndarray, np.ndarray]:
        """In-plane pair geometry of one source column against every element.

        Returns ``(p_axis, q_norm)`` of shape ``(M, G)`` — the axial
        projection of every Gauss point on the source axis and its squared
        in-plane displacement norm.  Shared by every image term and cached
        across repeated assemblies of the same mesh.
        """
        key = (self._mesh_fp, "col", self.n_gauss, int(source_index))
        cached = self._geometry_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        length = self._lengths[source_index]
        u_xy = (self._p1[source_index, :2] - self._p0[source_index, :2]) / length
        disp = self._gauss_points[..., :2] - self._p0[source_index, :2]  # (M, G, 2)
        p_axis = disp @ u_xy
        q_norm = np.einsum("mgk,mgk->mg", disp, disp)
        return self._geometry_cache.put(key, (p_axis, q_norm))

    def _adaptive_batch(
        self, sources: np.ndarray, column_targets: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Adaptive influence blocks of a batch of columns.

        The (source, target) pairs of every requested column are flattened
        into one pair list, grouped by (truncation plan, separation bin) and
        evaluated in a handful of large vectorised passes — the per-column
        Python overhead of the naive loop dominates otherwise.  Every
        decision (term drops, single-precision eligibility, midpoint-tail
        eligibility, image merging, the plan's canonical source scalars) is a
        pure function of the individual (source element, target element)
        pair, so the evaluated terms are independent of how columns are
        grouped into batches; only BLAS reduction round-off differs between
        batch compositions.
        """
        n_gauss = self.n_gauss
        sizes = np.array([t.size for t in column_targets], dtype=int)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        n_pairs = int(bounds[-1])
        pair_source = np.repeat(sources, sizes)
        pair_target = np.concatenate(column_targets) if n_pairs else np.zeros(0, dtype=int)
        blocks_flat = np.empty((n_pairs, self.basis_per_element, self.basis_per_element))

        # Pair group ids: one per (source plan, field layer, separation bin);
        # group id -1 marks short-series pairs handled by the exact engine.
        plan_keys: dict[int, int] = {}
        plans: list[TruncationPlan] = []
        plan_scalars: list[tuple[float, float, float, float]] = []
        group_of_pair = np.empty(n_pairs, dtype=int)
        n_bins = len(self.adaptive.bin_edges) + 1
        exact_positions: list[tuple[int, np.ndarray, np.ndarray]] = []
        for k, source in enumerate(sources):
            source = int(source)
            targets = column_targets[k]
            segment = slice(int(bounds[k]), int(bounds[k + 1]))
            source_layer = int(self._layers[source])
            target_layers = self._layers[targets]
            separation = self._pair_separation(source, targets)
            group_row = np.empty(targets.size, dtype=int)
            for field_layer in np.unique(target_layers):
                positions = np.flatnonzero(target_layers == field_layer)
                series = self.kernel.image_series(source_layer, int(field_layer))
                if len(series) < self.adaptive.min_series_terms:
                    group_row[positions] = -1
                    exact_positions.append((source, targets[positions], positions + bounds[k]))
                    continue
                plan = self._plan_for(source, int(field_layer))
                key = id(plan)
                plan_index = plan_keys.get(key)
                if plan_index is None:
                    plan_index = len(plans)
                    plan_keys[key] = plan_index
                    plans.append(plan)
                    plan_scalars.append(self._plan_eval_scalars(source))
                group_row[positions] = plan_index * n_bins + plan.bin_of(
                    separation[positions]
                )
            group_of_pair[segment] = group_row

        # Short-series pairs: the exact rectangle engine, one call per column.
        for source, targets, flat_positions in exact_positions:
            series = self.kernel.image_series(
                int(self._layers[source]), int(self._layers[targets[0]])
            )
            rect = self._evaluate_group(
                np.asarray([source]), targets, series,
                self.kernel.normalization(int(self._layers[source])),
            )
            blocks_flat[flat_positions] = rect[0]

        adaptive_mask = group_of_pair >= 0
        if np.any(adaptive_mask):
            pair_idx = np.flatnonzero(adaptive_mask)
            order = pair_idx[np.argsort(group_of_pair[pair_idx], kind="stable")]
            group_sorted = group_of_pair[order]
            starts = np.flatnonzero(np.concatenate(([True], np.diff(group_sorted) > 0)))
            starts = np.concatenate((starts, [order.size]))

            w0 = np.empty((order.size, n_gauss))
            w1 = np.empty((order.size, n_gauss))
            x_z = self._gauss_points[..., 2]
            # In-plane geometry rows gathered per source (cached across runs).
            p_axis_pairs = np.empty((order.size, n_gauss))
            q_norm_pairs = np.empty((order.size, n_gauss))
            pos_of_pair = np.empty(n_pairs, dtype=int)
            pos_of_pair[order] = np.arange(order.size)
            for k, source in enumerate(sources):
                segment = np.arange(bounds[k], bounds[k + 1])
                segment = segment[adaptive_mask[segment]]
                if segment.size == 0:
                    continue
                rows = pair_target[segment]
                p_axis_rows, q_norm_rows = self._inplane_geometry_rows(int(source), rows)
                p_axis_pairs[pos_of_pair[segment]] = p_axis_rows
                q_norm_pairs[pos_of_pair[segment]] = q_norm_rows

            for g in range(starts.size - 1):
                span = slice(int(starts[g]), int(starts[g + 1]))
                pairs = order[span]
                group = int(group_sorted[int(starts[g])])
                plan = plans[group // n_bins]
                bin_plan = plan.bins[group % n_bins]
                # All sources of the group share the plan-key-rounded source
                # scalars; evaluating with those canonical values — instead of
                # whichever source the batch presents first — keeps every
                # pair's entry independent of the batch composition.
                source_z0, source_slope, source_length, source_radius = plan_scalars[
                    group // n_bins
                ]
                s0, s1 = adaptive_segment_sums(
                    p_axis_pairs[span].ravel(),
                    q_norm_pairs[span].ravel(),
                    x_z[pair_target[pairs]].ravel(),
                    source_z0,
                    source_slope,
                    source_length,
                    source_radius,
                    plan.weights,
                    plan.signs,
                    plan.offsets,
                    bin_plan.exact_idx,
                    bin_plan.exact32_idx,
                    bin_plan.midpoint_idx,
                )
                w0[span] = s0.reshape(pairs.size, n_gauss)
                w1[span] = s1.reshape(pairs.size, n_gauss)

            if self.dof_manager.element_type is ElementType.CONSTANT:
                trial = w0[..., None]  # (P, G, 1)
            else:
                trial = np.stack((w0 - w1, w1), axis=-1)  # (P, G, 2)
            pair_blocks = np.einsum(
                "pg,gj,pgi->pji",
                self._outer_weights[pair_target[order]],
                self._test_values,
                trial,
            )
            normalizations = np.zeros(int(self._layers.max()) + 1)
            for layer in np.unique(self._layers):
                normalizations[int(layer)] = self.kernel.normalization(int(layer))
            pair_blocks *= normalizations[self._layers[pair_source[order]]][:, None, None]
            blocks_flat[order] = pair_blocks

        return [
            blocks_flat[bounds[k] : bounds[k + 1]] for k in range(len(column_targets))
        ]

    def adaptive_far_column(
        self, element: int, others: np.ndarray, min_separation: float
    ) -> np.ndarray:
        """Adaptive influence blocks of one source on far targets, one plan bin.

        Returns ``F[t, j, i] = b(target=others[t], source=element)[j, i]``
        with *every* pair evaluated under the single
        :class:`~repro.kernels.truncation.BinPlan` selected by
        ``min_separation`` — the *in-plane* separation lower bound of a
        far-field block (the quantity the plan bins are keyed on).
        Using one bin for the whole fetch keeps the sampled entries smooth
        (per-pair bin boundaries inside a block would put error
        discontinuities in it and inflate the ACA rank) while still dropping,
        down-casting and midpoint-expanding the far image terms.  This is the
        fast entry sampler of the hierarchical far field.
        """
        if self.adaptive is None:
            raise AssemblyError("adaptive_far_column requires an adaptive assembler")
        others = np.asarray(others, dtype=int).ravel()
        element = int(element)
        nb = self.basis_per_element
        if others.size == 0:
            return np.zeros((0, nb, nb))
        n_gauss = self.n_gauss
        source_layer = int(self._layers[element])
        normalization = self.kernel.normalization(source_layer)
        out = np.empty((others.size, nb, nb))
        target_layers = self._layers[others]
        for field_layer in np.unique(target_layers):
            positions = np.flatnonzero(target_layers == field_layer)
            rows = others[positions]
            series = self.kernel.image_series(source_layer, int(field_layer))
            if len(series) < self.adaptive.min_series_terms:
                rect = self._evaluate_group(
                    np.asarray([element]), rows, series, normalization
                )
                out[positions] = rect[0]
                continue
            plan = self._plan_for(element, int(field_layer))
            bin_plan = plan.bins[int(plan.bin_of(np.asarray([min_separation]))[0])]
            p_axis, q_norm = self._inplane_geometry_rows(element, rows)
            # Promote the single-precision exact terms to double precision:
            # their rounding noise, harmless when entries are consumed once,
            # would sit just below the ACA stopping threshold and inflate the
            # factorisation rank.
            s0, s1 = adaptive_segment_sums(
                p_axis.ravel(),
                q_norm.ravel(),
                self._gauss_points[rows][..., 2].ravel(),
                float(self._p0[element, 2]),
                float(self._z_slope[element]),
                float(self._lengths[element]),
                float(self._radii[element]),
                plan.weights,
                plan.signs,
                plan.offsets,
                np.concatenate((bin_plan.exact_idx, bin_plan.exact32_idx)),
                bin_plan.exact32_idx[:0],
                bin_plan.midpoint_idx,
            )
            w0 = s0.reshape(rows.size, n_gauss)
            w1 = s1.reshape(rows.size, n_gauss)
            if self.dof_manager.element_type is ElementType.CONSTANT:
                trial = w0[..., None]
            else:
                trial = np.stack((w0 - w1, w1), axis=-1)  # (T, G, 2)
            out[positions] = normalization * np.einsum(
                "tg,gj,tgi->tji", self._outer_weights[rows], self._test_values, trial
            )
        return out

    def far_series(self, source_layer: int, field_layer: int, distance: float, cutoff: float):
        """Image series of a layer pair, truncated for pairs at ``>= distance``.

        ``distance`` is the *in-plane* pair-separation lower bound (vertical
        image offsets are folded in per term from the layer depth intervals,
        exactly as in :class:`~repro.kernels.truncation.TruncationPlan`).
        Terms whose conservative influence-entry bound
        ``|w| * I0_max * L_t,max * norm`` stays below ``cutoff`` are dropped
        *uniformly*, so every pair of a far-field block sees the same reduced
        series (no per-pair decision boundaries).  Cached per (layer pair,
        distance, cutoff).
        """
        key = (int(source_layer), int(field_layer), round(float(distance), 6), float(cutoff))
        cache = getattr(self, "_far_series_cache", None)
        if cache is None:
            cache = self._far_series_cache = {}
        series = cache.get(key)
        if series is not None:
            return series
        full = self.kernel.image_series(int(source_layer), int(field_layer))
        info = getattr(self, "_far_layer_info", None)
        if info is None:
            info = self._far_layer_info = {}
            for layer in np.unique(self._layers):
                members = np.flatnonzero(self._layers == layer)
                z_values = np.concatenate((self._p0[members, 2], self._p1[members, 2]))
                info[int(layer)] = (
                    float(z_values.min()),
                    float(z_values.max()),
                    float(self._lengths[members].max()),
                )
        s_lo, s_hi, s_len = info[int(source_layer)]
        t_lo, t_hi, t_len = info[int(field_layer)]
        img_lo = np.minimum(full.signs * s_lo, full.signs * s_hi) + full.offsets
        img_hi = np.maximum(full.signs * s_lo, full.signs * s_hi) + full.offsets
        dz = np.maximum.reduce([img_lo - t_hi, t_lo - img_hi, np.zeros(len(full))])
        r = np.maximum(np.sqrt(float(distance) ** 2 + dz**2), 1.0e-12)
        bounds = (
            self.kernel.normalization(int(source_layer))
            * t_len
            * np.abs(full.weights)
            * i0_upper_bound(s_len, r)
        )
        keep = bounds > float(cutoff)
        if not np.any(keep):
            keep[int(np.argmax(np.abs(full.weights)))] = True
        series = MergedSeries(
            weights=full.weights[keep], signs=full.signs[keep], offsets=full.offsets[keep]
        )
        cache[key] = series
        return series

    def pair_block_row(
        self,
        element: int,
        others: np.ndarray,
        min_distance: float | None = None,
        drop_cutoff: float | None = None,
    ) -> np.ndarray:
        """Exact symmetrised influence row of one element against a set of others.

        Returns the entries the *assembled* matrix receives from the pairs
        ``{element, other}``: entry ``[j, t, i]`` is the contribution added at
        ``(dof(element, j), dof(other_t, i))``.  The dense engine evaluates
        every pair once with the lower-index element as the source, so this
        row mixes both orientations — elements below ``element`` are evaluated
        as sources, elements above as targets (transposed).  This is the entry
        generator of the hierarchical far-field ACA sampling, which therefore
        reproduces the dense matrix entrywise instead of introducing an
        orientation-dependent quadrature asymmetry.

        Evaluated through the exact kernels; when ``min_distance`` and
        ``drop_cutoff`` are given (the far-field ACA sampler), the image
        series is first uniformly truncated with :meth:`far_series` for pairs
        separated by at least ``min_distance``.
        """
        others = np.asarray(others, dtype=int).ravel()
        m = self.n_elements
        element = int(element)
        if not 0 <= element < m:
            raise AssemblyError(f"element index {element} out of range 0..{m - 1}")
        if others.size and (others.min() < 0 or others.max() >= m):
            raise AssemblyError(f"element indices out of range 0..{m - 1}")
        if np.any(others == element):
            raise AssemblyError("pair_block_row expects 'others' to exclude the element itself")
        nb = self.basis_per_element
        out = np.empty((nb, others.size, nb))
        element_arr = np.asarray([element])
        element_layer = int(self._layers[element])
        lo = np.flatnonzero(others < element)
        hi = np.flatnonzero(others > element)
        # Straight to the vectorised group kernel (one call per soil-layer
        # group, usually one): ACA samples thousands of these small fetches,
        # so the chunking bookkeeping of _rectangle_blocks would dominate.
        def _series(source_layer: int, field_layer: int):
            if drop_cutoff is None or min_distance is None:
                return self.kernel.image_series(source_layer, field_layer)
            return self.far_series(source_layer, field_layer, min_distance, drop_cutoff)

        if lo.size:
            source_layers = self._layers[others[lo]]
            for layer in np.unique(source_layers):
                members = lo[source_layers == layer]
                rect = self._evaluate_group(
                    others[members],
                    element_arr,
                    _series(int(layer), element_layer),
                    self.kernel.normalization(int(layer)),
                )  # (S, 1, nb, nb)
                out[:, members, :] = rect[:, 0].transpose(1, 0, 2)
        if hi.size:
            normalization = self.kernel.normalization(element_layer)
            target_layers = self._layers[others[hi]]
            for layer in np.unique(target_layers):
                members = hi[target_layers == layer]
                rect = self._evaluate_group(
                    element_arr,
                    others[members],
                    _series(element_layer, int(layer)),
                    normalization,
                )  # (1, T, nb, nb)
                out[:, members, :] = np.transpose(rect[0], (2, 0, 1))
        return out

    # -- work decomposition helpers -------------------------------------------------------

    def column_sizes(self) -> np.ndarray:
        """Number of target elements of every column (linearly decreasing)."""
        m = self.n_elements
        return np.arange(m, 0, -1, dtype=int)

    def column_cost_estimate(self) -> np.ndarray:
        """Relative cost estimate of each column (targets x image terms).

        Deterministic and host-independent; used by the parallel simulator and
        the batched executors to apportion chunk times when no measured timings
        are available.  Delegates to
        :func:`repro.parallel.costs.analytic_column_costs`, or — when the
        adaptive evaluation layer is active — to the per-pair adaptive term
        counts of :meth:`adaptive_column_costs`.
        """
        if self.adaptive is not None:
            return self.adaptive_column_costs()
        # Local import: repro.parallel imports repro.bem at package load time.
        from repro.parallel.costs import analytic_column_costs

        return analytic_column_costs(self._layers, self.kernel, self.n_gauss)

    def adaptive_column_costs(self) -> np.ndarray:
        """Per-column work estimate under the adaptive evaluation plans.

        The cost of column ``α`` is ``n_gauss · Σ_{β ≥ α} units(α, β)`` where
        ``units`` counts the exact terms (weight 1) and midpoint-tail terms
        (their measured relative cost) actually evaluated for the pair —
        distance-truncated columns are cheaper than the uniform estimate of
        :func:`repro.parallel.costs.analytic_column_costs`, which keeps the
        Fig. 6.1 / Table 6.2 schedules consistent with what the adaptive
        engine really executes.  Deterministic and host-independent.
        """
        if self.adaptive is None:
            raise AssemblyError("adaptive_column_costs requires an adaptive assembler")
        if self._adaptive_costs is not None:
            return self._adaptive_costs.copy()
        m = self.n_elements
        costs = np.zeros(m)
        for source in range(m):
            targets = np.arange(source, m)
            target_layers = self._layers[targets]
            total = 0.0
            for field_layer in np.unique(target_layers):
                ids = targets[target_layers == field_layer]
                series = self.kernel.image_series(
                    int(self._layers[source]), int(field_layer)
                )
                if len(series) < self.adaptive.min_series_terms:
                    total += float(len(series)) * ids.size
                    continue
                plan = self._plan_for(source, int(field_layer))
                total += float(
                    plan.cost_units(self._pair_separation(source, ids)).sum()
                )
            costs[source] = total * self.n_gauss
        self._adaptive_costs = costs
        return costs.copy()

    def max_batch_size(self, cap: int = 64) -> int:
        """Default column count per assembly batch (scatter / bookkeeping unit).

        Deliberately *larger* than the number of sources that fit one
        cache-resident rectangle: :meth:`_rectangle_blocks` re-chunks each
        batch to the element budget internally, so a bigger batch only
        amortises the per-batch Python overhead (column results, cost shares,
        one scatter) over more columns without growing the vectorised
        working set.
        """
        layers = np.unique(self._layers)
        longest = max(
            self.kernel.series_length(int(b), int(c)) for b in layers for c in layers
        )
        per_source = max(1, longest * self.n_elements * self.n_gauss)
        rectangle_sources = max(1, self.batch_element_budget // per_source)
        return int(np.clip(8 * rectangle_sources, 1, cap))
