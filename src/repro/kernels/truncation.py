"""Adaptive, distance-aware evaluation plans for the image-series kernels.

The assembly and post-processing hot loops evaluate, for every
(field point, source element) pair, the analytic ``1/r`` line integrals of
*every* image term of the layered-soil kernel at full precision.  The paper's
formulation tolerates this uniform cost only because its era lacked vector
hardware; on modern CPUs most of that work is numerically irrelevant:

* a term whose image lies far from the whole pair-group contributes less than
  the target accuracy and can be *dropped*;
* a term whose image is merely "far" (a few source lengths away) is a smooth
  function over the source segment and its analytic integral collapses to a
  cheap second-order midpoint expansion (the *midpoint tail*) instead of the
  ``asinh``-based exact form;
* on flat meshes (every element horizontal at one burial depth — the paper's
  grids) several images of a term group become *geometrically identical* for
  every pair and can be merged into a single term with summed weight.

:class:`TruncationPlan` encodes those decisions per *distance bin*: pairs are
binned by a conservative lower bound of their in-plane separation, and each
bin gets a partition of the (possibly merged) term list into ``exact``,
``midpoint`` and dropped terms.  All decisions are pure functions of the mesh
and the kernel — never of how the caller batches the work — so adaptive
evaluation decisions are identical across batch sizes and parallel backends
(the evaluated values agree to BLAS reduction round-off; fixing the batch
composition, as the hierarchical per-block assembly does, makes them
bit-identical).

Error model (validated by ``tests/kernels/test_truncation.py`` and the
accuracy study in ``benchmarks/bench_adaptive_truncation.py``):

* the exact integral obeys ``I0 <= 2 asinh(L_s / (2 r))`` for any field point
  at distance ``>= r`` from the image segment, hence a term's influence-entry
  contribution is bounded by ``|w_l| * I0_max * L_t_max * norm``;
* the second-order midpoint expansion of ``(I0, I1)`` has absolute error
  below ``C_PT * |w_l| * (L_s / r)**5`` (measured constants 0.013 for ``I0``
  and 0.75 for ``I1``; ``C_PT = 1.0`` is conservative).

Both bounds are compared against ``tolerance * scale / safety`` where
``scale`` is the largest self-influence entry bound of the mesh, so the knob
is *relative to the matrix norm*: the accumulated matrix max-norm error stays
below ``tolerance * ||A||_max`` with a wide margin (the study measures the
actual margin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import KernelError
from repro.kernels.images import ImageSeries

__all__ = [
    "AdaptiveControl",
    "MergedSeries",
    "TruncationPlan",
    "merge_degenerate_terms",
    "i0_upper_bound",
    "midpoint_error_bound",
    "max_pair_distance",
]

#: Conservative constant of the midpoint-tail error bound (measured: 0.013 for
#: ``I0`` and 0.75 for the first-moment integral ``I1``).
C_PT: float = 1.0

#: The midpoint expansion is only meaningful when the image segment is at
#: least this many source lengths away from the field points.
MIN_MIDPOINT_SEPARATION: float = 1.5

#: Single-precision machine epsilon and the amplification factor of the
#: exact-integral chain (typical amplification is O(1); the factor covers the
#: moderate ``asinh`` cancellation of nearly-on-axis pairs — the accuracy
#: study measures the end-to-end margin this leaves).
EPS_F32: float = 1.2e-7
C_F32: float = 8.0

#: Relative cost of one single-precision exact / midpoint term evaluation vs
#: one double-precision exact term (measured on the reference container; used
#: by the deterministic cost model).
EXACT32_TERM_COST: float = 0.40
MIDPOINT_TERM_COST: float = 0.35

#: Default pair-separation bin edges [m] (first bin is ``[0, edges[0])``).
DEFAULT_BIN_EDGES: tuple[float, ...] = (2.0, 8.0, 32.0, 128.0)


def i0_upper_bound(source_length: float | np.ndarray, r: np.ndarray) -> np.ndarray:
    """Upper bound of ``∫_0^L dl / |x − ξ(l)|`` over field points at distance ``>= r``.

    The maximum over all positions is attained opposite the segment midpoint:
    ``I0 <= 2 asinh(L / (2 r))``.
    """
    return 2.0 * np.arcsinh(np.asarray(source_length) / (2.0 * r))


def midpoint_error_bound(source_length: float | np.ndarray, r: np.ndarray) -> np.ndarray:
    """Absolute error bound of the second-order midpoint expansion of ``(I0, I1)``."""
    return C_PT * (np.asarray(source_length) / r) ** 5


def max_pair_distance(p0: np.ndarray, p1: np.ndarray, offset_max: float) -> float:
    """Upper bound on the distance between any field point near a mesh and any
    image of any of its elements.

    Mesh bounding-box diagonal plus the largest image offset plus the mirror
    of the deepest coordinate; used to guard the single-precision ``d²``
    cancellation (see :class:`TruncationPlan`).
    """
    points = np.concatenate((np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)))
    diameter = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    z_extent = float(np.abs(points[:, 2]).max())
    return diameter + float(offset_max) + 2.0 * z_extent


@dataclass(frozen=True)
class AdaptiveControl:
    """Knobs of the adaptive image-series evaluation layer.

    Parameters
    ----------
    tolerance:
        Target relative accuracy of the assembled matrix (relative to its
        max-norm).  The default ``1e-8`` reproduces the full-series matrices
        to ``atol 1e-8 * ||A||_max`` with a comfortable margin.
    safety:
        Per-term bounds are compared against ``tolerance * scale / safety``;
        the factor absorbs the accumulation of many dropped/approximated
        terms into one entry.
    use_midpoint_tail:
        Evaluate sufficiently far image terms with the cheap second-order
        midpoint expansion instead of the exact ``asinh`` form.
    merge_degenerate:
        Merge geometrically identical images on flat meshes.
    bin_edges:
        Pair-separation bin edges [m]; decisions are made per bin from the
        bin's lower edge (conservative for every pair inside).
    min_series_terms:
        Series shorter than this skip the adaptive path entirely (the
        bookkeeping would cost more than the savings).
    """

    tolerance: float = 1.0e-8
    safety: float = 8.0
    use_midpoint_tail: bool = True
    merge_degenerate: bool = True
    bin_edges: tuple[float, ...] = DEFAULT_BIN_EDGES
    min_series_terms: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < 1.0:
            raise KernelError(
                f"adaptive tolerance must lie strictly between 0 and 1, got {self.tolerance!r}"
            )
        if self.safety < 1.0 or not np.isfinite(self.safety):
            raise KernelError(f"safety factor must be finite and >= 1, got {self.safety!r}")
        if len(self.bin_edges) < 1 or any(
            b <= a for a, b in zip(self.bin_edges, self.bin_edges[1:])
        ):
            raise KernelError("bin_edges must be strictly increasing and non-empty")
        if self.bin_edges[0] <= 0.0:
            raise KernelError("the first bin edge must be positive")

    @property
    def cutoff_fraction(self) -> float:
        """The per-term bound threshold as a fraction of the reference scale."""
        return self.tolerance / self.safety


@dataclass(frozen=True)
class MergedSeries:
    """Image terms specialised to one (source depth, field depth) pair class.

    ``weights / signs / offsets`` play the same role as in
    :class:`~repro.kernels.images.ImageSeries`; on flat meshes several
    original terms may have been merged (their weights summed).
    """

    weights: np.ndarray
    signs: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.weights.size


def merge_degenerate_terms(
    series: ImageSeries, source_z: float, target_z: float
) -> MergedSeries:
    """Merge images that coincide for a horizontal source at ``source_z`` and
    field points at ``target_z``.

    Two images are geometrically identical for such a pair class when their
    image depths ``a_l = sign_l * source_z + offset_l`` are either equal or
    mirror images across the field plane (``a + a' = 2 * target_z``) — both
    give the same ``|x_z − a_l|`` for every field point at ``target_z``.
    Merged terms are emitted with ``sign = +1`` (irrelevant for a horizontal
    source) and ``offset = a_l − source_z``.
    """
    a_z = series.signs * float(source_z) + series.offsets
    mirrored = 2.0 * float(target_z) - a_z
    key = np.round(np.minimum(a_z, mirrored), 9)
    uniq, inverse = np.unique(key, return_inverse=True)
    weights = np.zeros(uniq.size)
    np.add.at(weights, inverse, series.weights)
    # Keep one representative depth per group (the first occurrence).
    rep = np.full(uniq.size, -1, dtype=int)
    for index, group in enumerate(inverse):
        if rep[group] < 0:
            rep[group] = index
    depths = a_z[rep]
    return MergedSeries(
        weights=weights,
        signs=np.ones(uniq.size),
        offsets=depths - float(source_z),
    )


@dataclass(frozen=True)
class BinPlan:
    """Evaluation decisions of one pair-separation bin."""

    #: Indices (into the plan's term arrays) evaluated with the exact kernel
    #: in double precision — the near images whose contribution is large.
    exact_idx: np.ndarray
    #: Indices evaluated with the exact kernel in single precision (their
    #: round-off is provably below the error budget).
    exact32_idx: np.ndarray
    #: Indices evaluated with the single-precision midpoint expansion.
    midpoint_idx: np.ndarray
    #: Number of dropped terms (for diagnostics / the cost model).
    n_dropped: int

    @property
    def cost_units(self) -> float:
        """Work units of one pair evaluated under this plan (f64 exact term = 1)."""
        return (
            float(self.exact_idx.size)
            + EXACT32_TERM_COST * float(self.exact32_idx.size)
            + MIDPOINT_TERM_COST * float(self.midpoint_idx.size)
        )


@dataclass(frozen=True)
class TruncationPlan:
    """Distance-binned evaluation plan of one image series for one source.

    Built by :meth:`build` from pure mesh/kernel data; the per-bin decisions
    apply to every (field point, source) pair whose in-plane separation lower
    bound falls in the bin, so callers may batch pairs arbitrarily without
    changing results.
    """

    #: Term arrays the bin indices refer to (merged on flat pair classes).
    weights: np.ndarray
    signs: np.ndarray
    offsets: np.ndarray
    #: Ascending separation bin edges [m]; bin ``i`` covers
    #: ``[edges[i-1], edges[i])`` with ``edges[-1] -> inf``.
    bin_edges: np.ndarray
    #: One :class:`BinPlan` per bin (``len(bin_edges) + 1`` entries).
    bins: tuple[BinPlan, ...]
    #: True when the term arrays are a merged specialisation.
    merged: bool

    @classmethod
    def build(
        cls,
        series: ImageSeries,
        control: AdaptiveControl,
        *,
        source_length: float,
        source_z_interval: tuple[float, float],
        target_z_interval: tuple[float, float],
        target_length_max: float,
        normalization: float,
        scale: float,
        merge_z: tuple[float, float] | None = None,
        r_max: float = 1.0e4,
    ) -> "TruncationPlan":
        """Build the plan of one source element against a target population.

        Parameters
        ----------
        series:
            The (full) image series of the layer pair.
        control:
            Adaptive knobs.
        source_length, source_z_interval:
            Geometry of the source element (length, depth interval).
        target_z_interval:
            Depth interval containing every possible field point (mesh Gauss
            points or evaluation points) — conservative bounds are fine.
        target_length_max:
            Largest outer (test) integration length that can multiply a term
            contribution (the longest mesh element, or the field-point count
            weight 1.0 for point evaluation).
        normalization:
            The kernel prefactor ``1 / (4 π γ_b)`` of the source layer.
        scale:
            Reference matrix-entry magnitude the tolerance is relative to.
        merge_z:
            ``(source_z, target_z)`` when the pair class is flat (horizontal
            source, all field points at one depth) and degenerate images may
            be merged; ``None`` disables merging.
        r_max:
            Upper bound on any pair distance (mesh diameter plus image
            offsets); guards the single-precision ``d²`` cancellation for
            nearly-on-axis pairs.
        """
        if scale <= 0.0 or not np.isfinite(scale):
            raise KernelError(f"adaptive reference scale must be positive, got {scale!r}")
        if merge_z is not None and control.merge_degenerate:
            merged = merge_degenerate_terms(series, *merge_z)
            weights, signs, offsets = merged.weights, merged.signs, merged.offsets
            was_merged = len(merged) < len(series)
        else:
            weights, signs, offsets = series.weights, series.signs, series.offsets
            was_merged = False

        edges = np.asarray(control.bin_edges, dtype=float)
        cutoff = control.cutoff_fraction * scale
        length = float(source_length)
        z_lo, z_hi = (float(source_z_interval[0]), float(source_z_interval[1]))
        t_lo, t_hi = (float(target_z_interval[0]), float(target_z_interval[1]))

        # Depth interval of every image: sign * [z_lo, z_hi] + offset.
        img_lo = np.minimum(signs * z_lo, signs * z_hi) + offsets
        img_hi = np.maximum(signs * z_lo, signs * z_hi) + offsets
        # Vertical distance between the image interval and the target interval.
        dz = np.maximum.reduce([img_lo - t_hi, t_lo - img_hi, np.zeros_like(img_lo)])

        bins: list[BinPlan] = []
        order = np.arange(weights.size)
        entry_factor = normalization * float(target_length_max) * np.abs(weights)
        for bin_index in range(edges.size + 1):
            rho_min = 0.0 if bin_index == 0 else float(edges[bin_index - 1])
            r = np.sqrt(rho_min**2 + dz**2)
            r = np.maximum(r, 1.0e-12)
            entry_bound = entry_factor * i0_upper_bound(length, r)
            keep = entry_bound > cutoff
            if not np.any(keep):
                # Never drop a whole bin: keep the dominant term so the far
                # field stays qualitatively correct.
                keep[int(np.argmax(np.abs(weights)))] = True

            # Single precision is admissible when the term's round-off — the
            # amplified f32 epsilon times the term magnitude — fits the
            # budget, and the image is far enough off-plane that the in-plane
            # ``d² = |w|² − s²`` cancellation cannot blow up (``d`` is
            # dominated by the vertical offset ``dz``).
            f32_ok = (
                entry_factor * C_F32 * EPS_F32 <= cutoff
            ) & (dz >= 4.0 * np.sqrt(EPS_F32) * float(r_max))

            midpoint_ok = np.zeros_like(keep)
            if control.use_midpoint_tail:
                mp_err = entry_factor * midpoint_error_bound(length, r)
                midpoint_ok = (
                    keep
                    & f32_ok
                    & (mp_err <= cutoff)
                    & (r >= MIN_MIDPOINT_SEPARATION * length)
                )
            exact32 = keep & f32_ok & ~midpoint_ok
            bins.append(
                BinPlan(
                    exact_idx=order[keep & ~f32_ok],
                    exact32_idx=order[exact32],
                    midpoint_idx=order[midpoint_ok],
                    n_dropped=int((~keep).sum()),
                )
            )

        return cls(
            weights=weights,
            signs=signs,
            offsets=offsets,
            bin_edges=edges,
            bins=tuple(bins),
            merged=was_merged,
        )

    # -- helpers ---------------------------------------------------------------------

    def bin_of(self, separation: np.ndarray) -> np.ndarray:
        """Bin index of each pair-separation lower bound."""
        return np.digitize(np.asarray(separation, dtype=float), self.bin_edges)

    def cost_units(self, separation: np.ndarray) -> np.ndarray:
        """Per-pair work units (exact term = 1) for an array of separations."""
        per_bin = np.array([plan.cost_units for plan in self.bins])
        return per_bin[self.bin_of(separation)]

    @property
    def n_terms(self) -> int:
        """Number of (possibly merged) terms the plan partitions."""
        return int(self.weights.size)

    def summary(self) -> dict:
        """Diagnostics: per-bin kept/midpoint/dropped counts."""
        return {
            "n_terms": self.n_terms,
            "merged": self.merged,
            "bins": [
                {
                    "rho_min": 0.0 if i == 0 else float(self.bin_edges[i - 1]),
                    "exact": int(plan.exact_idx.size),
                    "exact32": int(plan.exact32_idx.size),
                    "midpoint": int(plan.midpoint_idx.size),
                    "dropped": plan.n_dropped,
                }
                for i, plan in enumerate(self.bins)
            ],
        }
