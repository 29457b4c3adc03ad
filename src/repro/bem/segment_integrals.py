"""Analytic integrals of ``1/r`` along straight source elements.

These closed forms are the work-horse of the 1D approximated BEM (paper,
Section 4.2): every image contribution to the potential produced by a source
element at a field point reduces to

    ``I₀ = ∫₀^L dl / |x − ξ(l)|``            (constant trial function)
    ``I₁ = ∫₀^L (l / L) dl / |x − ξ(l)|``    (linear trial function)

with ``ξ(l)`` running along the (possibly image-transformed) element axis.
Writing ``s`` for the projection of the field point on the axis and ``d`` for
its distance to the axis,

    ``I₀ = asinh((L − s)/d) − asinh(−s/d)``
    ``I₁ = ( sqrt((L−s)² + d²) − sqrt(s² + d²) + s · I₀ ) / L``.

The thin-wire hypothesis of the paper (circumferential uniformity) is applied
by clamping ``d`` to the conductor radius: when the field point lies on (or
numerically near) the source axis — which happens for the self-influence of an
element — the potential is evaluated on the conductor *surface* instead, which
regularises the ``1/r`` singularity exactly as in the analytical integration
techniques of the original TOTBEM system.

All functions broadcast over arbitrary leading dimensions so the assembly can
evaluate every (image, target Gauss point) combination of an element pair in a
single vectorised call.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AssemblyError

__all__ = [
    "line_integrals",
    "potential_integrals",
    "image_segment_integrals",
    "adaptive_segment_sums",
]

#: Relative floor applied to ``d`` to avoid division by zero even when the
#: caller passes a zero minimum distance (e.g. for far-field image segments).
_D_FLOOR = 1.0e-12


def line_integrals(
    field_points: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
    min_distance: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic ``∫ 1/r`` and ``∫ (l/L)/r`` along segments ``q0 → q1``.

    Parameters
    ----------
    field_points:
        Field points, shape ``(..., 3)``.
    q0, q1:
        Source segment end points, broadcastable against ``field_points``
        (shape ``(..., 3)``).
    min_distance:
        Lower bound applied to the point-to-axis distance (the source conductor
        radius); scalar or broadcastable array.

    Returns
    -------
    (I0, I1)
        Arrays with the broadcast shape of the inputs (without the trailing
        coordinate axis).  ``I0`` integrates a unit density, ``I1`` integrates
        the normalised coordinate ``l / L`` (i.e. the second linear shape
        function); the first linear shape function integrates to ``I0 − I1``.
    """
    x = np.asarray(field_points, dtype=float)
    a = np.asarray(q0, dtype=float)
    b = np.asarray(q1, dtype=float)
    if x.shape[-1] != 3 or a.shape[-1] != 3 or b.shape[-1] != 3:
        raise AssemblyError("field points and segment end points must have a trailing 3-axis")

    direction = b - a
    length = np.sqrt(np.einsum("...k,...k->...", direction, direction))
    if np.any(length <= 0.0):
        raise AssemblyError("source segments must have positive length")
    unit = direction / length[..., None]

    w = x - a
    s = np.einsum("...k,...k->...", w, unit)
    d_sq = np.einsum("...k,...k->...", w, w) - s**2
    # Numerical round-off can push d_sq slightly negative for points on the axis.
    d_sq = np.maximum(d_sq, 0.0)
    d_min = np.maximum(np.asarray(min_distance, dtype=float), _D_FLOOR)
    d = np.maximum(np.sqrt(d_sq), d_min)

    upper = length - s
    i0 = np.arcsinh(upper / d) - np.arcsinh(-s / d)
    r1 = np.sqrt(upper**2 + d**2)
    r0 = np.sqrt(s**2 + d**2)
    i1 = (r1 - r0 + s * i0) / length
    return i0, i1


def image_segment_integrals(
    gauss_points: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    lengths: np.ndarray,
    signs: np.ndarray,
    offsets: np.ndarray,
    radii: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``line_integrals`` over the image transforms of source segments.

    Specialised hot path of the batched assembly engine: the images of a
    layered-soil kernel only flip and shift the *z* coordinate of a source
    segment (``z ↦ sign·z + offset``), so the in-plane geometry — the axial
    projection of the field points and their squared distance to the segment
    axis — is identical for every image and is computed once per
    (target point, source) pair instead of once per image.  The per-image work
    reduces to a handful of cheap broadcast operations plus the two ``asinh``
    evaluations of the analytic ``1/r`` integral, with the same floating-point
    associations as :func:`line_integrals`.

    Parameters
    ----------
    gauss_points:
        Field points, shape ``(T, G, 3)``.
    p0, p1:
        Untransformed source segment end points, shape ``(S, 3)``.
    lengths:
        Segment lengths ``|p1 − p0|`` (image transforms preserve them),
        shape ``(S,)``.
    signs, offsets:
        The ``z ↦ sign·z + offset`` image transforms, each shape ``(L,)``.
    radii:
        Minimum point-to-axis distance per source (the conductor radius),
        shape ``(S,)``.

    Returns
    -------
    (I0, I1)
        Arrays of shape ``(L, T, G, S)`` with the same semantics as
        :func:`line_integrals`.
    """
    x_xy = gauss_points[..., :2]  # (T, G, 2)
    x_z = np.ascontiguousarray(gauss_points[..., 2])  # (T, G)
    a_xy = p0[:, :2]  # (S, 2)
    length = np.asarray(lengths, dtype=float)
    if np.any(length <= 0.0):
        raise AssemblyError("source segments must have positive length")

    # In-plane geometry, shared by every image: the xy displacement of each
    # (field point, source) pair, its projection on the unit axis direction and
    # its squared norm.
    u_xy = (p1[:, :2] - a_xy) / length[:, None]  # (S, 2)
    displacement_xy = x_xy[:, :, None, :] - a_xy[None, None, :, :]  # (T, G, S, 2)
    p_axis = np.einsum("tgsk,sk->tgs", displacement_xy, u_xy)  # (T, G, S)
    q_norm = np.einsum("tgsk,tgsk->tgs", displacement_xy, displacement_xy)

    # Per-image z geometry (small arrays, shape (L, S)).
    source_z0 = p0[:, 2]
    u_z = np.asarray(signs, dtype=float)[:, None] * (
        (p1[:, 2] - source_z0) / length
    )[None, :]
    a_z = np.asarray(signs, dtype=float)[:, None] * source_z0[None, :] + np.asarray(
        offsets, dtype=float
    )[:, None]

    # Assemble the axial coordinate s and the axis distance d for every
    # (image, field point, source) combination; associations match
    # line_integrals: s = (w_xy · u_xy) + w_z u_z and d² = (|w_xy|² + w_z²) − s².
    delta_z = x_z[None, :, :, None] - a_z[:, None, None, :]  # (L, T, G, S)
    s = delta_z * u_z[:, None, None, :]
    s += p_axis[None, :, :, :]
    d = delta_z
    np.multiply(d, d, out=d)  # reuse the Δz buffer as |w|² − |w_xy|²
    d += q_norm[None, :, :, :]
    d -= s * s
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    d_min = np.maximum(np.asarray(radii, dtype=float), _D_FLOOR)
    np.maximum(d, d_min[None, None, None, :], out=d)

    upper = length[None, None, None, :] - s
    i0 = np.arcsinh(upper / d)
    i0 -= np.arcsinh(-s / d)
    r1 = upper
    np.multiply(r1, r1, out=r1)
    d_sq = d
    np.multiply(d, d, out=d_sq)
    r1 += d_sq
    np.sqrt(r1, out=r1)
    r0 = s * s
    r0 += d_sq
    np.sqrt(r0, out=r0)
    i1 = r1
    i1 -= r0
    i1 += s * i0
    i1 /= length[None, None, None, :]
    return i0, i1


class _Workspace:
    """Grow-only scratch buffers for the adaptive hot loop.

    The adaptive kernels run the same handful of element-wise operations over
    arrays of a few hundred kilobytes; allocating fresh temporaries for each
    of them roughly doubles the runtime (measured 1.7x on the reference
    container).  One workspace per process keeps every intermediate in
    pre-allocated, cache-resident buffers; forked workers each get a
    copy-on-write copy.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple[int, object], np.ndarray] = {}

    def array(self, slot: int, n_rows: int, n_cols: int, dtype=np.float64) -> np.ndarray:
        """A scratch array of shape ``(n_rows, n_cols)`` backed by ``slot``."""
        size = n_rows * n_cols
        key = (slot, dtype)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:size].reshape(n_rows, n_cols)


#: The adaptive kernels' scratch buffers, one set per process.
_WORKSPACE = _Workspace()


def _exact_term_sums(
    p_axis: np.ndarray,
    q_norm: np.ndarray,
    x_z: np.ndarray,
    z0,
    z_slope,
    length,
    d_min,
    weights: np.ndarray,
    signs: np.ndarray,
    offsets: np.ndarray,
    w0: np.ndarray,
    w1: np.ndarray,
    ws: _Workspace,
    slot_base: int,
    dtype=np.float64,
) -> None:
    """Accumulate exact weighted image sums into ``w0``/``w1`` (in place).

    ``I1`` uses the cancellation-free identity
    ``r1 − r0 = L (L − 2 s) / (r1 + r0)``, so the chain stays accurate in
    single precision for far pairs (``r1 ≈ r0 ≫ L``).
    """
    n_terms = weights.size
    n_pairs = p_axis.size

    delta = ws.array(slot_base + 0, n_terms, n_pairs, dtype)
    s = ws.array(slot_base + 1, n_terms, n_pairs, dtype)
    t2 = ws.array(slot_base + 2, n_terms, n_pairs, dtype)
    t3 = ws.array(slot_base + 3, n_terms, n_pairs, dtype)
    t4 = ws.array(slot_base + 4, n_terms, n_pairs, dtype)
    t5 = ws.array(slot_base + 5, n_terms, n_pairs, dtype)

    if np.ndim(z0) == 0:
        a_z = (signs * z0 + offsets).astype(dtype)
        u_z = (signs * z_slope).astype(dtype)
        np.subtract(x_z[None, :], a_z[:, None], out=delta)
        np.multiply(delta, u_z[:, None], out=s)
    else:
        # Per-pair source data: z0, z_slope broadcast along the pair axis.
        np.multiply(signs[:, None], z0[None, :], out=delta)
        delta += offsets[:, None]
        np.subtract(x_z[None, :], delta, out=delta)
        np.multiply(signs[:, None], z_slope[None, :], out=s)
        np.multiply(delta, s, out=s)
    s += p_axis[None, :]

    # d = max(sqrt(|w|^2 - s^2), d_min) with |w|^2 = q_norm + delta^2.
    np.multiply(delta, delta, out=delta)
    delta += q_norm[None, :]
    np.multiply(s, s, out=t2)
    delta -= t2
    np.maximum(delta, 0.0, out=delta)
    np.sqrt(delta, out=delta)
    np.maximum(delta, d_min, out=delta)
    d = delta

    upper = t2
    np.subtract(length, s, out=upper)
    i0 = t3
    np.divide(upper, d, out=i0)
    np.arcsinh(i0, out=i0)
    np.divide(s, d, out=t4)
    np.arcsinh(t4, out=t4)
    i0 += t4

    d_sq = t5
    np.multiply(d, d, out=d_sq)
    r1 = upper
    np.multiply(upper, upper, out=r1)
    r1 += d_sq
    np.sqrt(r1, out=r1)
    r0 = t4
    np.multiply(s, s, out=r0)
    r0 += d_sq
    np.sqrt(r0, out=r0)
    # i1 = (L − 2 s) / (r1 + r0) + s · i0 / L   (stable form of (r1−r0+s·i0)/L).
    r1 += r0
    i1 = r0
    np.multiply(s, -2.0, out=i1)
    i1 += length
    i1 /= r1
    np.multiply(s, i0, out=t5)
    t5 /= length
    i1 += t5

    w0 += weights.astype(dtype) @ i0
    w1 += weights.astype(dtype) @ i1


def _exact_term_sums_flat(
    shared: dict,
    x_z: np.ndarray,
    length,
    d_min,
    weights: np.ndarray,
    signs: np.ndarray,
    offsets: np.ndarray,
    z0: float,
    w0: np.ndarray,
    w1: np.ndarray,
    ws: _Workspace,
    slot_base: int,
    dtype=np.float64,
) -> None:
    """Exact sums specialised to a horizontal source segment (``u_z = 0``).

    The axial projection ``s`` is then identical for every image, so all its
    derived quantities (``L − s``, ``s²``, the in-plane axis distance) are
    per-pair precomputes shared across terms — the per-term chain shrinks to
    the ``z``-displacement, one ``sqrt`` and the two ``asinh``.
    """
    n_terms = weights.size
    n_pairs = x_z.size
    a_z = (signs * z0 + offsets).astype(dtype)
    s = shared["s"]
    upper = shared["upper"]
    d_xy2 = shared["d_xy2"]
    s_sq = shared["s_sq"]
    u_sq = shared["u_sq"]
    l_minus_2s = shared["l_minus_2s"]
    s_over_l = shared["s_over_l"]

    delta = ws.array(slot_base + 0, n_terms, n_pairs, dtype)
    d = ws.array(slot_base + 1, n_terms, n_pairs, dtype)
    i0 = ws.array(slot_base + 2, n_terms, n_pairs, dtype)
    t3 = ws.array(slot_base + 3, n_terms, n_pairs, dtype)
    t4 = ws.array(slot_base + 4, n_terms, n_pairs, dtype)

    # d² = d_xy² + Δz²  (both non-negative: no clamp needed before the sqrt).
    np.subtract(x_z[None, :], a_z[:, None], out=delta)
    np.multiply(delta, delta, out=delta)
    delta += d_xy2[None, :]
    np.sqrt(delta, out=d)
    np.maximum(d, d_min, out=d)

    np.divide(upper[None, :], d, out=i0)
    np.arcsinh(i0, out=i0)
    np.divide(s[None, :], d, out=t3)
    np.arcsinh(t3, out=t3)
    i0 += t3

    d_sq = d
    np.multiply(d, d, out=d_sq)
    r1 = t3
    np.add(u_sq[None, :], d_sq, out=r1)
    np.sqrt(r1, out=r1)
    r0 = t4
    np.add(s_sq[None, :], d_sq, out=r0)
    np.sqrt(r0, out=r0)
    r1 += r0
    # i1 = (L − 2 s)/(r1 + r0) + (s/L)·i0  (stable form).
    i1 = t4
    np.divide(l_minus_2s[None, :], r1, out=i1)
    np.multiply(i0, s_over_l[None, :], out=r1)
    i1 += r1

    w0 += weights.astype(dtype) @ i0
    w1 += weights.astype(dtype) @ i1


def _midpoint_term_sums_flat(
    shared: dict,
    x_z: np.ndarray,
    length: float,
    weights: np.ndarray,
    signs: np.ndarray,
    offsets: np.ndarray,
    z0: float,
    w0: np.ndarray,
    w1: np.ndarray,
    ws: _Workspace,
    slot_base: int,
    dtype=np.float32,
) -> None:
    """Midpoint-tail sums specialised to a horizontal source segment."""
    n_terms = weights.size
    n_pairs = x_z.size
    a_z = (signs * z0 + offsets).astype(dtype)
    rc_base = shared["rc_base"]  # d_xy² + sc²
    sc3 = shared["sc3"]  # 3 sc²
    sc = shared["sc"]

    rc2 = ws.array(slot_base + 0, n_terms, n_pairs, dtype)
    inv = ws.array(slot_base + 1, n_terms, n_pairs, dtype)
    inv2 = ws.array(slot_base + 2, n_terms, n_pairs, dtype)
    corr = ws.array(slot_base + 3, n_terms, n_pairs, dtype)

    np.subtract(x_z[None, :], a_z[:, None], out=rc2)
    np.multiply(rc2, rc2, out=rc2)
    rc2 += rc_base[None, :]
    np.maximum(rc2, 1.0e-24, out=rc2)
    np.sqrt(rc2, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(inv, inv, out=inv2)

    length_sq = length * length
    np.subtract(sc3[None, :], rc2, out=corr)
    corr *= length_sq * length / 24.0
    corr *= inv2
    corr *= inv2
    corr *= inv
    i0 = rc2
    np.multiply(inv, length, out=i0)
    i0 += corr

    i1 = corr
    np.multiply(sc[None, :], inv2, out=i1)
    i1 *= inv
    i1 *= length_sq / 12.0
    half = inv
    np.multiply(i0, 0.5, out=half)
    half -= i1

    w0 += weights.astype(dtype) @ i0
    w1 += weights.astype(dtype) @ half


def _midpoint_term_sums(
    p_axis: np.ndarray,
    q_norm: np.ndarray,
    x_z: np.ndarray,
    z0,
    z_slope,
    length,
    weights: np.ndarray,
    signs: np.ndarray,
    offsets: np.ndarray,
    w0: np.ndarray,
    w1: np.ndarray,
    ws: _Workspace,
    slot_base: int,
    dtype=np.float64,
) -> None:
    """Accumulate midpoint-tail weighted sums into ``w0``/``w1`` (in place).

    Second-order expansion of the analytic integrals around the segment
    midpoint (``sc = L/2 − s``, ``rc² = d² + sc²``):

        ``I0 ≈ L/rc + (L³/24) (3 sc² − rc²) / rc⁵``
        ``I1 ≈ I0/2 − (L²/12) sc / rc³``

    Valid (relative error below ``(L/rc)⁴``) for ``rc ≳ 1.5 L``; the caller's
    :class:`~repro.kernels.truncation.TruncationPlan` guarantees that.
    """
    n_terms = weights.size
    n_pairs = p_axis.size

    delta = ws.array(slot_base + 0, n_terms, n_pairs, dtype)
    s = ws.array(slot_base + 1, n_terms, n_pairs, dtype)
    t2 = ws.array(slot_base + 2, n_terms, n_pairs, dtype)
    t3 = ws.array(slot_base + 3, n_terms, n_pairs, dtype)
    t4 = ws.array(slot_base + 4, n_terms, n_pairs, dtype)

    if np.ndim(z0) == 0:
        a_z = (signs * z0 + offsets).astype(dtype)
        u_z = (signs * z_slope).astype(dtype)
        np.subtract(x_z[None, :], a_z[:, None], out=delta)
        np.multiply(delta, u_z[:, None], out=s)
    else:
        np.multiply(signs[:, None], z0[None, :], out=delta)
        delta += offsets[:, None]
        np.subtract(x_z[None, :], delta, out=delta)
        np.multiply(signs[:, None], z_slope[None, :], out=s)
        np.multiply(delta, s, out=s)
    s += p_axis[None, :]

    # rc² = d² + sc² = (q_norm + delta² − s²) + (L/2 − s)².
    np.multiply(delta, delta, out=delta)
    delta += q_norm[None, :]
    np.multiply(s, s, out=t2)
    delta -= t2
    np.maximum(delta, 0.0, out=delta)
    sc = s
    np.subtract(0.5 * length, s, out=sc)
    np.multiply(sc, sc, out=t2)
    rc2 = delta
    rc2 += t2
    np.maximum(rc2, 1.0e-24, out=rc2)

    inv = t3
    np.sqrt(rc2, out=inv)
    np.divide(1.0, inv, out=inv)
    inv2 = t4
    np.multiply(inv, inv, out=inv2)

    # i0 = L·inv + (L³/24)(3 sc² − rc²)·inv⁵  (t2 currently holds sc²).
    length_sq = length * length
    corr = t2
    corr *= 3.0
    corr -= rc2
    corr *= length_sq * length / 24.0
    corr *= inv2
    corr *= inv2
    corr *= inv
    i0 = rc2
    np.multiply(inv, length, out=i0)
    i0 += corr

    # i1 = i0/2 − (L²/12)·sc·inv³.
    i1 = corr
    np.multiply(sc, inv2, out=i1)
    i1 *= inv
    i1 *= length_sq / 12.0
    np.multiply(i0, 0.5, out=sc)
    sc -= i1

    w0 += weights.astype(dtype) @ i0
    w1 += weights.astype(dtype) @ sc


#: Elements (terms x pairs) per evaluation chunk of
#: :func:`adaptive_segment_sums`, chosen so the ``(n_terms, chunk)`` scratch
#: buffers stay L2-resident (interleaved timing on the reference container:
#: 40k beats both 12k, where call overhead dominates, and 260k, which spills
#: to L3).
_ADAPTIVE_CHUNK_ELEMENTS: int = 40_000


def adaptive_segment_sums(
    p_axis: np.ndarray,
    q_norm: np.ndarray,
    x_z: np.ndarray,
    z0,
    z_slope,
    length,
    radius,
    weights: np.ndarray,
    signs: np.ndarray,
    offsets: np.ndarray,
    exact_idx: np.ndarray,
    exact32_idx: np.ndarray,
    midpoint_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted image sums ``(Σ w_l I0_l, Σ w_l I1_l)`` of one term partition.

    The in-plane geometry (axial projection ``p_axis`` and squared in-plane
    distance ``q_norm`` of each field point, both flattened over the pair
    axis) is shared by every image; the per-term work runs entirely in
    pre-allocated scratch buffers.  Terms listed in ``exact_idx`` use the
    analytic integrals in double precision, ``exact32_idx`` the same chain in
    single precision, and ``midpoint_idx`` the single-precision second-order
    midpoint expansion (see :class:`~repro.kernels.truncation.TruncationPlan`
    for the admissibility bounds of each mode).

    Parameters
    ----------
    p_axis, q_norm, x_z:
        In-plane projection, squared in-plane displacement norm and depth of
        every field point, each shape ``(P,)``.
    z0, z_slope, length, radius:
        Source-segment data: start depth, axial depth slope
        ``(z1 − z0)/L``, length and conductor radius.  Scalars for a single
        shared source, or shape ``(P,)`` arrays for per-pair sources.
    weights, signs, offsets:
        The (possibly merged) image-term arrays, shape ``(L,)``.
    exact_idx, exact32_idx, midpoint_idx:
        Disjoint index arrays selecting the terms of each evaluation mode.

    Returns
    -------
    (w0, w1)
        Weighted sums over the selected terms, each shape ``(P,)`` float64.
    """
    n_pairs = p_axis.size
    w0 = np.zeros(n_pairs)
    w1 = np.zeros(n_pairs)
    ws = _WORKSPACE
    d_min = np.maximum(radius, _D_FLOOR)

    scalar_source = np.ndim(z0) == 0 and np.ndim(z_slope) == 0 and np.ndim(length) == 0
    flat = scalar_source and float(z_slope) == 0.0  # contracts: disable=API001 -- exact flat-mesh sentinel: builders assign z_slope = 0.0 literally
    use_f32 = exact32_idx.size or midpoint_idx.size
    if use_f32:
        x_z32 = x_z.astype(np.float32)
        if not flat:
            p_axis32 = p_axis.astype(np.float32)
            q_norm32 = q_norm.astype(np.float32)
            per_pair = np.ndim(z0) != 0
            z0_32 = np.asarray(z0, dtype=np.float32) if per_pair else float(z0)
            slope_32 = np.asarray(z_slope, dtype=np.float32) if per_pair else float(z_slope)
            length_32 = np.asarray(length, dtype=np.float32) if np.ndim(length) else float(length)

    if flat:
        # Horizontal source: the axial projection is image-independent, so
        # everything derived from it is a shared per-pair precompute.
        length = float(length)
        s = p_axis
        upper = length - s
        d_xy2 = np.maximum(q_norm - s * s, 0.0)
        shared64 = {
            "s": s,
            "upper": upper,
            "d_xy2": d_xy2,
            "s_sq": s * s,
            "u_sq": upper * upper,
            "l_minus_2s": length - 2.0 * s,
            "s_over_l": s / length,
        }
        if use_f32:
            shared32 = {key: value.astype(np.float32) for key, value in shared64.items()}
            sc = 0.5 * length - s
            shared32["sc"] = sc.astype(np.float32)
            shared32["sc3"] = (3.0 * sc * sc).astype(np.float32)
            shared32["rc_base"] = (d_xy2 + sc * sc).astype(np.float32)

    n_terms_max = max(exact_idx.size, exact32_idx.size, midpoint_idx.size, 1)
    step = max(1, _ADAPTIVE_CHUNK_ELEMENTS // n_terms_max)
    for start in range(0, n_pairs, step):
        sl = slice(start, min(start + step, n_pairs))
        if flat:
            if exact_idx.size:
                _exact_term_sums_flat(
                    {key: value[sl] for key, value in shared64.items()},
                    x_z[sl], length, d_min,
                    weights[exact_idx], signs[exact_idx], offsets[exact_idx],
                    float(z0), w0[sl], w1[sl], ws, slot_base=0, dtype=np.float64,
                )
            if exact32_idx.size:
                _exact_term_sums_flat(
                    {key: value[sl] for key, value in shared32.items()},
                    x_z32[sl], length, float(d_min),
                    weights[exact32_idx], signs[exact32_idx], offsets[exact32_idx],
                    float(z0), w0[sl], w1[sl], ws, slot_base=8, dtype=np.float32,
                )
            if midpoint_idx.size:
                _midpoint_term_sums_flat(
                    {key: value[sl] for key, value in shared32.items()},
                    x_z32[sl], length,
                    weights[midpoint_idx], signs[midpoint_idx], offsets[midpoint_idx],
                    float(z0), w0[sl], w1[sl], ws, slot_base=16, dtype=np.float32,
                )
            continue
        if exact_idx.size:
            _exact_term_sums(
                p_axis[sl], q_norm[sl], x_z[sl],
                z0[sl] if np.ndim(z0) else z0,
                z_slope[sl] if np.ndim(z_slope) else z_slope,
                length[sl] if np.ndim(length) else length,
                d_min[sl] if np.ndim(d_min) else d_min,
                weights[exact_idx], signs[exact_idx], offsets[exact_idx],
                w0[sl], w1[sl], ws, slot_base=0, dtype=np.float64,
            )
        if exact32_idx.size:
            _exact_term_sums(
                p_axis32[sl], q_norm32[sl], x_z32[sl],
                z0_32[sl] if np.ndim(z0_32) else z0_32,
                slope_32[sl] if np.ndim(slope_32) else slope_32,
                length_32[sl] if np.ndim(length_32) else length_32,
                d_min[sl].astype(np.float32) if np.ndim(d_min) else float(d_min),
                weights[exact32_idx], signs[exact32_idx], offsets[exact32_idx],
                w0[sl], w1[sl], ws, slot_base=8, dtype=np.float32,
            )
        if midpoint_idx.size:
            _midpoint_term_sums(
                p_axis32[sl], q_norm32[sl], x_z32[sl],
                z0_32[sl] if np.ndim(z0_32) else z0_32,
                slope_32[sl] if np.ndim(slope_32) else slope_32,
                length_32[sl] if np.ndim(length_32) else length_32,
                weights[midpoint_idx], signs[midpoint_idx], offsets[midpoint_idx],
                w0[sl], w1[sl], ws, slot_base=16, dtype=np.float32,
            )
    return w0, w1


def potential_integrals(
    field_points: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
    min_distance: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Shape-function integrals ``[∫ N₁/r, ∫ N₂/r]`` for linear elements.

    Convenience wrapper around :func:`line_integrals`: ``N₁ = 1 − l/L`` and
    ``N₂ = l/L``.  The result has one extra trailing axis of size two.
    """
    i0, i1 = line_integrals(field_points, q0, q1, min_distance)
    return np.stack((i0 - i1, i1), axis=-1)
