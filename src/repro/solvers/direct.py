"""Direct dense solvers (Cholesky and LU).

For the problem sizes of the paper's examples (a few hundred unknowns) the
``O(N³/3)`` direct factorisation is immediate; it also provides the reference
solutions against which the iterative solvers are tested.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.solvers.result import SolveResult
from repro.timing import wall_clock

__all__ = ["solve_direct"]


def _validate_system(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SolverError(f"the system matrix must be square, got shape {matrix.shape}")
    if rhs.shape != (matrix.shape[0],):
        raise SolverError(
            f"right-hand side shape {rhs.shape} does not match matrix size {matrix.shape[0]}"
        )
    if not np.all(np.isfinite(matrix)) or not np.all(np.isfinite(rhs)):
        raise SolverError("the linear system contains non-finite entries")
    return matrix, rhs


def solve_direct(matrix: np.ndarray, rhs: np.ndarray, method: str = "cholesky") -> SolveResult:
    """Solve a dense system with a direct factorisation.

    Parameters
    ----------
    matrix, rhs:
        The dense system; for ``method="cholesky"`` the matrix must be
        symmetric positive definite (the Galerkin grounding matrix is).
    method:
        ``"cholesky"`` or ``"lu"``.  A Cholesky request on a matrix that is not
        numerically positive definite falls back to LU and records the fact in
        the returned method name (``"cholesky->lu"``).
    """
    matrix, rhs = _validate_system(matrix, rhs)
    n = matrix.shape[0]
    method = str(method).lower()
    if method not in ("cholesky", "lu"):
        raise SolverError(f"unknown direct method {method!r}")

    from scipy import linalg

    start = wall_clock()
    used = method
    if method == "cholesky":
        try:
            factor = linalg.cho_factor(matrix, lower=True, check_finite=False)
            solution = linalg.cho_solve(factor, rhs, check_finite=False)
            flops = n**3 / 3.0
        except linalg.LinAlgError:
            used = "cholesky->lu"
            solution = linalg.solve(matrix, rhs, assume_a="gen", check_finite=False)
            flops = 2.0 * n**3 / 3.0
    else:
        solution = linalg.solve(matrix, rhs, assume_a="gen", check_finite=False)
        flops = 2.0 * n**3 / 3.0
    elapsed = wall_clock() - start

    rhs_norm = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(matrix @ solution - rhs)) / (rhs_norm if rhs_norm else 1.0)
    return SolveResult(
        solution=np.asarray(solution, dtype=float),
        method=used,
        iterations=0,
        residual=residual,
        converged=bool(np.isfinite(residual)),
        elapsed_seconds=elapsed,
        estimated_flops=flops,
    )
