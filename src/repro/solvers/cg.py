"""Conjugate-gradient solver with optional (diagonal) preconditioning.

The paper reports that "the best results have been obtained by a diagonal
preconditioned conjugate gradient algorithm with assembly of the global
matrix", which for the dense symmetric positive definite grounding system
"turned out to be extremely efficient ... with a very low computational cost in
comparison with matrix generation".  The implementation below is a standard
preconditioned CG recording the residual history so tests and ablation
benchmarks can inspect the convergence behaviour.

The solver is *matrix-free*: besides dense NumPy arrays (the fast path —
one BLAS ``matvec`` per iteration) it accepts any symmetric positive definite
operator exposing ``shape`` and either a ``matvec`` method or ``__matmul__``
— in particular the :class:`~repro.cluster.operator.HierarchicalOperator`
of the hierarchical far-field engine, whose matrix is never formed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ConvergenceError, SolverError
from repro.solvers.preconditioners import Preconditioner, identity_preconditioner
from repro.solvers.result import SolveResult
from repro.timing import wall_clock

__all__ = ["conjugate_gradient", "as_matvec_operator"]


def as_matvec_operator(matrix) -> tuple[Callable[[np.ndarray], np.ndarray], int, float]:
    """Validate a system operand and return ``(matvec, n, flops_per_apply)``.

    Accepts a dense ndarray (or anything :func:`numpy.asarray` turns into a
    2D float array) or a mat-vec capable operator: an object with a square
    2D ``shape`` and a ``matvec`` method (or ``__matmul__``).  Raises a clear
    :class:`~repro.exceptions.SolverError` otherwise, so callers passing an
    unsupported operand (e.g. a sparse-format string or a mismatched object)
    get an actionable message instead of a NumPy internal failure.
    """
    if isinstance(matrix, np.ndarray) or np.isscalar(matrix) or isinstance(matrix, (list, tuple)):
        dense = np.asarray(matrix, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise SolverError(f"the system matrix must be square, got shape {dense.shape}")
        n = dense.shape[0]
        return (lambda vector: dense @ vector), n, 2.0 * n * n

    shape = getattr(matrix, "shape", None)
    if shape is None or len(shape) != 2 or shape[0] != shape[1]:
        raise SolverError(
            "the system operand must be a square dense matrix or a mat-vec capable "
            f"operator with a square .shape; got {type(matrix).__name__} "
            f"with shape {shape!r}"
        )
    apply = getattr(matrix, "matvec", None)
    if apply is None:
        if not hasattr(matrix, "__matmul__"):
            raise SolverError(
                f"operator {type(matrix).__name__} supports neither .matvec nor '@'"
            )
        apply = lambda vector: matrix @ vector  # noqa: E731 - tiny adapter
    n = int(shape[0])
    stored_entries = getattr(matrix, "stored_entries", None)
    # A symmetric operator that stores each entry once applies it twice — a
    # near upper-triangle entry in a product and its transpose, a far factor
    # entry in a term sum and a row sum: two multiply-adds.  Fall back to the
    # dense count when it does not report.
    flops_per_apply = 4.0 * stored_entries() if callable(stored_entries) else 2.0 * n * n

    def matvec(vector: np.ndarray) -> np.ndarray:
        result = np.asarray(apply(vector), dtype=float).ravel()
        if result.shape != (n,):
            raise SolverError(
                f"operator mat-vec returned shape {result.shape}, expected ({n},)"
            )
        return result

    return matvec, n, float(flops_per_apply)


def conjugate_gradient(
    matrix,
    rhs: np.ndarray,
    preconditioner: Preconditioner | None = None,
    tolerance: float = 1.0e-10,
    max_iterations: int | None = None,
    raise_on_failure: bool = False,
    on_iteration: Callable[[int, float], None] | None = None,
) -> SolveResult:
    """Solve ``matrix @ x = rhs`` with (preconditioned) conjugate gradients.

    Parameters
    ----------
    matrix:
        Dense symmetric positive definite matrix, or any symmetric positive
        definite operator with a square ``shape`` and ``matvec``/``@`` (the
        dense array keeps its fast path).
    rhs:
        Right-hand side vector.
    preconditioner:
        Callable applying ``M⁻¹``; ``None`` means plain CG.
    tolerance:
        Convergence criterion on the relative residual ``|r| / |b|``.
    max_iterations:
        Iteration cap (default ``10 n``, generously above the theoretical
        ``n``-step termination to absorb round-off).  ``0`` is allowed and
        returns the zero initial guess unconverged (unless the right-hand
        side is zero), which callers use to probe system setup cheaply.
    raise_on_failure:
        When ``True`` raise :class:`~repro.exceptions.ConvergenceError` instead
        of returning a result flagged ``converged=False``.
    on_iteration:
        Optional observer called after every iteration with
        ``(iteration, relative_residual)`` — the telemetry hook the tracing
        layer uses to stream convergence without touching the result.  The
        observer must not mutate solver state; residuals it sees are exactly
        the entries of ``residual_history``.
    """
    apply_matrix, n, flops_per_apply = as_matvec_operator(matrix)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise SolverError(f"right-hand side shape {rhs.shape} does not match matrix size {n}")
    if tolerance <= 0.0:
        raise SolverError("the CG tolerance must be positive")
    if max_iterations is None:
        max_iterations = 10 * n
    if max_iterations < 0:
        raise SolverError("max_iterations must be non-negative")
    apply_preconditioner = preconditioner or identity_preconditioner()
    method = "pcg" if preconditioner is not None else "cg"

    start = wall_clock()
    x = np.zeros(n)
    if n == 0:
        # Empty system: trivially converged with an empty solution.
        return SolveResult(
            solution=x,
            method=method,
            iterations=0,
            residual=0.0,
            converged=True,
            elapsed_seconds=wall_clock() - start,
        )
    r = rhs.copy()
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:  # contracts: disable=API001 -- trivial-system guard: only an exactly zero rhs has the exact solution x=0
        return SolveResult(
            solution=x,
            method=method,
            iterations=0,
            residual=0.0,
            converged=True,
            elapsed_seconds=wall_clock() - start,
        )
    if max_iterations == 0:
        if raise_on_failure:
            raise ConvergenceError(
                "CG was given max_iterations=0 with a non-zero right-hand side"
            )
        return SolveResult(
            solution=x,
            method=method,
            iterations=0,
            residual=1.0,  # |b - A·0| / |b|
            converged=False,
            elapsed_seconds=wall_clock() - start,
        )

    z = apply_preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    history: list[float] = []
    iterations = 0
    converged = False

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        ap = apply_matrix(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError(
                "the matrix is not positive definite (p'Ap <= 0 encountered in CG)"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        residual = float(np.linalg.norm(r)) / rhs_norm
        history.append(residual)
        if on_iteration is not None:
            on_iteration(iteration, residual)
        if residual < tolerance:
            converged = True
            break
        z = apply_preconditioner(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    elapsed = wall_clock() - start
    final_residual = history[-1] if history else 0.0
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"CG did not reach tolerance {tolerance:g} within {max_iterations} iterations "
            f"(residual {final_residual:.3e})"
        )
    # One mat-vec plus a few axpys/dots per iteration.
    flops = iterations * (flops_per_apply + 10.0 * n)
    return SolveResult(
        solution=x,
        method=method,
        iterations=iterations,
        residual=final_residual,
        converged=converged,
        elapsed_seconds=elapsed,
        estimated_flops=flops,
        residual_history=history,
    )
