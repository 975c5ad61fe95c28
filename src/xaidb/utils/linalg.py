"""Small linear-algebra helpers shared by models and influence functions."""

from __future__ import annotations

import numpy as np

from xaidb.exceptions import ConvergenceError

__all__ = [
    "solve_psd",
    "solve_psd_batched",
    "conjugate_gradient",
    "batched_outer_sum",
    "logsumexp",
    "sigmoid",
]


def solve_psd(matrix: np.ndarray, rhs: np.ndarray, *, ridge: float = 0.0) -> np.ndarray:
    """Solve ``(matrix + ridge*I) x = rhs`` for a symmetric PSD ``matrix``.

    Tries a Cholesky solve first and falls back to least squares when the
    matrix is numerically singular, which keeps influence-function and
    closed-form regression code paths robust without hiding rank problems
    behind silent regularisation.
    """
    a = np.asarray(matrix, dtype=float)
    if ridge:
        a = a + ridge * np.eye(a.shape[0])
    try:
        chol = np.linalg.cholesky(a)
        y = np.linalg.solve(chol, rhs)
        return np.linalg.solve(chol.T, y)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        return solution


def solve_psd_batched(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of PSD systems ``matrices[b] x = rhs[b]`` at once.

    Row ``b`` of the result is **bitwise identical** to
    ``solve_psd(matrices[b], rhs[b])``: the stacked ``cholesky`` and
    ``solve`` gufuncs hand each matrix to the same LAPACK routines the
    2-D calls use.  The obvious one-shot multi-RHS solve against one
    shared matrix is deliberately avoided — the blocked (gemm-based)
    kernels it dispatches to are not column-for-column identical to the
    vector path.  When any factorization fails the whole stack goes
    through :func:`solve_psd`, whose least-squares fallback then
    applies to exactly the singular systems.
    """
    a = np.asarray(matrices, dtype=float)
    b = np.asarray(rhs, dtype=float)
    try:
        chol = np.linalg.cholesky(a)
        y = np.linalg.solve(chol, b[..., None])
        return np.linalg.solve(chol.transpose(0, 2, 1), y)[..., 0]
    except np.linalg.LinAlgError:
        return np.stack([solve_psd(m, r) for m, r in zip(a, b)])


def conjugate_gradient(
    matvec,
    rhs: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> np.ndarray:
    """Solve ``A x = rhs`` given only the matrix-vector product ``matvec``.

    Used by influence functions to invert the Hessian implicitly (the
    "stochastic estimation" alternative of Koh & Liang 2017) — ablated
    against the exact solve in experiment E16.

    Raises :class:`ConvergenceError` if the residual does not drop below
    ``tol * ||rhs||`` within ``max_iter`` iterations.
    """
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros_like(rhs)
    residual = rhs - matvec(x)
    direction = residual.copy()
    rs_old = float(residual @ residual)
    threshold = tol * max(float(np.linalg.norm(rhs)), 1e-30)
    for _ in range(max_iter):
        if np.sqrt(rs_old) <= threshold:
            return x
        a_dir = matvec(direction)
        denom = float(direction @ a_dir)
        if denom <= 0:
            # Hessian not PSD along this direction; bail out with the
            # current iterate rather than diverging.
            return x
        alpha = rs_old / denom
        x = x + alpha * direction
        residual = residual - alpha * a_dir
        rs_new = float(residual @ residual)
        direction = residual + (rs_new / rs_old) * direction
        rs_old = rs_new
    if np.sqrt(rs_old) <= threshold:
        return x
    raise ConvergenceError(
        f"conjugate gradient did not converge in {max_iter} iterations "
        f"(residual {np.sqrt(rs_old):.3e}, threshold {threshold:.3e})"
    )


def batched_outer_sum(vectors: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Compute ``sum_i w_i * v_i v_i^T`` without materialising each outer
    product (the workhorse of Hessian assembly for GLMs)."""
    vectors = np.asarray(vectors, dtype=float)
    if weights is None:
        return vectors.T @ vectors
    weights = np.asarray(weights, dtype=float)
    return (vectors * weights[:, None]).T @ vectors


def logsumexp(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Numerically stable ``log(sum(exp(values)))``."""
    values = np.asarray(values, dtype=float)
    peak = np.max(values, axis=axis, keepdims=True)
    # xailint: disable=XDB024 (the peak shift leaves one term at exp(0) = 1, so the sum is >= 1)
    out = np.log(np.sum(np.exp(values - peak), axis=axis, keepdims=True)) + peak
    if axis is None:
        return out.reshape(())
    return np.squeeze(out, axis=axis)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out
