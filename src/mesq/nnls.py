"""Small nonnegative least squares solver (Lawson-Hanson active set)."""

from __future__ import annotations

import numpy as np


def nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||A x - b||_2 subject to x >= 0.

    Returns ``(x, residual_norm)`` after at most 3n active-set steps. A is a
    real m x n matrix; complex systems must be stacked into real/imaginary
    rows by the caller.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if b.size != m:
        raise ValueError("shape mismatch between A and b")

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    # dual feasibility tolerance scaled to the problem
    tol = 10.0 * np.finfo(float).eps * np.linalg.norm(A, 1) * max(m, n)

    for _ in range(3 * n):
        w = A.T @ (b - A @ x)
        w[passive] = -np.inf
        if np.all(w <= tol):
            break
        passive[int(np.argmax(w))] = True

        while True:
            z = np.zeros(n)
            z[passive], *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
            if z[passive].min() > 0.0:
                x = z
                break
            # step back along x -> z until the first passive coordinate hits 0
            mask = passive & (z <= 0.0)
            alpha = np.min(x[mask] / (x[mask] - z[mask]))
            x = x + alpha * (z - x)
            passive &= x > tol

    return x, float(np.linalg.norm(A @ x - b))
