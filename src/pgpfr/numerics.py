"""Dense vector/matrix kernels used throughout the package.

All arithmetic is float64. Functions are pure and accept anything
numpy can coerce to an array.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

ZERO_NORM_EPS = 1e-12


def cosine_sim(u, v) -> float:
    """Cosine similarity; 0 by convention when either vector is (near) zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise InvalidArgumentError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < ZERO_NORM_EPS or nv < ZERO_NORM_EPS:
        return 0.0
    s = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, s))


def mean_rows(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise InvalidArgumentError("mean_rows requires a non-empty (N, D) matrix")
    return m.mean(axis=0)


def covariance(m) -> np.ndarray:
    """Unbiased sample covariance (divisor N-1); zero matrix when N < 2."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise InvalidArgumentError("covariance requires a non-empty (N, D) matrix")
    n, d = m.shape
    if n < 2:
        return np.zeros((d, d))
    centered = m - m.mean(axis=0)
    c = centered.T @ centered / (n - 1)
    # exact symmetry matters downstream (quadratic-form gradients)
    return (c + c.T) / 2.0
