"""Dense matrix kernels used throughout the package.

All arithmetic is float64. Functions are pure and accept anything
numpy can coerce to an array. cosine_sim scores every row of one matrix
against every row of another in one call. check_addressable rejects a shape
before any array of it is made. The input checks the exported functions share
read an array's dtype kind and shape, never its entries: check_matrix takes
features and logits, check_labels labels and check_integer counts and
indices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

ZERO_NORM_EPS = 1e-12


def cosine_sim(u, v) -> np.ndarray:
    """Row-wise cosine matrix of (N, D) `u` and (M, D) `v`, shape (N, M).

    Entry (i, j) is u_i . v_j / (|u_i| |v_j|), clipped to [-1, 1]. It is 0 by
    convention when either row's norm is below ZERO_NORM_EPS.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
        raise InvalidArgumentError(
            f"cosine_sim needs (N, D) and (M, D) matrices, got {u.shape} and {v.shape}")
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    nonzero = (nu >= ZERO_NORM_EPS)[:, None] & (nv >= ZERO_NORM_EPS)[None, :]
    # einsum reduces every pair in the same order, so equal rows score exactly
    # equal; BLAS matmul's blocking can round them apart and break exact ties
    dots = np.einsum("ij,kj->ik", u, v)
    s = np.divide(dots, np.outer(nu, nv), out=np.zeros(nonzero.shape), where=nonzero)
    return np.clip(s, -1.0, 1.0)


def check_addressable(*shapes) -> None:
    """Raise MemoryError, as numpy does for an array larger than memory, when
    a float64 array of one of the shapes would hold more bytes than numpy can
    address; numpy itself raises a ValueError for such a shape."""
    for shape in shapes:
        if math.prod(shape) * 8 > np.iinfo(np.intp).max:
            raise MemoryError(f"Unable to allocate an array of shape {shape}: "
                              "more bytes than numpy can address")


def check_matrix(a, what: str) -> np.ndarray:
    """`a` as a float64 matrix: a 2-D array of bool, integer or float entries.
    Str and other entries are rejected, not parsed."""
    a = np.asarray(a)
    if a.ndim != 2 or a.dtype.kind not in "biuf":
        raise InvalidArgumentError(
            f"{what} must be a 2-D numeric array, got {a.dtype} of shape {a.shape}")
    return np.asarray(a, dtype=np.float64)


def check_labels(labels, n: int, rows: str) -> np.ndarray:
    """`labels` as an array, checked to hold one integer label per row of `n`
    `rows`: 1-D, of an integer dtype. Bool, float and str labels are
    rejected, not cast."""
    labels = np.asarray(labels)
    if labels.ndim == 1 and labels.dtype.kind in "iu":
        if len(labels) != n:
            raise InvalidArgumentError(f"{len(labels)} labels for {n} {rows}")
        return labels
    raise InvalidArgumentError(f"labels for {n} {rows} must be a ({n},) integer array, "
                               f"got {labels.dtype} of shape {labels.shape}")


def check_integer(value, what: str) -> None:
    """Reject a count or index that is not an integer, such as a float."""
    if not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
