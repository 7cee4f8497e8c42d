"""Small shared vector helpers."""

import numpy as np

from .errors import DegenerateInput


def row_norms(v):
    """Euclidean norm of each row of an (n, 3) array, as sqrt(`dot3`(v, v)):
    each row's bits depend on neither its neighbours nor the BLAS kernel."""
    return np.sqrt(dot3(v, v))


def unit_rows(v, fallback=None):
    """Normalize each row of an (n, 3) array, bit for bit as the one-vector
    `unit` of tests/oracles.py does; a row whose norm is ~0 takes the
    matching row of the (n, 3) `fallback`.

    Raises:
        ValueError: a row's norm is ~0 and there is no fallback.
    """
    v = np.asarray(v, dtype=float)
    norms = row_norms(v)
    small = norms < 1e-12
    if not small.any():
        return v / norms[:, None]
    if fallback is None:
        raise ValueError("cannot normalize a zero vector")
    return np.where(small[:, None], fallback, v / np.where(small, 1.0, norms)[:, None])


def rotations_about_axes(axes, angles):
    """Rodrigues rotation matrices I + sin(a) K + (1 - cos(a)) K^2 about each
    row of an (n, 3) array of axes (normalized here) by each of n angles, as
    an (n, 3, 3) stack, with K^2 summed as `dot3` does: each matrix has the
    bits it gets when built on its own, on any BLAS kernel."""
    a = unit_rows(axes)
    zero = np.zeros(len(a))
    k = np.stack((zero, -a[:, 2], a[:, 1], a[:, 2], zero, -a[:, 0],
                  -a[:, 1], a[:, 0], zero), axis=1).reshape(-1, 3, 3)
    k2 = dot3(k[:, :, None, :], k.transpose(0, 2, 1)[:, None, :, :])
    return (np.eye(3) + np.sin(angles)[:, None, None] * k
            + (1.0 - np.cos(angles))[:, None, None] * k2)


def dot3(u, v):
    """u . v over the last axis of two broadcastable arrays, as the sum
    u0 v0 + u1 v1 + u2 v2 of per-column products, left to right: elementwise
    arithmetic, so each row's bits depend on neither its neighbours, its
    alignment nor the BLAS kernel."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def cross(a, b):
    """a x b over the last axis of two broadcastable arrays: the products and
    differences np.cross takes, in its order (so the same bits), without its
    axis bookkeeping, which costs more than the arithmetic on a few rows."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def perpendicular_frames(normals):
    """Two unit vectors per row completing a right-handed frame with each
    row of `normals` (normalized here), as two (n, 3) arrays.

    The first is built from the global axis least parallel to the normal, so
    the result is deterministic for any input direction.
    """
    n = unit_rows(normals)
    rows = np.arange(len(n))
    k = np.argmin(np.abs(n), axis=1)
    g = np.zeros_like(n)
    g[rows, k] = 1.0
    e1 = unit_rows(g - n[rows, k][:, None] * n)
    return e1, cross(n, e1)


def centred_rows(points):
    """The mean of the (n, 3) array `points`, as points.mean(axis=0), and the
    points minus it as C-ordered (3, n) coordinate rows, so that every later
    pass over a coordinate runs along contiguous memory.

    Raises:
        DegenerateInput: all points lie within 1e-12 of their mean on each
            coordinate (they coincide).
    """
    mean = points.mean(axis=0)
    X = np.subtract(points.T, mean[:, None], order="C")
    if float(np.abs(X).max(initial=0.0)) < 1e-12:
        raise DegenerateInput("all points coincide")
    return mean, X


def covariance(X):
    """X X.T / n of n centred points given as (3, n) coordinate rows.

    Raises:
        DegenerateInput: the products overflow (a point lies beyond about
            1e154 m of the mean), so no box or principal axes can be derived.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cov = X @ X.T / X.shape[1]
    if not np.isfinite(cov).all():
        raise DegenerateInput(f"the covariance of the points overflows: a coordinate "
                              f"lies {float(np.abs(X).max()):.3g} m from their mean")
    return cov


def eigh_descending(cov):
    """Eigen-decomposition of a symmetric matrix (or each of a stack): eigenvalues
    descending and clamped at zero, with the unit eigenvectors as matching columns."""
    evals, evecs = np.linalg.eigh(cov)
    return np.maximum(evals[..., ::-1], 0.0), evecs[..., ::-1].copy()
