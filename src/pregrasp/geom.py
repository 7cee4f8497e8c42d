"""Small shared vector helpers."""

import numpy as np


def unit(v, fallback=None):
    """Normalize v; return `fallback` (or raise) when the norm is ~0."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        if fallback is None:
            raise ValueError("cannot normalize a zero vector")
        return np.asarray(fallback, dtype=float)
    return v / n


def rotation_about_axis(axis, angle_rad):
    """Rodrigues rotation matrix about a unit axis."""
    a = unit(axis)
    k = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def row_norms(v):
    """Euclidean norm of each row of an (n, 3) array, with the bits `unit`
    gets for that row on its own.

    A stacked 1x3 @ 3x1 product takes the BLAS dot routine of a 1-D norm,
    where a row-wise sum or einsum can round differently.  Some BLAS kernels
    (OpenBLAS Prescott) round a 3-element dot differently when it starts off
    a 16-byte boundary, so each row is first copied to a 4-wide row, which
    starts aligned like a fresh 3-vector.
    """
    rows = np.zeros((len(v), 4))
    rows[:, :3] = v
    rows = rows[:, :3]
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def unit_rows(v):
    """Normalize each row of an (n, 3) array, bit for bit as `unit` does.

    Raises:
        ValueError: a row's norm is ~0.
    """
    v = np.asarray(v, dtype=float)
    norms = row_norms(v)
    if (norms < 1e-12).any():
        raise ValueError("cannot normalize a zero vector")
    return v / norms[:, None]


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


def eigh_descending(cov):
    """Eigen-decomposition of a symmetric matrix: eigenvalues descending and
    clamped at zero, with the unit eigenvectors as matching columns."""
    evals, evecs = np.linalg.eigh(cov)
    return np.maximum(evals[::-1], 0.0), evecs[:, ::-1].copy()
