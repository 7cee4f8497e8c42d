"""Small shared vector helpers."""

import numpy as np


def aligned(a):
    """Copy of an (n, ...) array whose items a[i] each start on a 16-byte
    boundary, as a fresh array of one item does.

    Some BLAS kernels (OpenBLAS Prescott) round a product differently when an
    operand starts off a 16-byte boundary, as the odd rows of an (n, 3) block
    do.  A stacked product over the items of the copy gives each item the bits
    of its product on its own.
    """
    a = np.asarray(a, dtype=float)
    size = int(np.prod(a.shape[1:]))
    items = np.zeros((len(a), size + size % 2))
    items[:, :size] = a.reshape(len(a), size)
    return items[:, :size].reshape(a.shape)


def row_norms(v):
    """Euclidean norm of each row of an (n, 3) array, with the bits that
    np.linalg.norm gives that row as a fresh 3-vector.

    A stacked 1x3 @ 3x1 product takes the BLAS dot routine of a 1-D norm,
    where a row-wise sum or einsum can round differently; its rows are
    `aligned` like fresh 3-vectors.
    """
    rows = aligned(v)
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


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
    """Rodrigues rotation matrices about each row of an (n, 3) array of axes
    (normalized here) by each of n angles, as an `aligned` (n, 3, 3) stack:
    each matrix has the bits it gets when built on its own."""
    a = unit_rows(axes)
    zero = np.zeros(len(a))
    k = aligned(np.stack((zero, -a[:, 2], a[:, 1], a[:, 2], zero, -a[:, 0],
                          -a[:, 1], a[:, 0], zero), axis=1).reshape(-1, 3, 3))
    return aligned(np.eye(3) + np.sin(angles)[:, None, None] * k
                   + (1.0 - np.cos(angles))[:, None, None] * (k @ k))


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
    """Eigen-decomposition of a symmetric matrix (or each of a stack): eigenvalues
    descending and clamped at zero, with the unit eigenvectors as matching columns."""
    evals, evecs = np.linalg.eigh(cov)
    return np.maximum(evals[..., ::-1], 0.0), evecs[..., ::-1].copy()
