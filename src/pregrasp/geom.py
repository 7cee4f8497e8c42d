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


def perpendicular_frame(n):
    """Two unit vectors completing a right-handed frame with unit normal n.

    The first is built from the global axis least parallel to n, so the result
    is deterministic for any input direction.
    """
    n = unit(n)
    g = np.zeros(3)
    g[int(np.argmin(np.abs(n)))] = 1.0
    e1 = unit(g - (g @ n) * n)
    e2 = np.cross(n, e1)
    return e1, e2


def eigh_descending(cov):
    """Eigen-decomposition of a symmetric matrix: eigenvalues descending and
    clamped at zero, with the unit eigenvectors as matching columns."""
    evals, evecs = np.linalg.eigh(cov)
    return np.maximum(evals[::-1], 0.0), evecs[:, ::-1].copy()
