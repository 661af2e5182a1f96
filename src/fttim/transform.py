"""Norm-induced feature map, its initialization, and exact derivatives.

The map sends a unit vector x to the d-vector whose j-th coordinate is
-0.5 * ||x - w_j||^2, where w_1..w_d are the rows of a learnable square
matrix W. Every output coordinate is non-positive by construction, so the
map can never reproduce an input with a positive coordinate; aligning an
output with a prototype forces some coordinates toward zero instead of
letting the map collapse to a trivial reparametrization.

Inference normalizes the map's output back to the unit sphere, so the
derivative helpers here include the exact normalization Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import DegenerateVectorError

NORMALIZED_INPUT_TOL = 1e-6


@dataclass
class TransformedFeature:
    """Raw map output (all components <= 0) and its unit-normalized form."""

    raw: np.ndarray
    normalized: np.ndarray


def norm_induced_map(
    X: np.ndarray,
    W: np.ndarray,
    x_sq: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Batched map: entry (i, j) is -0.5 * ||x_i - w_j||^2.

    Uses the expanded dot-product form; `apply_transform` uses the direct
    norm form, and the two agree to float64 round-off. A caller that maps
    the same X many times may pass its squared row norms ``x_sq`` and a
    d x d float64 ``scratch`` buffer for W * W.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if x_sq is None:
        x_sq = np.add.reduce(X * X, axis=1)
    w_sq = np.add.reduce(np.multiply(W, W, out=scratch), axis=1)
    raw = X @ W.T
    half = np.add.outer(x_sq, w_sq)
    half *= 0.5
    raw -= half
    return raw


def apply_transform(x: np.ndarray, W: np.ndarray) -> TransformedFeature:
    """Map a single vector and normalize the result.

    Raises:
        DegenerateVectorError: if the raw output is the zero vector, which
            happens only when x coincides with every row of W and indicates
            corrupted state rather than a representable input.
    """
    x = np.asarray(x, dtype=np.float64)
    W = check_transform_matrix(W, dim=x.shape[0])
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector has non-finite components")
    diff = x[None, :] - W
    raw = -0.5 * np.sum(diff * diff, axis=1)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise DegenerateVectorError(
            "transform output is the zero vector (input equals every row of W)"
        )
    return TransformedFeature(raw=raw, normalized=raw / norm)


def check_transform_matrix(W: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate that W is a finite square matrix (optionally of a given dim)."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"transform matrix must be square, got {W.shape}")
    if dim is not None and W.shape[0] != dim:
        raise ValueError(f"transform matrix is {W.shape[0]}x{W.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(W)):
        raise ValueError("transform matrix has non-finite entries")
    return W


def init_transform(
    support_features: np.ndarray,
    mode: str = "gram",
    eps: float = 1e-3,
) -> np.ndarray:
    """Initialize the d x d transform matrix from unit-normalized support rows.

    "gram" returns X_s^T X_s (rank at most the number of support rows).
    "identity_like" is a diagnostic alternative: every row is the mean
    support vector plus an eps bump on its own coordinate.
    """
    S = np.asarray(support_features, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError("support features must be a 2-D array")
    norms = np.linalg.norm(S, axis=1)
    if np.max(np.abs(norms - 1.0)) > NORMALIZED_INPUT_TOL:
        raise ValueError("support features must be unit-normalized")
    d = S.shape[1]
    if mode == "gram":
        return S.T @ S
    if mode == "identity_like":
        mean = S.mean(axis=0)
        return np.tile(mean, (d, 1)) + eps * np.eye(d)
    raise ValueError(f"unknown init mode {mode!r}")


def transform_jacobians(x: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact partial derivatives of the raw map output.

    Returns (d_raw_d_rows, d_raw_d_x): row j of the first array is
    d raw[j] / d w_j = x - w_j (other rows of W do not touch raw[j]);
    row j of the second is d raw[j] / d x = -(x - w_j).
    """
    x = np.asarray(x, dtype=np.float64)
    W = check_transform_matrix(W, dim=x.shape[0])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(W))):
        raise ValueError("inputs must be finite")
    diff = x[None, :] - W
    return diff, -diff


def normalization_jacobian(r: np.ndarray) -> np.ndarray:
    """Jacobian of r -> r / ||r||, i.e. I/||r|| - r r^T / ||r||^3."""
    r = np.asarray(r, dtype=np.float64)
    norm = float(np.linalg.norm(r))
    if norm == 0.0:
        raise DegenerateVectorError("normalization Jacobian undefined at zero")
    return np.eye(r.shape[0]) / norm - np.outer(r, r) / norm**3
