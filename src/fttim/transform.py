"""Norm-induced feature map and its initialization.

The map sends a unit vector x to the d-vector whose j-th coordinate is
-0.5 * ||x - w_j||^2, where w_1..w_d are the rows of a learnable square
matrix W. Every output coordinate is non-positive by construction, so the
map can never reproduce an input with a positive coordinate; aligning an
output with a prototype forces some coordinates toward zero instead of
letting the map collapse to a trivial reparametrization.

Inference normalizes the map's output back to the unit sphere; the exact
derivatives of the map and of that normalization live with the solver in
:mod:`fttim.engine`.
"""

from __future__ import annotations

import numpy as np

from .features import _check_unit_rows


def norm_induced_map(
    X: np.ndarray,
    W: np.ndarray,
    x_sq: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Batched map: entry (i, j) is -0.5 * ||x_i - w_j||^2, for one (X, W)
    pair or for stacks of them along leading axes.

    Uses the expanded dot-product form, which agrees with the direct norm
    form to float64 round-off. A caller that maps the same X many times may
    pass its squared row norms ``x_sq`` and a float64 ``scratch`` buffer
    shaped like W for W * W.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if x_sq is None:
        x_sq = np.add.reduce(X * X, axis=-1)
    w_sq = np.add.reduce(np.multiply(W, W, out=scratch), axis=-1)
    raw = X @ W.swapaxes(-1, -2)
    half = x_sq[..., :, None] + w_sq[..., None, :]
    half *= 0.5
    raw -= half
    return raw


def init_transform(support_features: np.ndarray) -> np.ndarray:
    """Initialize the d x d transform matrix from unit-normalized support
    rows: X_s^T X_s, of rank at most the number of support rows. A stack of
    support arrays along leading axes gives a stack of matrices."""
    S = np.asarray(support_features, dtype=np.float64)
    if S.ndim < 2:
        raise ValueError("support features must be a 2-D array or a stack of them")
    _check_unit_rows("support", S)
    return S.swapaxes(-1, -2) @ S
