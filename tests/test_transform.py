"""Norm-induced map: values, initialization, derivatives, constraints."""

from dataclasses import dataclass

import numpy as np
import pytest

from fttim import DegenerateVectorError, init_transform, norm_induced_map


# --- single-vector oracles ----------------------------------------------------
# The map of one vector in the direct norm form, and its exact derivatives,
# written independently of the batched expanded form the package uses.

@dataclass
class TransformedFeature:
    """Raw map output (all components <= 0) and its unit-normalized form."""

    raw: np.ndarray
    normalized: np.ndarray


def check_transform_matrix(W, dim=None):
    """Validate that W is a finite square matrix (optionally of a given dim)."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"transform matrix must be square, got {W.shape}")
    if dim is not None and W.shape[0] != dim:
        raise ValueError(f"transform matrix is {W.shape[0]}x{W.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(W)):
        raise ValueError("transform matrix has non-finite entries")
    return W


def apply_transform(x, W):
    """Map a single vector and normalize the result; the raw output is the
    zero vector only when x coincides with every row of W."""
    x = np.asarray(x, dtype=np.float64)
    W = check_transform_matrix(W, dim=x.shape[0])
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector has non-finite components")
    diff = x[None, :] - W
    raw = -0.5 * np.sum(diff * diff, axis=1)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise DegenerateVectorError("transform output is the zero vector")
    return TransformedFeature(raw=raw, normalized=raw / norm)


def transform_jacobians(x, W):
    """(d_raw_d_rows, d_raw_d_x): row j of the first is d raw[j] / d w_j =
    x - w_j (other rows of W do not touch raw[j]); row j of the second is
    d raw[j] / d x = -(x - w_j)."""
    x = np.asarray(x, dtype=np.float64)
    W = check_transform_matrix(W, dim=x.shape[0])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(W))):
        raise ValueError("inputs must be finite")
    diff = x[None, :] - W
    return diff, -diff


def normalization_jacobian(r):
    """Jacobian of r -> r / ||r||, i.e. I/||r|| - r r^T / ||r||^3."""
    r = np.asarray(r, dtype=np.float64)
    norm = float(np.linalg.norm(r))
    if norm == 0.0:
        raise DegenerateVectorError("normalization Jacobian undefined at zero")
    return np.eye(r.shape[0]) / norm - np.outer(r, r) / norm**3


# --- the map -------------------------------------------------------------------


def test_hand_case_d2():
    x = np.array([1.0, 0.0])
    W = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = apply_transform(x, W)
    np.testing.assert_allclose(out.raw, [-0.5, -0.5])
    np.testing.assert_allclose(np.linalg.norm(out.normalized), 1.0)


def test_degenerate_when_input_equals_every_row():
    x = np.array([0.3, -0.4, 0.5])
    W = np.tile(x, (3, 1))
    with pytest.raises(DegenerateVectorError):
        apply_transform(x, W)


def test_expanded_form_matches_direct_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(2, 12)
        X = rng.standard_normal((7, d))
        W = rng.standard_normal((d, d))
        expanded = norm_induced_map(X, W)
        direct = np.array([
            [-0.5 * np.sum((x - w) ** 2) for w in W] for x in X
        ])
        assert np.max(np.abs(expanded - direct)) <= 1e-12


def test_single_vector_matches_batch():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5)
    W = rng.standard_normal((5, 5))
    out = apply_transform(x, W)
    np.testing.assert_allclose(out.raw, norm_induced_map(x[None, :], W)[0],
                               atol=1e-12)


def test_gram_init_single_basis_vector():
    S = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(init_transform(S), np.diag([1.0, 0.0, 0.0]))


def test_gram_init_two_orthonormal_rows():
    S = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(init_transform(S), np.diag([1.0, 1.0, 0.0]))


def test_gram_init_rank_equals_support_count():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((5, 64))
    S /= np.linalg.norm(S, axis=1)[:, None]
    W = init_transform(S)
    sv = np.linalg.svd(W, compute_uv=False)
    assert np.sum(sv > 1e-8) == 5


def test_init_rejects_unnormalized_rows():
    S = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="normalized"):
        init_transform(S)


def test_jacobian_zero_at_stationary_row():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((4, 4))
    x = W[2].copy()
    d_rows, _ = transform_jacobians(x, W)
    np.testing.assert_array_equal(d_rows[2], np.zeros(4))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    W = rng.standard_normal((6, 6))
    d_rows, d_x = transform_jacobians(x, W)
    h = 1e-5

    def raw(xv, Wv):
        return norm_induced_map(xv[None, :], Wv)[0]

    for j in range(6):
        for k in range(6):
            Wp, Wm = W.copy(), W.copy()
            Wp[j, k] += h
            Wm[j, k] -= h
            fd = (raw(x, Wp)[j] - raw(x, Wm)[j]) / (2 * h)
            assert abs(d_rows[j, k] - fd) <= 1e-6 * max(1.0, abs(fd))
    for k in range(6):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (raw(xp, W) - raw(xm, W)) / (2 * h)
        for j in range(6):
            assert abs(d_x[j, k] - fd[j]) <= 1e-6 * max(1.0, abs(fd[j]))


def test_row_separability():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5)
    W = rng.standard_normal((5, 5))
    base = norm_induced_map(x[None, :], W)[0]
    for k in range(5):
        W2 = W.copy()
        W2[k] += rng.standard_normal(5)
        new = norm_induced_map(x[None, :], W2)[0]
        for j in range(5):
            if j != k:
                assert new[j] == base[j]


def test_outputs_never_positive():
    rng = np.random.default_rng(6)
    for _ in range(200):
        X = rng.standard_normal((4, 7)) * rng.uniform(0.1, 10)
        W = rng.standard_normal((7, 7)) * rng.uniform(0.1, 10)
        assert np.all(norm_induced_map(X, W) <= 0.0)


def test_identity_not_recoverable_on_positive_probes():
    # probe unit vectors all have a positive coordinate; outputs never do
    rng = np.random.default_rng(7)
    probes = np.abs(rng.standard_normal((20, 6))) + 0.1
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    for _ in range(20):
        W = rng.standard_normal((6, 6))
        raw = norm_induced_map(probes, W)
        assert np.all(raw <= 0.0)
        assert np.all(probes > 0.0)
        assert not np.allclose(raw, probes)


def test_normalization_jacobian_matches_fd():
    rng = np.random.default_rng(8)
    r = rng.standard_normal(5)
    J = normalization_jacobian(r)
    h = 1e-6
    for k in range(5):
        rp, rm = r.copy(), r.copy()
        rp[k] += h
        rm[k] -= h
        fd = (rp / np.linalg.norm(rp) - rm / np.linalg.norm(rm)) / (2 * h)
        np.testing.assert_allclose(J[:, k], fd, atol=1e-8)


def test_alignment_pull_step_decreases_distance():
    # one gradient step on ||theta - normalized(g(x, W))||^2 w.r.t. W should
    # not increase that distance for small step sizes
    rng = np.random.default_rng(9)
    for trial in range(20):
        d = 6
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        W = rng.standard_normal((d, d)) * 0.5
        theta = rng.standard_normal(d)
        theta /= np.linalg.norm(theta)

        def distance(Wv):
            out = apply_transform(x, Wv)
            return float(np.sum((theta - out.normalized) ** 2))

        out = apply_transform(x, W)
        grad_z = -2.0 * (theta - out.normalized)
        grad_raw = normalization_jacobian(out.raw).T @ grad_z
        d_rows, _ = transform_jacobians(x, W)
        grad_W = grad_raw[:, None] * d_rows  # d raw[j]/d w_j scaled per row
        base = distance(W)
        for eta in (1e-4, 1e-3, 1e-2):
            assert distance(W - eta * grad_W) <= base + 1e-12
