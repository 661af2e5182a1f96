"""Clustering-side theory checks: objective, decomposition, bound, MM rounds."""

import math

import numpy as np
import pytest

import fttim.analysis as analysis
from fttim import (
    AssignmentMatrix,
    Episode,
    InternalConsistencyError,
    alternate_kmeans,
    bound_check,
    entropy_decomposition,
    kkt_soft_assignments,
    kmeans_objective,
    make_random_instance,
    mm_iteration,
    project_simplex_rows,
    soft_assignment_objective,
)
from fttim.analysis import (
    _w_steps,
    barrier_value,
    decomposition_residual,
    squared_distances,
    transformed_query_features,
)
import fttim.bench as bench


def _manual_equidistant_instance():
    # one query equidistant from both prototypes in transformed space
    episode = Episode(
        num_classes=2,
        dim=2,
        support_labels=np.array([0, 1]),
        support_vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
        query_vectors=np.array([[1.0, 0.0]]),
        query_hidden_labels=np.array([0]),
    )
    W = np.eye(2)
    F = transformed_query_features(episode, W)
    theta = np.array([F[0] + [1.0, 0.0], F[0] + [0.0, 1.0]])
    return episode, W, theta


# --- K-means objective ------------------------------------------------------

def test_objective_zero_when_prototypes_sit_on_points():
    episode, W, _ = make_random_instance(0, num_classes=4, queries_per_class=1)
    F = transformed_query_features(episode, W)
    q = AssignmentMatrix.from_labels(np.arange(4), 4)
    assert kmeans_objective(episode, W, F, q) == 0.0


def test_objective_uniform_two_classes():
    episode, W, theta = make_random_instance(1, num_classes=2)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta[:2])
    q = AssignmentMatrix(np.full((F.shape[0], 2), 0.5))
    expected = 0.5 * float(np.sum(d2))
    assert kmeans_objective(episode, W, theta[:2], q) == pytest.approx(expected,
                                                                       rel=1e-12)


def test_objective_matches_loop_reimplementation():
    for seed in range(10):
        episode, W, theta = make_random_instance(seed)
        rng = np.random.default_rng(seed + 99)
        q = rng.dirichlet(np.ones(theta.shape[0]), size=episode.num_queries)
        got = kmeans_objective(episode, W, theta, AssignmentMatrix(q))
        F = transformed_query_features(episode, W)
        expected = 0.0
        for i in range(F.shape[0]):
            for c in range(theta.shape[0]):
                expected += q[i, c] * sum(
                    (theta[c, k] - F[i, k]) ** 2 for k in range(F.shape[1])
                )
        assert got == pytest.approx(expected, abs=1e-10 * max(1.0, expected))


def test_objective_dimension_mismatch():
    episode, W, theta = make_random_instance(2)
    q = AssignmentMatrix(np.full((episode.num_queries, 3), 1.0 / 3))
    with pytest.raises(ValueError, match="mismatch"):
        kmeans_objective(episode, W, theta, q)


# --- assignment matrix ------------------------------------------------------

def test_assignment_rows_must_be_simplex():
    with pytest.raises(ValueError, match="sum"):
        AssignmentMatrix(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError, match="non-negative"):
        AssignmentMatrix(np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError, match="one-hot"):
        AssignmentMatrix(np.array([[0.5, 0.5]]), hard=True)


# --- entropy decomposition --------------------------------------------------

def test_decomposition_symmetric_single_query():
    episode, W, theta = _manual_equidistant_instance()
    breakdown = entropy_decomposition(episode, W, theta, tau=3.0)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    lhs = math.log(2.0)
    rhs = (3.0 / 2.0) * breakdown.clustering_term + breakdown.dispersion_term
    assert rhs == pytest.approx(lhs, abs=1e-12)
    # equidistant means uniform posteriors and equal split of the distances
    assert breakdown.clustering_term == pytest.approx(float(np.mean(d2)), rel=1e-12)


def test_decomposition_tau_to_zero_flattens_to_log_c():
    episode, W, theta = make_random_instance(3)
    tau = 1e-6
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    logits = -(tau / 2.0) * d2
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    lhs = -float(np.sum(p * np.log(p)))
    assert lhs == pytest.approx(episode.num_queries * math.log(theta.shape[0]),
                                rel=1e-4)
    assert decomposition_residual(episode, W, theta, tau) <= 1e-10


def test_decomposition_identity_random_sweep():
    for seed in range(200):
        episode, W, theta = make_random_instance(seed)
        assert decomposition_residual(episode, W, theta, tau=15.0) <= 1e-10
        assert decomposition_residual(episode, W, theta, tau=0.37,
                                      normalized=True) <= 1e-10


def test_decomposition_breakdown_fields():
    episode, W, theta = make_random_instance(4)
    b = entropy_decomposition(episode, W, theta, tau=2.0)
    assert b.entropy_barrier <= 0.0
    assert b.bound_value == pytest.approx(b.kmeans_value + b.entropy_barrier)
    assert b.kmeans_value == pytest.approx(b.clustering_term)


def test_decomposition_tamper_canary(monkeypatch):
    episode, W, theta = make_random_instance(5)
    monkeypatch.setattr(analysis, "_CLUSTERING_SCALE_OVERRIDE", 1.0)
    with pytest.raises(InternalConsistencyError):
        entropy_decomposition(episode, W, theta, tau=15.0)


# --- KKT assignments --------------------------------------------------------

def test_kkt_uniform_when_equidistant():
    episode, W, theta = _manual_equidistant_instance()
    q = kkt_soft_assignments(episode, W, theta, tau=2.0)
    np.testing.assert_allclose(q.rows, [[0.5, 0.5]], atol=1e-12)


def test_kkt_hard_limit_at_large_tau():
    episode, W, theta = make_random_instance(6)
    q = kkt_soft_assignments(episode, W, theta, tau=5000.0)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    nearest = np.argmin(d2, axis=1)
    assert np.all(np.argmax(q.rows, axis=1) == nearest)
    assert np.min(np.max(q.rows, axis=1)) > 1 - 1e-6


def test_kkt_matches_projected_gradient_oracle():
    result = bench.kkt_property(10, first_seed=50)
    assert result.ok and result.passed == 10, result.line()


def test_kkt_minimizes_soft_objective_against_perturbations():
    rng = np.random.default_rng(7)
    episode, W, theta = make_random_instance(8)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    tau = 0.5
    q = kkt_soft_assignments(episode, W, theta, tau).rows
    base = soft_assignment_objective(d2, q, tau)
    for _ in range(100):
        perturbed = project_simplex_rows(q + 0.05 * rng.standard_normal(q.shape))
        assert soft_assignment_objective(d2, perturbed, tau) >= base - 1e-12


def test_simplex_projection_is_projection():
    rng = np.random.default_rng(9)
    V = rng.standard_normal((40, 6)) * 3
    P = project_simplex_rows(V)
    assert np.all(P >= 0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    # projecting a point already on the simplex is the identity
    np.testing.assert_allclose(project_simplex_rows(P), P, atol=1e-12)


# --- bound reporting --------------------------------------------------------

def test_bound_equals_objective_for_hard_assignments():
    episode, W, theta = make_random_instance(10)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    hard = AssignmentMatrix.from_labels(np.argmin(d2, axis=1), theta.shape[0])
    check = bound_check(episode, W, theta, tau=0.8, assignments=hard)
    j = kmeans_objective(episode, W, theta, hard)
    assert barrier_value(hard.rows, 0.8) == 0.0
    assert check.bound_value == pytest.approx(j, rel=1e-12)


def test_gap_at_kkt_shrinks_with_tau():
    for seed in range(25):
        episode, W, theta = make_random_instance(seed + 100)
        F = transformed_query_features(episode, W)
        d2 = squared_distances(F, theta)
        gaps = {}
        for tau in (1.0, 0.001):
            q = kkt_soft_assignments(episode, W, theta, tau)
            gaps[tau] = abs(bound_check(episode, W, theta, tau, q).gap)
        assert gaps[0.001] < gaps[1.0]


def test_bound_check_reports_tightness_flag():
    episode, W, theta = make_random_instance(11)
    q = kkt_soft_assignments(episode, W, theta, tau=1.0)
    check = bound_check(episode, W, theta, tau=1.0, assignments=q)
    assert isinstance(check.tight_at_kkt, bool)
    # gap at the softmax assignments is exactly the barrier
    assert check.gap == pytest.approx(barrier_value(q.rows, 1.0), rel=1e-12)


# --- alternating minimization ----------------------------------------------

def test_one_round_frozen_w_is_plain_lloyd():
    episode, W, theta = make_random_instance(12)
    result = alternate_kmeans(episode, max_rounds=1, w_steps_per_round=0,
                              init_W=W, init_prototypes=theta)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    labels = np.argmin(d2, axis=1)
    np.testing.assert_array_equal(np.argmax(result.assignments.rows, axis=1),
                                  labels)
    for c in range(theta.shape[0]):
        members = F[labels == c]
        expected = members.mean(axis=0) if len(members) else theta[c]
        np.testing.assert_allclose(result.prototypes[c], expected, atol=1e-12)


def test_micro_instances_reach_enumeration_optimum():
    # well-separated micro clouds: single-start Lloyd provably cannot escape
    # local minima, so the suite keeps the optimum inside the init's basin
    result = bench.lloyd_property(50, first_seed=200)
    assert result.ok and result.passed == 50, result.line()


def test_brute_force_oracle_on_a_hand_case():
    # two tight pairs far apart: the optimum splits the pairs, J = 2 * 0.5
    F = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    assert bench._brute_force_best_j(F, 2) == 1.0


def test_j_trace_never_increases_with_small_w_steps():
    violations = 0
    for seed in range(500):
        episode, W, theta = make_random_instance(seed)
        result = alternate_kmeans(episode, max_rounds=6, w_steps_per_round=1,
                                  lr_w=0.002, init_W=W, init_prototypes=theta)
        values = [v for _, v in result.trace]
        if any(values[k + 1] > values[k] + 1e-9 for k in range(len(values) - 1)):
            violations += 1
    assert violations == 0


@pytest.mark.parametrize("normalized", [False, True])
def test_w_step_gradient_matches_central_differences(normalized):
    # one step at lr=1 reads back the gradient of J that the W steps of
    # alternate_kmeans and mm_iteration follow
    rtol, atol, h = 1e-4, 1e-7, 1e-5
    for seed in range(3):
        episode, W, theta = make_random_instance(seed + 400)
        if normalized:
            theta = theta / np.linalg.norm(theta, axis=1, keepdims=True)
        q = kkt_soft_assignments(episode, W, theta, tau=2.0, normalized=normalized)
        grad = W - _w_steps(episode.query_vectors, W, theta, q.rows, lr=1.0,
                            steps=1, normalized=normalized)
        for idx in np.ndindex(W.shape):
            plus, minus = W.copy(), W.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (kmeans_objective(episode, plus, theta, q, normalized)
                  - kmeans_objective(episode, minus, theta, q, normalized)) / (2 * h)
            assert abs(grad[idx] - fd) <= rtol * max(atol / rtol, abs(grad[idx]), abs(fd))


def test_empty_cluster_keeps_previous_prototype():
    episode, W, _ = make_random_instance(13, num_classes=2, queries_per_class=2)
    # place one prototype far away so it captures nothing
    F = transformed_query_features(episode, W)
    theta = np.vstack([F.mean(axis=0), F.mean(axis=0) + 100.0])
    result = alternate_kmeans(episode, max_rounds=1, w_steps_per_round=0,
                              init_W=W, init_prototypes=theta)
    np.testing.assert_array_equal(result.prototypes[1], theta[1])
    assert result.assignments.rows[:, 1].sum() == 0.0


def test_prototype_means_are_optimal_for_fixed_assignments():
    rng = np.random.default_rng(14)
    episode, W, theta = make_random_instance(15)
    result = alternate_kmeans(episode, max_rounds=1, w_steps_per_round=0,
                              init_W=W, init_prototypes=theta)
    q = result.assignments
    base = kmeans_objective(episode, W, result.prototypes, q)
    for _ in range(50):
        perturbed = result.prototypes + 0.1 * rng.standard_normal(theta.shape)
        assert kmeans_objective(episode, W, perturbed, q) >= base - 1e-12


# --- majorize-minimize harness ----------------------------------------------

def test_mm_zero_rounds_empty_trace():
    episode, W, theta = make_random_instance(16)
    assert mm_iteration(episode, W, theta, tau=0.001, rounds=0) == []


def test_mm_descent_at_small_tau():
    result = bench.mm_property(50, first_seed=300)
    assert result.passed == 50, result.line()


def test_mm_hard_frozen_matches_lloyd_trace_exactly():
    episode, W, _ = make_random_instance(17)
    raw_s = transformed_query_features(
        Episode(
            num_classes=episode.num_classes,
            dim=episode.dim,
            support_labels=episode.support_labels,
            support_vectors=episode.support_vectors,
            query_vectors=episode.support_vectors,
            query_hidden_labels=episode.support_labels,
        ),
        W,
    )
    theta0 = raw_s.copy()
    rounds = 6
    mm_trace = mm_iteration(episode, W, theta0, tau=0.001, rounds=rounds,
                            w_steps_per_round=0, assignment_mode="hard")
    lloyd = alternate_kmeans(episode, max_rounds=rounds, w_steps_per_round=0,
                             tol=0.0, init_W=W, init_prototypes=theta0)
    lloyd_means = [v for phase, v in lloyd.trace if phase == "means"]
    mm_values = [h for h, _ in mm_trace]
    assert mm_values == lloyd_means[: len(mm_values)]


def test_mm_rejects_unknown_assignment_mode():
    episode, W, theta = make_random_instance(18)
    with pytest.raises(ValueError, match="assignment_mode"):
        mm_iteration(episode, W, theta, tau=0.1, rounds=1, assignment_mode="x")


def test_barrier_nonpositive_zero_iff_onehot():
    rng = np.random.default_rng(19)
    q = rng.dirichlet(np.ones(4), size=30)
    assert barrier_value(q, 0.7) < 0.0
    onehot = np.eye(4)[rng.integers(0, 4, size=30)]
    assert barrier_value(onehot, 0.7) == 0.0
