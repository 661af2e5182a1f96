"""Clustering-side theory checks: objective, decomposition, bound, MM rounds."""

import itertools
import math

import numpy as np
import pytest

import fttim.analysis as analysis
from fttim import Episode
from fttim.analysis import (
    InternalConsistencyError,
    alternate_kmeans,
    bound_check,
    entropy_decomposition,
    kkt_soft_assignments,
    make_random_instance,
    mm_iteration,
    project_simplex_rows,
    soft_assignment_objective,
)
from fttim.analysis import (
    _check_simplex,
    _j_value,
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


def _kmeans_j(episode, W, theta, q):
    """The K-means objective J of the query rows under the map."""
    return _j_value(squared_distances(transformed_query_features(episode, W), theta), q)


# --- K-means objective ------------------------------------------------------

def test_objective_zero_when_prototypes_sit_on_points():
    episode, W, _ = make_random_instance(0, num_classes=4, queries_per_class=1)
    F = transformed_query_features(episode, W)
    q = np.eye(4)  # the one-hot rows of labels 0, 1, 2, 3
    assert _j_value(squared_distances(F, F), q) == 0.0


def test_objective_uniform_two_classes():
    episode, W, theta = make_random_instance(1, num_classes=2)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta[:2])
    q = _check_simplex(np.full((F.shape[0], 2), 0.5))
    expected = 0.5 * float(np.sum(d2))
    assert _j_value(d2, q) == pytest.approx(expected, rel=1e-12)


def test_objective_matches_loop_reimplementation():
    for seed in range(10):
        episode, W, theta = make_random_instance(seed)
        rng = np.random.default_rng(seed + 99)
        q = rng.dirichlet(np.ones(theta.shape[0]), size=episode.num_queries)
        F = transformed_query_features(episode, W)
        got = _j_value(squared_distances(F, theta), _check_simplex(q))
        expected = 0.0
        for i in range(F.shape[0]):
            for c in range(theta.shape[0]):
                expected += q[i, c] * sum(
                    (theta[c, k] - F[i, k]) ** 2 for k in range(F.shape[1])
                )
        assert got == pytest.approx(expected, abs=1e-10 * max(1.0, expected))


def test_objective_dimension_mismatch():
    episode, W, theta = make_random_instance(2)
    q = np.full((episode.num_queries, 3), 1.0 / 3)
    with pytest.raises(ValueError, match="mismatch"):
        bound_check(episode, W, theta, tau=1.0, assignments=q)


# --- assignment rows --------------------------------------------------------

def test_assignment_rows_must_be_simplex():
    with pytest.raises(ValueError, match="sum"):
        _check_simplex(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError, match="non-negative"):
        _check_simplex(np.array([[1.2, -0.2]]))


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


def test_decomposition_breakdown_fields():
    episode, W, theta = make_random_instance(4)
    b = entropy_decomposition(episode, W, theta, tau=2.0)
    # at the distance-softmax rows: the barrier, the bound and J
    q = kkt_soft_assignments(episode, W, theta, tau=2.0)
    barrier = barrier_value(q, 2.0)
    j = _kmeans_j(episode, W, theta, q)
    assert barrier <= 0.0
    assert bound_check(episode, W, theta, 2.0, q).bound_value == pytest.approx(j + barrier)
    assert j == pytest.approx(b.clustering_term)


def test_decomposition_tamper_canary(misscaled_decomposition):
    episode, W, theta = make_random_instance(5)
    with pytest.raises(InternalConsistencyError):
        entropy_decomposition(episode, W, theta, tau=15.0)


# --- KKT assignments --------------------------------------------------------

def test_kkt_uniform_when_equidistant():
    episode, W, theta = _manual_equidistant_instance()
    q = kkt_soft_assignments(episode, W, theta, tau=2.0)
    np.testing.assert_allclose(q, [[0.5, 0.5]], atol=1e-12)


def test_kkt_hard_limit_at_large_tau():
    episode, W, theta = make_random_instance(6)
    q = kkt_soft_assignments(episode, W, theta, tau=5000.0)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    nearest = np.argmin(d2, axis=1)
    assert np.all(np.argmax(q, axis=1) == nearest)
    assert np.min(np.max(q, axis=1)) > 1 - 1e-6


def test_kkt_matches_projected_gradient_oracle():
    result = bench._tally([("kkt", 10, 50)])[0]
    assert result.ok and result.passed == 10, result.line()


def test_kkt_minimizes_soft_objective_against_perturbations():
    rng = np.random.default_rng(7)
    episode, W, theta = make_random_instance(8)
    F = transformed_query_features(episode, W)
    d2 = squared_distances(F, theta)
    tau = 0.5
    q = kkt_soft_assignments(episode, W, theta, tau)
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
    hard = np.eye(theta.shape[0])[np.argmin(d2, axis=1)]
    check = bound_check(episode, W, theta, tau=0.8, assignments=hard)
    j = _j_value(d2, _check_simplex(hard))
    assert barrier_value(hard, 0.8) == 0.0
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
    d2 = squared_distances(transformed_query_features(episode, W), theta)[None]
    tight, _ = analysis._sweep_gaps(d2, analysis.TAU_SWEEP)
    assert tight.dtype == bool and tight.shape == (1,)
    # gap at the softmax assignments is exactly the barrier
    assert check.gap == pytest.approx(barrier_value(q, 1.0), rel=1e-12)
    H, barrier = analysis.gap_terms(d2, (1.0,))
    assert H[0, 0] == pytest.approx(check.H_value, rel=1e-12)
    assert barrier[0, 0] == pytest.approx(check.gap, rel=1e-12)


# --- alternating minimization ----------------------------------------------

def _lloyd_round(stack, theta):
    """The prototypes and hard rows of the one instance of ``stack`` after
    one Lloyd round (no W step) from prototypes ``theta``."""
    _, prototypes, q, _, _ = analysis._alternate(stack.query, stack.W, stack.F, theta[None],
                                                 1, 0, analysis._LR_W)
    return prototypes[0], q[0]


def test_one_round_frozen_w_is_plain_lloyd():
    stack = analysis.make_random_instances([12])
    theta = stack.theta[0]
    prototypes, assignments = _lloyd_round(stack, theta)
    F = analysis.norm_induced_map(stack.query[0], stack.W[0])
    d2 = squared_distances(F, theta)
    labels = np.argmin(d2, axis=1)
    np.testing.assert_array_equal(np.argmax(assignments, axis=1),
                                  labels)
    for c in range(theta.shape[0]):
        members = F[labels == c]
        expected = members.mean(axis=0) if len(members) else theta[c]
        np.testing.assert_allclose(prototypes[c], expected, atol=1e-12)


def test_micro_instances_reach_enumeration_optimum():
    # well-separated micro clouds: single-start Lloyd provably cannot escape
    # local minima, so the suite keeps the optimum inside the init's basin
    result = bench._tally([("lloyd", 50, 200)])[0]
    assert result.ok and result.passed == 50, result.line()


def test_brute_force_oracle_on_a_hand_case():
    # two tight pairs far apart: the optimum splits the pairs, J = 2 * 0.5
    F = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    assert bench._brute_force_best_j(F[None], 2)[0] == 1.0


def test_j_trace_never_increases_with_small_w_steps():
    stack = analysis.make_random_instances(range(500))
    J, steps = analysis._alternate(stack.query, stack.W, stack.F, stack.theta, 6, 1, 0.002)[3:]
    violations = 0
    for b in range(len(stack.W)):
        values = J[:steps[b], b].tolist()
        if any(values[k + 1] > values[k] + 1e-9 for k in range(len(values) - 1)):
            violations += 1
    assert violations == 0


def _result_bits(W, theta, q, trace):
    # repr round-trips a float exactly, so equal reprs are equal bits
    return [W.tobytes(), theta.tobytes(), q.tobytes(), repr(trace)]


def test_w_step_rounds_are_the_same_alone_and_in_a_stack():
    stack = analysis.make_random_instances(range(500, 507))
    theta0 = analysis.norm_induced_map(stack.support, stack.W)
    W, theta, q, J, steps = analysis._alternate(stack.query, stack.W, stack.F, theta0,
                                                100, 1, analysis._LR_W)
    assert J.shape == (steps.max(), len(stack.W))
    for b in range(len(stack.W)):
        episode, W_b, _ = make_random_instance(500 + b)
        alone = alternate_kmeans(episode, w_steps_per_round=1, init_W=W_b)
        assert any(name == "w_step" for name, _ in alone.trace)
        trace = list(zip(itertools.cycle(("assign", "means", "w_step")), J[:steps[b], b].tolist()))
        assert _result_bits(alone.W, alone.prototypes, alone.assignments, alone.trace) \
            == _result_bits(W[b], theta[b], q[b], trace)


def test_rising_means_step_in_a_stack_raises_that_instance_message(monkeypatch):
    micro = dict(num_classes=2, queries_per_class=2, dim=2, separation=3.0, stddev=0.3)
    stack = analysis.make_random_instances(range(700, 708), **micro)
    theta0 = analysis.norm_induced_map(stack.support, stack.W)
    bad = analysis.norm_induced_map(stack.query[5], stack.W[5])
    means = analysis._means_update

    def rising_means(F, q_rows, prev):
        # moves the prototypes of instance 5 only, wherever it sits
        theta = means(F, q_rows, prev)
        theta[np.all(F == bad, axis=(-2, -1))] += 1.0
        return theta

    monkeypatch.setattr(analysis, "_means_update", rising_means)
    with pytest.raises(InternalConsistencyError) as alone:
        alternate_kmeans(make_random_instance(705, **micro)[0], max_rounds=50,
                         w_steps_per_round=0, init_W=stack.W[5])
    assert str(alone.value).startswith("means step increased the K-means objective: ")
    with pytest.raises(InternalConsistencyError) as stacked:
        analysis._alternate(stack.query, stack.W, stack.F, theta0, 50, 0, analysis._LR_W)
    assert str(stacked.value) == str(alone.value)
    # the other instances run through
    keep = np.arange(len(stack.W)) != 5
    analysis._alternate(stack.query[keep], stack.W[keep], stack.F[keep], theta0[keep], 50, 0,
                        analysis._LR_W)


def test_w_step_gradient_matches_central_differences():
    # one step at lr=1 reads back the gradient of J that the W steps of
    # alternate_kmeans and mm_iteration follow
    rtol, atol, h = 1e-4, 1e-7, 1e-5
    for seed in range(3):
        episode, W, theta = make_random_instance(seed + 400)
        q = kkt_soft_assignments(episode, W, theta, tau=2.0)
        F = transformed_query_features(episode, W)
        grad = W - _w_steps(episode.query_vectors, W, F, theta, q, lr=1.0, steps=1)
        for idx in np.ndindex(W.shape):
            plus, minus = W.copy(), W.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (_kmeans_j(episode, plus, theta, q)
                  - _kmeans_j(episode, minus, theta, q)) / (2 * h)
            assert abs(grad[idx] - fd) <= rtol * max(atol / rtol, abs(grad[idx]), abs(fd))


def test_w_steps_and_mm_rounds_leave_the_instances_as_they_were():
    # the W steps run the solver's W step, which updates W in place, on a copy
    stack = analysis.make_random_instances(range(700, 706))
    arrays = (stack.W, stack.F, stack.theta)
    before = [a.tobytes() for a in arrays]
    d2 = squared_distances(stack.F, stack.theta)
    q = analysis._soft_rows(d2, 1.0)
    W = _w_steps(stack.query, stack.W, stack.F, stack.theta, q, analysis._LR_W, 2)
    analysis._mm_trace(stack.query, stack.W, stack.F, stack.theta, d2, 1e-3, 3)
    assert [a.tobytes() for a in arrays] == before
    assert not np.shares_memory(W, stack.W) and not np.array_equal(W, stack.W)
    # one instance, through the public functions
    episode, W, theta = make_random_instance(700)
    before = [W.tobytes(), theta.tobytes()]
    mm_iteration(episode, W, theta, tau=1e-3, rounds=3)
    alternate_kmeans(episode, max_rounds=3, init_W=W)
    assert [W.tobytes(), theta.tobytes()] == before


def test_empty_cluster_keeps_previous_prototype():
    stack = analysis.make_random_instances([13], num_classes=2, queries_per_class=2)
    # place one prototype far away so it captures nothing
    F = stack.F[0]
    theta = np.vstack([F.mean(axis=0), F.mean(axis=0) + 100.0])
    prototypes, assignments = _lloyd_round(stack, theta)
    np.testing.assert_array_equal(prototypes[1], theta[1])
    assert assignments[:, 1].sum() == 0.0


def test_prototype_means_are_optimal_for_fixed_assignments():
    rng = np.random.default_rng(14)
    episode, W, theta = make_random_instance(15)
    prototypes, q = _lloyd_round(analysis.make_random_instances([15]), theta)
    base = _kmeans_j(episode, W, prototypes, q)
    for _ in range(50):
        perturbed = prototypes + 0.1 * rng.standard_normal(theta.shape)
        assert _kmeans_j(episode, W, perturbed, q) >= base - 1e-12


# --- majorize-minimize harness ----------------------------------------------

def test_mm_zero_rounds_empty_trace():
    episode, W, theta = make_random_instance(16)
    assert mm_iteration(episode, W, theta, tau=0.001, rounds=0) == []


def test_mm_descent_at_small_tau():
    result = bench._tally([("mm", 50, 300)])[0]
    assert result.passed == 50, result.line()


def test_barrier_nonpositive_zero_iff_onehot():
    rng = np.random.default_rng(19)
    q = rng.dirichlet(np.ones(4), size=30)
    assert barrier_value(q, 0.7) < 0.0
    onehot = np.eye(4)[rng.integers(0, 4, size=30)]
    assert barrier_value(onehot, 0.7) == 0.0
