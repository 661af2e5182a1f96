"""Solver tests: posteriors, loss, exact gradients, and the inference loop."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fttim import (
    Episode,
    EpisodeFailure,
    SyntheticTaskSpec,
    TimConfig,
    generate_synthetic_episode,
    posteriors,
    predict_features,
    run_ft_tim,
    tim_gradients,
    tim_loss,
)
from fttim.bench import SyntheticSource
from fttim.engine import Batch, LossTerms, SolverState


def _episode(seed=0, C=5, d=16, sep=1.5, sd=0.5, qpc=4, heldout=0):
    spec = SyntheticTaskSpec(num_classes=C, dim=d, intra_class_stddev=sd,
                             inter_class_separation=sep, relevant_dims=min(C, d),
                             queries_per_class=qpc, heldout_per_class=heldout,
                             seed=seed)
    return generate_synthetic_episode(spec)


def _random_state(episode, seed=0, iteration=5):
    rng = np.random.default_rng(seed)
    d = episode.dim
    W = episode.support_vectors.T @ episode.support_vectors
    W = W + 0.1 * rng.standard_normal((d, d))
    theta = episode.support_vectors + 0.05 * rng.standard_normal(
        episode.support_vectors.shape
    )
    return SolverState(prototypes=theta, W=W, posteriors=None, marginal=None,
                       iter=iteration)


# --- posteriors -----------------------------------------------------------

def test_posteriors_equidistant_gives_uniform():
    theta = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    x = np.zeros((1, 2))
    p = posteriors(x, theta, tau=7.0)
    np.testing.assert_allclose(p, np.full((1, 4), 0.25), atol=1e-15)


def test_posteriors_large_tau_one_hot_at_nearest():
    theta = np.array([[0.0, 0.0], [3.0, 0.0]])
    x = np.array([[0.5, 0.0]])
    p = posteriors(x, theta, tau=500.0)
    assert p[0, 0] > 1 - 1e-12
    assert np.argmax(p[0]) == 0


def test_posteriors_stable_matches_naive_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        feats = rng.standard_normal((6, 4))
        theta = rng.standard_normal((3, 4))
        tau = rng.uniform(0.1, 5.0)
        d2 = np.sum((feats[:, None, :] - theta[None, :, :]) ** 2, axis=2)
        naive = np.exp(-(tau / 2) * d2)
        naive /= naive.sum(axis=1, keepdims=True)
        assert np.max(np.abs(posteriors(feats, theta, tau) - naive)) <= 1e-12


# --- loss terms -----------------------------------------------------------

def _loss_terms(p_support, labels, p_query, cfg):
    """Loss terms of the given posterior rows, through the solver step."""
    C = p_support.shape[1]
    episode = Episode(
        num_classes=C,
        dim=C,
        support_labels=labels,
        support_vectors=np.eye(C)[labels],
        query_vectors=np.ones((len(p_query), C)) / math.sqrt(C),
        query_hidden_labels=np.zeros(len(p_query), dtype=np.int64),
    )
    (terms,) = Batch([episode], cfg).loss_terms(np.vstack([p_support, p_query])[None])
    return LossTerms(*terms.tolist())


def test_loss_terms_definitional_extremes():
    cfg = TimConfig(lambda_ce=1.0, alpha_cond=1.0)
    C = 4
    p_support = np.eye(C)
    labels = np.arange(C)
    # one query per class, all one-hot: conditional entropy 0, uniform marginal
    p_query = np.eye(C)
    terms = _loss_terms(p_support, labels, p_query, cfg)
    assert terms.cross_entropy == pytest.approx(0.0, abs=1e-12)
    assert terms.conditional_entropy == pytest.approx(0.0, abs=1e-9)
    assert terms.marginal_term == pytest.approx(-math.log(C), abs=1e-12)


def test_loss_terms_uniform_posteriors():
    alpha = 0.7
    cfg = TimConfig(lambda_ce=1.0, alpha_cond=alpha)
    C = 5
    p_support = np.full((C, C), 1.0 / C)
    p_query = np.full((12, C), 1.0 / C)
    terms = _loss_terms(p_support, np.arange(C), p_query, cfg)
    assert terms.conditional_entropy == pytest.approx(alpha * math.log(C), rel=1e-12)
    assert terms.marginal_term == pytest.approx(-math.log(C), rel=1e-12)


def test_tim_loss_matches_independent_reimplementation():
    episode = _episode(seed=3)
    state = _random_state(episode, seed=4)
    cfg = TimConfig(tau=8.0, lambda_ce=0.3, alpha_cond=0.9, transform_start=0)
    got = tim_loss(episode, state, cfg)

    # plain-loop reimplementation, nothing shared with the production path
    def transform(x):
        r = np.array([-0.5 * sum((x[k] - state.W[j, k]) ** 2 for k in range(len(x)))
                      for j in range(len(x))])
        return r / math.sqrt(sum(v * v for v in r))

    def soft_row(z):
        logits = [-(cfg.tau / 2) * sum((state.prototypes[c, k] - z[k]) ** 2
                                       for k in range(len(z)))
                  for c in range(episode.num_classes)]
        mx = max(logits)
        e = [math.exp(v - mx) for v in logits]
        s = sum(e)
        return [v / s for v in e]

    ns = len(episode.support_vectors)
    nq = len(episode.query_vectors)
    ce = 0.0
    for i in range(ns):
        row = soft_row(transform(episode.support_vectors[i]))
        ce -= math.log(row[int(episode.support_labels[i])])
    ce *= cfg.lambda_ce / ns
    cond = 0.0
    marg_acc = np.zeros(episode.num_classes)
    for i in range(nq):
        row = soft_row(transform(episode.query_vectors[i]))
        marg_acc += np.asarray(row)
        cond -= sum(p * math.log(p) for p in row)
    cond *= cfg.alpha_cond / nq
    marg_acc /= nq
    marg = sum(p * math.log(p) for p in marg_acc)

    assert got.cross_entropy == pytest.approx(ce, abs=1e-10)
    assert got.conditional_entropy == pytest.approx(cond, abs=1e-10)
    assert got.marginal_term == pytest.approx(marg, abs=1e-10)
    assert got.total == pytest.approx(ce + cond + marg, abs=1e-10)


# --- gradients ------------------------------------------------------------

def _fd_check(episode, state, cfg, rtol=1e-4, atol=1e-7, h=1e-5):
    grad_theta, grad_w = tim_gradients(episode, state, cfg)

    def loss_at(theta, W):
        s = SolverState(prototypes=theta, W=W, posteriors=None, marginal=None,
                        iter=state.iter)
        return tim_loss(episode, s, cfg).total

    worst = 0.0
    for arr, grad, is_theta in ((state.prototypes, grad_theta, True),
                                (state.W, grad_w, False)):
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus, minus = arr.copy(), arr.copy()
            plus[idx] += h
            minus[idx] -= h
            if is_theta:
                fd = (loss_at(plus, state.W) - loss_at(minus, state.W)) / (2 * h)
            else:
                fd = (loss_at(state.prototypes, plus)
                      - loss_at(state.prototypes, minus)) / (2 * h)
            err = abs(grad[idx] - fd) / max(atol / rtol, abs(grad[idx]), abs(fd))
            worst = max(worst, err)
            it.iternext()
    return worst


def test_gradients_match_finite_differences():
    for seed in (0, 1):
        episode = _episode(seed=seed, C=4, d=8, qpc=3)
        state = _random_state(episode, seed=seed + 10)
        cfg = TimConfig(tau=6.0, lambda_ce=0.2, alpha_cond=1.0, transform_start=0)
        assert _fd_check(episode, state, cfg) <= 1e-4


def test_gradients_match_finite_differences_linear_variant():
    episode = _episode(seed=5, C=4, d=8, qpc=3)
    state = _random_state(episode, seed=6)
    cfg = TimConfig(tau=6.0, variant="linear_transform", transform_start=0)
    assert _fd_check(episode, state, cfg) <= 1e-4


def test_gradients_before_transform_start_have_zero_w_grad():
    episode = _episode(seed=7)
    state = _random_state(episode, seed=8, iteration=3)
    cfg = TimConfig(transform_start=10)
    _, grad_w = tim_gradients(episode, state, cfg)
    assert np.all(grad_w == 0.0)


def test_baseline_w_gradient_is_zero():
    episode = _episode(seed=9)
    state = _random_state(episode, seed=10, iteration=500)
    cfg = TimConfig(variant="tim_baseline")
    _, grad_w = tim_gradients(episode, state, cfg)
    assert np.all(grad_w == 0.0)


def test_gradient_permutation_equivariance():
    episode = _episode(seed=11, C=3, d=6, qpc=4)
    state = _random_state(episode, seed=12)
    cfg = TimConfig(tau=4.0, transform_start=0)
    grad_theta, grad_w = tim_gradients(episode, state, cfg)

    perm = np.array([2, 0, 1])
    episode2 = Episode(
        num_classes=3,
        dim=episode.dim,
        support_labels=episode.support_labels,
        support_vectors=episode.support_vectors[perm],
        query_vectors=episode.query_vectors,
        query_hidden_labels=episode.query_hidden_labels,
    )
    state2 = SolverState(prototypes=state.prototypes[perm], W=state.W,
                         posteriors=None, marginal=None, iter=state.iter)
    grad_theta2, grad_w2 = tim_gradients(episode2, state2, cfg)
    np.testing.assert_allclose(grad_theta2, grad_theta[perm], atol=1e-12)
    np.testing.assert_allclose(grad_w2, grad_w, atol=1e-12)


def test_marginal_only_gradient_vanishes_at_symmetric_state():
    # mirrored query pair around two mirrored prototypes: the class marginal
    # is exactly uniform, so the marginal-entropy gradient is exactly zero
    s2 = 1.0 / math.sqrt(2.0)
    episode = Episode(
        num_classes=2,
        dim=2,
        support_labels=np.array([0, 1]),
        support_vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
        query_vectors=np.array([[2.0, 1.0], [1.0, 2.0]]) / math.sqrt(5.0),
        query_hidden_labels=np.array([0, 1]),
    )
    state = SolverState(
        prototypes=np.array([[1.0, 0.0], [0.0, 1.0]]),
        W=np.eye(2) * s2,
        posteriors=None, marginal=None, iter=0,
    )
    cfg = TimConfig(lambda_ce=0.0, alpha_cond=0.0, tau=5.0, transform_start=1000)
    grad_theta, grad_w = tim_gradients(episode, state, cfg)
    assert np.max(np.abs(grad_theta)) <= 1e-14
    assert np.all(grad_w == 0.0)


@pytest.mark.parametrize("variant", ["ft_tim", "tim_baseline", "linear_transform"])
def test_gradients_and_loss_leave_the_callers_state_as_it_was(variant):
    # tim_gradients runs the solver's W step, which updates W in place, on a copy
    episode = _episode(seed=13, C=3, d=6, qpc=4)
    cfg = TimConfig(variant=variant, iterations=30, transform_start=10)
    state = run_ft_tim(episode, cfg).state
    arrays = [f.name for f in dataclasses.fields(state)
              if isinstance(getattr(state, f.name), np.ndarray)]
    assert arrays == ["prototypes", "W", "posteriors", "marginal"]
    before = [getattr(state, name).tobytes() for name in arrays]
    trace = list(state.loss_trace)
    _, grad_w = tim_gradients(episode, state, cfg)
    tim_loss(episode, state, cfg)
    assert [getattr(state, name).tobytes() for name in arrays] == before
    assert state.loss_trace == trace and state.iter == 30
    assert not np.shares_memory(grad_w, state.W)


# --- inference loop -------------------------------------------------------

def test_trivially_separable_episode_is_solved():
    episode = _episode(seed=20, sep=4.0, sd=0.05, qpc=6)
    result = run_ft_tim(episode, TimConfig())
    assert np.mean(result.predictions == episode.query_hidden_labels) == 1.0


def test_zero_iterations_is_nearest_initial_prototype():
    episode = _episode(seed=21)
    cfg = TimConfig(iterations=0, transform_start=1)
    result = run_ft_tim(episode, cfg)
    d = np.linalg.norm(
        episode.query_vectors[:, None, :] - episode.support_vectors[None, :, :],
        axis=2,
    )
    np.testing.assert_array_equal(result.predictions, np.argmin(d, axis=1))
    assert len(result.trace) == 1


def test_posterior_rows_stay_on_simplex_every_iteration():
    episode = _episode(seed=22)
    seen = []

    def check(it, p_query, terms):
        seen.append(it)
        assert np.all(p_query >= 0.0)
        np.testing.assert_allclose(p_query.sum(axis=1), 1.0, atol=1e-9)

    run_ft_tim(episode, TimConfig(iterations=60, transform_start=20),
               on_iteration=check)
    assert seen == list(range(60))


def test_marginal_term_never_below_analytic_minimum():
    episode = _episode(seed=23)
    cfg = TimConfig(lambda_ce=0.0, alpha_cond=0.0, iterations=120,
                    transform_start=40)
    result = run_ft_tim(episode, cfg)
    floor = -math.log(episode.num_classes)
    for _, _, marg in result.trace:
        assert marg >= floor - 1e-9


def test_baseline_bitwise_recoverable_from_ft_tim():
    episode = _episode(seed=24)
    cfg_ft = TimConfig(variant="ft_tim", iterations=50, transform_start=51)
    cfg_base = TimConfig(variant="tim_baseline", iterations=50, transform_start=51)
    a = run_ft_tim(episode, cfg_ft)
    b = run_ft_tim(episode, cfg_base)
    assert np.array_equal(a.predictions, b.predictions)
    assert a.trace == b.trace
    assert a.state.posteriors.tobytes() == b.state.posteriors.tobytes()


def test_run_is_deterministic():
    episode = _episode(seed=25)
    cfg = TimConfig(iterations=80, transform_start=30)
    a = run_ft_tim(episode, cfg)
    b = run_ft_tim(episode, cfg)
    assert a.trace == b.trace
    assert np.array_equal(a.predictions, b.predictions)


def test_loss_non_increasing_at_small_plain_gradient_rates():
    # defaults/10 under the plain-gradient rule; the transform activation
    # swaps the feature representation, so monotonicity holds per phase and
    # the single boundary step is exempt
    episode = _episode(seed=26)
    cfg = TimConfig(update_rule="plain_gradient", lr_theta=1e-5, lr_w=1e-3,
                    iterations=300, transform_start=150)
    result = run_ft_tim(episode, cfg)
    totals = [sum(t) for t in result.trace]
    for j in range(1, len(totals)):
        if j == cfg.transform_start:
            continue
        assert totals[j] <= totals[j - 1] + 1e-6, f"loss rose at step {j}"


def test_degenerate_transform_aborts_with_iteration():
    # a query orthogonal to the support span maps to zero under the linear
    # variant's gram-initialized matrix, exactly at activation
    eye = np.eye(6)
    episode = Episode(
        num_classes=5,
        dim=6,
        support_labels=np.arange(5),
        support_vectors=eye[:5],
        query_vectors=eye[5:6],
        query_hidden_labels=np.array([0]),
    )
    cfg = TimConfig(variant="linear_transform", iterations=10, transform_start=3)
    with pytest.raises(EpisodeFailure) as exc:
        run_ft_tim(episode, cfg)
    assert exc.value.iteration == 3


def test_overflowing_transform_fails_at_the_non_finite_loss():
    # the first Adam step sends W to ~1e300, so the next pass overflows
    episode = SyntheticSource().episode(2)
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EpisodeFailure) as exc:
            run_ft_tim(episode, TimConfig(lr_w=1e300, transform_start=0, iterations=3),
                       on_iteration=lambda it, p_q, terms: seen.append(it))
    assert exc.value.iteration == 1
    assert str(exc.value) == "iteration 1: non-finite loss"
    assert seen == [0]


def test_hidden_labels_cannot_influence_predictions():
    episode = _episode(seed=27)
    scrambled = Episode(
        num_classes=episode.num_classes,
        dim=episode.dim,
        support_labels=episode.support_labels,
        support_vectors=episode.support_vectors,
        query_vectors=episode.query_vectors,
        query_hidden_labels=np.roll(episode.query_hidden_labels, 7),
    )
    cfg = TimConfig(iterations=40, transform_start=10)
    a = run_ft_tim(episode, cfg)
    b = run_ft_tim(scrambled, cfg)
    assert np.array_equal(a.predictions, b.predictions)
    assert a.trace == b.trace


# Largest posterior difference between an episode and its rotated copy.
# On standard-suite seeds 0-47 with one rotation each it was 8.2e-15 for
# tim_baseline and 2.2e-16 for linear_transform.
_ROTATION_ATOL = 1e-12


@settings(max_examples=16, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), rotation_seed=st.integers(0, 2**31 - 1),
       variant=st.sampled_from(["tim_baseline", "linear_transform"]))
def test_plain_rule_predictions_do_not_depend_on_the_input_basis(seed, rotation_seed,
                                                                 variant):
    # Rotating every input vector by an orthogonal R rotates the prototypes
    # (and W to R W R^T) under the plain gradient rule, and leaves every
    # distance as it was. The adaptive-moment rule is not asserted: it scales
    # each coordinate by its own second moment, so it depends on the basis.
    # Nor is ft_tim: each output of its map is a distance to one row of W,
    # and a rotation mixes those rows.
    episode = SyntheticSource().episode(seed)
    R, _ = np.linalg.qr(np.random.default_rng(rotation_seed).standard_normal(
        (episode.dim, episode.dim)))
    rotated = dataclasses.replace(episode, support_vectors=episode.support_vectors @ R.T,
                                  query_vectors=episode.query_vectors @ R.T)
    config = TimConfig(variant=variant, update_rule="plain_gradient")
    a, b = run_ft_tim(episode, config), run_ft_tim(rotated, config)
    assert np.array_equal(a.predictions, b.predictions)
    np.testing.assert_allclose(b.state.posteriors, a.state.posteriors, rtol=0,
                               atol=_ROTATION_ATOL)


# --- semi-supervised protocol ---------------------------------------------

def test_semi_supervised_trivially_separable():
    episode = _episode(seed=28, sep=4.0, sd=0.05, qpc=6, heldout=3)
    config = TimConfig()
    state = run_ft_tim(episode, config).state
    preds, _ = predict_features(episode.heldout_vectors, state, config)
    assert np.mean(preds == episode.heldout_hidden_labels) == 1.0


# --- variant ordering (reduced suite; the full one runs in acceptance) -----

def test_variant_ordering_direction_on_small_suite():
    from fttim.bench import SyntheticSource, run_episodes
    source = SyntheticSource()
    accs = {}
    for variant in ("ft_tim", "tim_baseline", "linear_transform"):
        outcomes = run_episodes(source, TimConfig(variant=variant),
                                episodes=40, base_seed=0, workers=2)
        accs[variant] = float(np.mean([o.accuracy for o in outcomes]))
    assert accs["ft_tim"] > accs["tim_baseline"]
    assert accs["ft_tim"] > accs["linear_transform"]


# --- documentation ----------------------------------------------------------

def test_readme_library_snippet_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    result = namespace["result"]
    assert result.predictions.shape == (75,)
    assert len(result.state.loss_trace) == TimConfig().iterations + 1
