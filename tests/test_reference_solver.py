"""The solver kernel against a reference solver.

The reference is the straightforward form of the same solver step: one
helper per stage, fresh arrays everywhere, every constant recomputed each
iteration. It performs the same floating-point operations in the same
order as ``fttim.engine``, so every trace, parameter, posterior and
prediction must match bit for bit, not to a tolerance.
"""

import numpy as np
import pytest

from fttim import (
    DegenerateVectorError,
    Episode,
    EpisodeFailure,
    TimConfig,
    run_ft_tim,
    tim_gradients,
    tim_loss,
)
from fttim.bench import STANDARD_SUITE, SyntheticSource
from fttim.engine import UPDATE_RULES, VARIANTS, transform_active
from fttim.features import l2_normalize_rows

PROB_FLOOR = 1e-300


def _posteriors(features, prototypes, tau):
    f2 = np.einsum("ij,ij->i", features, features)
    p2 = np.einsum("ij,ij->i", prototypes, prototypes)
    d2 = np.maximum(f2[:, None] + p2[None, :] - 2.0 * (features @ prototypes.T), 0.0)
    logits = -(tau / 2.0) * d2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _pipeline(X, W, active, variant):
    if not active:
        return X, None, None
    if variant == "linear_transform":
        raw = X @ W.T
    else:
        x_sq = np.sum(X * X, axis=1)
        w_sq = np.sum(W * W, axis=1)
        raw = X @ W.T - 0.5 * (x_sq[:, None] + w_sq[None, :])
    norms = np.linalg.norm(raw, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateVectorError(
            f"transformed feature {int(zero[0])} is the zero vector")
    return raw / norms[:, None], raw, norms


def _loss_terms(p_support, labels, p_query, config):
    ns, nq = p_support.shape[0], p_query.shape[0]
    picked = np.maximum(p_support[np.arange(ns), labels], PROB_FLOOR)
    ce = -(config.lambda_ce / ns) * float(np.sum(np.log(picked)))
    logq = np.log(np.maximum(p_query, PROB_FLOOR))
    cond = -(config.alpha_cond / nq) * float(np.sum(p_query * logq))
    marginal = p_query.mean(axis=0)
    marg = float(np.sum(marginal * np.log(np.maximum(marginal, PROB_FLOOR))))
    return ce, cond, marg


def _logit_grads(p_support, labels, p_query, config):
    ns, C = p_support.shape
    nq = p_query.shape[0]
    onehot = np.zeros((ns, C))
    onehot[np.arange(ns), labels] = 1.0
    g_support = (config.lambda_ce / ns) * (p_support - onehot)
    logq = np.log(np.maximum(p_query, PROB_FLOOR))
    row_entropy = -np.sum(p_query * logq, axis=1)
    g_cond = (config.alpha_cond / nq) * p_query * (-logq - row_entropy[:, None])
    log_marginal = np.log(np.maximum(p_query.mean(axis=0), PROB_FLOOR)) / nq
    g_marg = p_query * (log_marginal[None, :] - (p_query @ log_marginal)[:, None])
    return np.vstack([g_support, g_cond + g_marg])


def _gradients(G, X, z, raw, norms, W, theta, config, active):
    col = G.sum(axis=0)
    grad_theta = -config.tau * (col[:, None] * theta - G.T @ z)
    if not active:
        return grad_theta, None
    row = G.sum(axis=1)
    grad_z = config.tau * (G @ theta - row[:, None] * z)
    dot = np.sum(raw * grad_z, axis=1, keepdims=True)
    n = norms[:, None]
    grad_raw = grad_z / n - raw * (dot / n**3)
    if config.variant == "linear_transform":
        return grad_theta, grad_raw.T @ X
    return grad_theta, grad_raw.T @ X - grad_raw.sum(axis=0)[:, None] * W


class _Adam:
    def __init__(self, shape, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, grad, lr):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_run(episode, config):
    """(predictions, W, prototypes, posteriors, marginal, trace)."""
    sx, labels, qx = episode.solver_inputs()
    sx, qx = l2_normalize_rows(sx), l2_normalize_rows(qx)
    labels = np.asarray(labels, dtype=np.int64)
    ns = sx.shape[0]
    X = np.vstack([sx, qx])
    theta = np.empty((episode.num_classes, sx.shape[1]))
    for c in range(episode.num_classes):
        theta[c] = sx[labels == c].mean(axis=0)
    W = sx.T @ sx
    adaptive = config.update_rule == "adaptive_moment"
    adam_theta = _Adam(theta.shape) if adaptive else None
    adam_w = _Adam(W.shape) if adaptive else None
    trace = []

    def features(iteration):
        try:
            return _pipeline(X, W, transform_active(iteration, config), config.variant)
        except DegenerateVectorError as exc:
            raise EpisodeFailure(str(exc), iteration=iteration) from exc

    def loss_terms(iteration, p):
        terms = _loss_terms(p[:ns], labels, p[ns:], config)
        if not np.isfinite(sum(terms)):
            raise EpisodeFailure("non-finite loss", iteration=iteration)
        return terms

    for it in range(config.iterations):
        active = transform_active(it, config)
        z, raw, norms = features(it)
        p = _posteriors(z, theta, config.tau)
        trace.append(loss_terms(it, p))
        G = _logit_grads(p[:ns], labels, p[ns:], config)
        grad_theta, grad_W = _gradients(G, X, z, raw, norms, W, theta, config, active)
        if not np.all(np.isfinite(grad_theta)):
            raise EpisodeFailure("non-finite prototype gradient", iteration=it)
        if active:
            if not np.all(np.isfinite(grad_W)):
                raise EpisodeFailure("non-finite transform gradient", iteration=it)
            if adam_w is not None:
                W = W - adam_w.step(grad_W, config.lr_w)
            else:
                W = W - config.lr_w * grad_W
        if adam_theta is not None:
            theta = theta - adam_theta.step(grad_theta, config.lr_theta)
        else:
            theta = theta - config.lr_theta * grad_theta

    z, _, _ = features(config.iterations)
    p = _posteriors(z, theta, config.tau)
    trace.append(loss_terms(config.iterations, p))
    p_q = p[ns:]
    return np.argmax(p_q, axis=1), W, theta, p_q, p_q.mean(axis=0), trace


def _assert_same_run(episode, config):
    got = run_ft_tim(episode, config)
    preds, W, theta, p_q, marginal, trace = reference_run(episode, config)
    assert got.trace == trace
    assert got.state.loss_trace == trace
    for a, b in ((got.predictions, preds), (got.state.W, W),
                 (got.state.prototypes, theta), (got.state.posteriors, p_q),
                 (got.state.marginal, marginal)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


@pytest.mark.parametrize("update_rule", UPDATE_RULES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dim", [STANDARD_SUITE["dim"], 200])
def test_run_matches_reference_bitwise(dim, variant, update_rule):
    source = SyntheticSource(dim=dim)
    config = TimConfig(variant=variant, update_rule=update_rule,
                       iterations=40, transform_start=15)
    for seed in (0, 1):
        _assert_same_run(source.episode(seed), config)


@pytest.mark.parametrize("variant", VARIANTS)
def test_loss_and_gradients_match_reference_bitwise(variant):
    episode = SyntheticSource().episode(5)
    config = TimConfig(variant=variant, iterations=30, transform_start=10)
    state = run_ft_tim(episode, config).state
    sx, labels, qx = episode.solver_inputs()
    X = np.vstack([l2_normalize_rows(sx), l2_normalize_rows(qx)])
    active = transform_active(state.iter, config)
    z, raw, norms = _pipeline(X, state.W, active, variant)
    p = _posteriors(z, state.prototypes, config.tau)
    ns = len(sx)
    ce, cond, marg = _loss_terms(p[:ns], labels, p[ns:], config)
    assert tuple(tim_loss(episode, state, config)) == (ce + cond + marg, ce, cond, marg)

    G = _logit_grads(p[:ns], labels, p[ns:], config)
    grad_theta, grad_W = _gradients(G, X, z, raw, norms, state.W,
                                    state.prototypes, config, active)
    if grad_W is None:
        grad_W = np.zeros_like(state.W)
    got_theta, got_W = tim_gradients(episode, state, config)
    assert got_theta.tobytes() == grad_theta.tobytes()
    assert got_W.tobytes() == grad_W.tobytes()


def test_degenerate_failure_matches_reference():
    eye = np.eye(6)
    episode = Episode(
        num_classes=5,
        dim=6,
        support_labels=np.arange(5),
        support_vectors=eye[:5],
        query_vectors=eye[5:6],
        query_hidden_labels=np.array([0]),
    )
    config = TimConfig(variant="linear_transform", iterations=10, transform_start=3)
    with pytest.raises(EpisodeFailure) as got:
        run_ft_tim(episode, config)
    with pytest.raises(EpisodeFailure) as want:
        reference_run(episode, config)
    assert got.value.iteration == want.value.iteration == 3
    assert str(got.value) == str(want.value)


def test_non_finite_failure_matches_reference():
    episode = SyntheticSource().episode(2)
    config = TimConfig(lr_w=1e300, transform_start=0, iterations=3)
    with pytest.raises(EpisodeFailure) as got:
        run_ft_tim(episode, config)
    with pytest.raises(EpisodeFailure) as want:
        reference_run(episode, config)
    assert got.value.iteration == want.value.iteration
    assert str(got.value) == str(want.value)


def test_hook_and_state_arrays_are_never_reused():
    episode = SyntheticSource().episode(3)
    config = TimConfig(iterations=30, transform_start=10)
    kept, copies = [], []

    def hook(it, p_query, terms):
        kept.append(p_query)
        copies.append(p_query.copy())

    first = run_ft_tim(episode, config, on_iteration=hook)
    assert len(kept) == config.iterations
    for p_query, copy in zip(kept, copies):
        assert p_query.tobytes() == copy.tobytes()
    for a, b in zip(kept, kept[1:] + [first.state.posteriors]):
        assert not np.shares_memory(a, b)

    state = first.state
    snapshot = [a.copy() for a in (state.W, state.prototypes,
                                   state.posteriors, state.marginal)]
    second = run_ft_tim(episode, config)
    for a, b in zip((state.W, state.prototypes, state.posteriors, state.marginal),
                    snapshot):
        assert a.tobytes() == b.tobytes()
    for a, b in ((state.W, second.state.W),
                 (state.posteriors, second.state.posteriors)):
        assert not np.shares_memory(a, b)
