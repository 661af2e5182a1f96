"""Transductive fine-tuning solver over fixed, precomputed features.

The classifier is a set of per-class prototypes scored by a distance
softmax: p(c | x) = softmax_c(-(tau/2) * ||theta_c - x'||^2). Fine-tuning
minimizes a weighted sum of three terms,

    lambda_ce * (support cross-entropy)
  + alpha_cond * (mean query posterior entropy)
  + sum_c marginal_c * log(marginal_c),

so confident query predictions are rewarded while a collapse onto a single
class is penalized through the query-marginal term.

From iteration ``transform_start`` onward the features x' are the
unit-normalized outputs of the norm-induced map (variant "ft_tim") or of a
plain linear map (variant "linear_transform"); before that, and always for
variant "tim_baseline", x' is the unit-normalized input feature. Gradients
are exact and flow through the map and its post-normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .features import (
    DegenerateVectorError,
    Episode,
    FeatureBank,
    l2_normalize_rows,
    load_feature_bank,
    write_feature_bank,
)
from .transform import init_transform, norm_induced_map

VARIANTS = ("ft_tim", "tim_baseline", "linear_transform")
UPDATE_RULES = ("plain_gradient", "adaptive_moment")

# Clamp probabilities here before taking logs: keeps -inf out of the loss
# without measurably moving 64-bit gradients.
PROB_FLOOR = 1e-300


class EpisodeFailure(RuntimeError):
    """The solver aborted an episode (degenerate transform or non-finite math)."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class TimConfig:
    """All solver hyperparameters. Defaults follow the standard fine-tuning
    recipe: the transform matrix trains at 0.01 starting from iteration 200,
    prototypes train throughout."""

    tau: float = 15.0
    lambda_ce: float = 0.1
    alpha_cond: float = 1.0
    iterations: int = 1000
    transform_start: int = 200
    lr_theta: float = 1e-4
    lr_w: float = 0.01
    update_rule: str = "adaptive_moment"
    variant: str = "ft_tim"

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lambda_ce < 0 or self.alpha_cond < 0:
            raise ValueError("loss weights must be non-negative")
        if self.iterations < 0 or self.transform_start < 0:
            raise ValueError("iteration counts must be non-negative")
        if self.lr_theta <= 0 or self.lr_w <= 0:
            raise ValueError("learning rates must be positive")
        if self.update_rule not in UPDATE_RULES:
            raise ValueError(f"update_rule must be one of {UPDATE_RULES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolverState:
    """Fitted solver state: prototypes, transform matrix, final query
    posteriors and their class marginal, plus the loss trace."""

    prototypes: np.ndarray
    W: np.ndarray
    posteriors: np.ndarray
    marginal: np.ndarray
    iter: int
    loss_trace: list[tuple[float, float, float]] = field(default_factory=list)


class LossTerms(NamedTuple):
    total: float
    cross_entropy: float
    conditional_entropy: float
    marginal_term: float


class RunResult(NamedTuple):
    predictions: np.ndarray
    state: SolverState
    trace: list[tuple[float, float, float]]


class SemiSupervisedResult(NamedTuple):
    heldout_predictions: np.ndarray
    state: SolverState


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(e, out=e)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def posteriors(
    features: np.ndarray, prototypes: np.ndarray, tau: float,
    f2: np.ndarray | None = None,
) -> np.ndarray:
    """Distance-softmax class posteriors, one simplex row per feature row.

    ``f2`` may pass in the squared row norms of ``features`` when the caller
    already has them."""
    if f2 is None:
        f2 = np.einsum("ij,ij->i", features, features)
    p2 = np.einsum("ij,ij->i", prototypes, prototypes)
    d2 = features @ prototypes.T
    d2 *= 2.0
    np.subtract(np.add.outer(f2, p2), d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    d2 *= -(tau / 2.0)
    return _softmax_rows(d2)


def transform_active(iteration: int, config: TimConfig) -> bool:
    return config.variant != "tim_baseline" and iteration >= config.transform_start


def _pipeline(
    X: np.ndarray, W: np.ndarray, active: bool, variant: str,
    x_sq: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Features fed to the classifier: (z, raw, raw_norms).

    raw and raw_norms are None when the transform is inactive (z is then the
    input itself, assumed unit-normalized). ``x_sq`` and ``scratch`` are
    passed on to :func:`norm_induced_map`.
    """
    if not active:
        return X, None, None
    if variant == "linear_transform":
        raw = X @ W.T
    else:
        raw = norm_induced_map(X, W, x_sq, scratch)
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1))
    if np.fmin.reduce(norms, initial=np.inf) == 0.0:  # fmin skips NaN norms
        zero = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateVectorError(f"transformed feature {zero} is the zero vector")
    return raw / norms[:, None], raw, norms


def _init_prototypes(support_x: np.ndarray, labels: np.ndarray, C: int) -> np.ndarray:
    # one-shot: the normalized support feature itself; multi-shot: class mean
    theta = np.empty((C, support_x.shape[1]))
    for c in range(C):
        theta[c] = support_x[labels == c].mean(axis=0)
    return theta


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


class _Step:
    """The solver step of one episode: its constants and scratch buffers,
    built once, and one fused forward and backward pass over them.

    ``forward`` maps and normalizes the features (when the transform is
    active), takes the posteriors and the loss terms, and keeps what
    ``backward`` needs; ``backward`` returns the exact gradients at that
    point. The posteriors and marginal are fresh arrays on every pass; the
    W gradient lives in a buffer that the next backward pass overwrites.
    """

    def __init__(self, episode: Episode, config: TimConfig):
        support_x, labels, query_x = episode.solver_inputs()
        self.config = config
        self.ns, self.nq = len(support_x), len(query_x)
        self.X = X = np.vstack([l2_normalize_rows(support_x), l2_normalize_rows(query_x)])
        self.x_sq = np.add.reduce(X * X, axis=1)
        self.f2 = np.einsum("ij,ij->i", X, X)  # squared norms of z = X when inactive
        self.labels = np.asarray(labels, dtype=np.int64)
        self.picks = (np.arange(self.ns), self.labels)
        C, d = episode.num_classes, X.shape[1]
        self.onehot = np.zeros((self.ns, C))
        self.onehot[self.picks] = 1.0
        self.G = np.empty((len(X), C))  # d loss / d logits, support rows first
        self.scratch = np.empty((d, d))
        self.grad_W = np.empty((d, d))

    def forward(self, W: np.ndarray, theta: np.ndarray, active: bool) -> LossTerms:
        self.W, self.theta, self.active = W, theta, active
        self.z, self.raw, self.norms = _pipeline(
            self.X, W, active, self.config.variant, self.x_sq, self.scratch)
        f2 = None if active else self.f2
        return self.loss_terms(posteriors(self.z, theta, self.config.tau, f2))

    def loss_terms(self, p: np.ndarray) -> LossTerms:
        """Loss terms of stacked (support, query) posterior rows."""
        cfg, ns, nq = self.config, self.ns, self.nq
        self.p_s, self.p_q = p_s, p_q = p[:ns], p[ns:]
        picked = np.maximum(p_s[self.picks], PROB_FLOOR)
        ce = -(cfg.lambda_ce / ns) * float(np.add.reduce(np.log(picked)))
        self.logq = np.log(np.maximum(p_q, PROB_FLOOR))
        self.plogq = p_q * self.logq
        cond = -(cfg.alpha_cond / nq) * float(np.add.reduce(self.plogq, axis=None))
        self.marginal = np.add.reduce(p_q, axis=0) / nq
        self.log_marginal = np.log(np.maximum(self.marginal, PROB_FLOOR))
        marg = float(np.add.reduce(self.marginal * self.log_marginal))
        return LossTerms(ce + cond + marg, ce, cond, marg)

    def backward(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(d loss/d theta, d loss/d W) at the last forward pass; the W
        gradient is None when the transform was inactive."""
        cfg, ns, nq = self.config, self.ns, self.nq
        p_q, G, z, theta = self.p_q, self.G, self.z, self.theta
        # logit gradients: support rows, then query rows
        np.subtract(self.p_s, self.onehot, out=G[:ns])
        G[:ns] *= cfg.lambda_ce / ns
        row_entropy = -np.add.reduce(self.plogq, axis=1)
        g_cond = (cfg.alpha_cond / nq) * p_q * (-self.logq - row_entropy[:, None])
        log_marginal = self.log_marginal / nq
        g_marg = p_q * (log_marginal - (p_q @ log_marginal)[:, None])
        np.add(g_cond, g_marg, out=G[ns:])

        # the logit is -(tau/2)||theta_c - z_i||^2, so d/d theta_c is
        # -tau (theta_c - z_i) and d/d z_i is tau (theta_c - z_i)
        grad_theta = np.add.reduce(G, axis=0)[:, None] * theta
        grad_theta -= G.T @ z
        grad_theta *= -cfg.tau
        if not self.active:
            return grad_theta, None
        grad_z = G @ theta
        grad_z -= np.add.reduce(G, axis=1)[:, None] * z
        grad_z *= cfg.tau

        grad_raw = _grad_raw(grad_z, self.raw, self.norms, out=grad_z)
        return grad_theta, _grad_w(grad_raw, self.X, self.W,
                                   cfg.variant != "linear_transform",
                                   out=self.grad_W, scratch=self.scratch)


def _grad_raw(
    grad_z: np.ndarray, raw: np.ndarray, norms: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Back through z = r/||r||: J^T g = g/||r|| - r (r.g)/||r||^3, row-wise.

    ``out`` may be ``grad_z`` itself."""
    n = norms[:, None]
    dot = np.add.reduce(raw * grad_z, axis=1, keepdims=True)
    grad_raw = np.divide(grad_z, n, out=out)
    grad_raw -= raw * (dot / n**3)
    return grad_raw


def _grad_w(
    grad_raw: np.ndarray, X: np.ndarray, W: np.ndarray, norm_induced: bool,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient w.r.t. W from the gradient w.r.t. the raw map outputs, for the
    norm-induced map or (``norm_induced=False``) the linear map X W^T.
    ``out`` and ``scratch`` may be d x d float64 buffers."""
    grad_W = np.matmul(grad_raw.T, X, out=out)
    if norm_induced:
        # raw[i, j] = -0.5||x_i - w_j||^2: d raw[i, j]/d w_j = x_i - w_j
        col = np.add.reduce(grad_raw, axis=0)
        grad_W -= np.multiply(col[:, None], W, out=scratch)
    return grad_W


def tim_loss(episode: Episode, state: SolverState, config: TimConfig) -> LossTerms:
    """Loss terms at the given state, using the representation in effect
    at ``state.iter`` (raw before transform_start, transformed after)."""
    return _Step(episode, config).forward(
        state.W, state.prototypes, transform_active(state.iter, config))


def tim_gradients(
    episode: Episode, state: SolverState, config: TimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the total loss w.r.t. prototypes and W.

    The W gradient is the zero matrix whenever the transform is inactive at
    ``state.iter`` (and always for variant "tim_baseline").
    """
    step = _Step(episode, config)
    step.forward(state.W, state.prototypes, transform_active(state.iter, config))
    grad_theta, grad_W = step.backward()
    if grad_W is None:
        grad_W = np.zeros_like(state.W)
    if not (_all_finite(grad_theta) and _all_finite(grad_W)):
        raise EpisodeFailure("non-finite gradient", iteration=state.iter)
    return grad_theta, grad_W


class _Adam:
    """Standard adaptive-moment updater, updating one array in place. The
    steps repeat the operations of m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g,
    lr m_hat / (sqrt(v_hat) + eps) in order, so results match bit for bit."""

    def __init__(self, shape, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m, self.v = np.zeros(shape), np.zeros(shape)
        self.s1, self.s2 = np.empty(shape), np.empty(shape)  # scratch
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        m, v, s1, s2 = self.m, self.v, self.s1, self.s2
        m *= self.beta1
        m += np.multiply(1 - self.beta1, grad, out=s1)
        v *= self.beta2
        np.multiply(1 - self.beta2, grad, out=s1)
        s1 *= grad
        v += s1
        np.divide(m, 1 - self.beta1**self.t, out=s1)
        s1 *= lr
        np.divide(v, 1 - self.beta2**self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        param -= s1


def _update(param: np.ndarray, grad: np.ndarray, lr: float, adam: _Adam | None) -> None:
    if adam is not None:
        adam.step(param, grad, lr)
    else:
        grad *= lr
        param -= grad


def run_ft_tim(
    episode: Episode,
    config: TimConfig,
    on_iteration: Callable[[int, np.ndarray, LossTerms], None] | None = None,
) -> RunResult:
    """Run the full inference loop on one episode.

    Performs ``config.iterations`` update iterations (W first, then
    prototypes, from gradients computed once per iteration), then scores the
    queries in a final pass. The loss trace has iterations + 1 entries of
    (cross_entropy, conditional_entropy, marginal_term); entry j is the loss
    after j updates. Deterministic for a fixed (episode, config).

    Raises:
        EpisodeFailure: on a degenerate transform output, a non-finite loss
            or a non-finite gradient; carries the failing iteration.
    """
    step = _Step(episode, config)
    support_x = step.X[:step.ns]
    theta = _init_prototypes(support_x, step.labels, episode.num_classes)
    W = init_transform(support_x)
    adaptive = config.update_rule == "adaptive_moment"
    adam_theta = _Adam(theta.shape) if adaptive else None
    adam_w = _Adam(W.shape) if adaptive else None
    trace: list[tuple[float, float, float]] = []

    # the last pass, at iteration index `iterations`, only scores the queries;
    # overflow shows as a non-finite loss, so numpy need not warn about it
    with np.errstate(all="ignore"):
        for it in range(config.iterations + 1):
            active = transform_active(it, config)
            try:
                terms = step.forward(W, theta, active)
            except DegenerateVectorError as exc:
                raise EpisodeFailure(str(exc), iteration=it) from exc
            if not math.isfinite(terms.total):
                raise EpisodeFailure("non-finite loss", iteration=it)
            trace.append((terms.cross_entropy, terms.conditional_entropy,
                          terms.marginal_term))
            if it == config.iterations:
                break
            if on_iteration is not None:
                on_iteration(it, step.p_q, terms)

            grad_theta, grad_W = step.backward()
            if not _all_finite(grad_theta):
                raise EpisodeFailure("non-finite prototype gradient", iteration=it)
            if grad_W is not None:
                if not _all_finite(grad_W):
                    raise EpisodeFailure("non-finite transform gradient", iteration=it)
                _update(W, grad_W, config.lr_w, adam_w)
            _update(theta, grad_theta, config.lr_theta, adam_theta)

    state = SolverState(
        prototypes=theta,
        W=W,
        posteriors=step.p_q,
        marginal=step.marginal,
        iter=config.iterations,
        loss_trace=trace,
    )
    return RunResult(np.argmax(step.p_q, axis=1), state, trace)


def predict_features(
    vectors: np.ndarray, state: SolverState, config: TimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Classify new vectors through a fitted state's pipeline.

    Returns (predicted labels, posterior rows)."""
    x = l2_normalize_rows(vectors)
    z, _, _ = _pipeline(x, state.W, transform_active(state.iter, config),
                        config.variant)
    p = posteriors(z, state.prototypes, config.tau)
    return np.argmax(p, axis=1), p


def run_semi_supervised(episode: Episode, config: TimConfig) -> SemiSupervisedResult:
    """Fit on support plus unlabeled queries, then classify the held-out split.

    Raises:
        ValueError: if the episode has no held-out split.
    """
    if episode.heldout_vectors is None or len(episode.heldout_vectors) == 0:
        raise ValueError("episode has no held-out split")
    result = run_ft_tim(episode, config)
    preds, _ = predict_features(episode.heldout_vectors, result.state, config)
    return SemiSupervisedResult(preds, result.state)


def save_checkpoint(state: SolverState, directory: str | Path) -> None:
    """Dump W, prototypes (feature-table files) and the loss trace (JSON)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    d = state.W.shape[0]
    write_feature_bank(
        FeatureBank(dim=d, class_ids=np.arange(d), vectors=state.W),
        directory / "transform.csv",
    )
    write_feature_bank(
        FeatureBank(
            dim=state.prototypes.shape[1],
            class_ids=np.arange(state.prototypes.shape[0]),
            vectors=state.prototypes,
        ),
        directory / "prototypes.csv",
    )
    payload = {
        "iterations": state.iter,
        "loss_trace": [list(t) for t in state.loss_trace],
    }
    (directory / "trace.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def load_checkpoint(directory: str | Path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Load (W, prototypes, trace payload) written by :func:`save_checkpoint`."""
    directory = Path(directory)
    W = load_feature_bank(directory / "transform.csv").vectors
    prototypes = load_feature_bank(directory / "prototypes.csv").vectors
    payload = json.loads((directory / "trace.json").read_text(encoding="utf-8"))
    return W, prototypes, payload
