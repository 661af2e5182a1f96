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

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .features import UNIT_NORM_TOL, DegenerateVectorError, Episode, l2_normalize_rows

VARIANTS = ("ft_tim", "tim_baseline", "linear_transform")
UPDATE_RULES = ("plain_gradient", "adaptive_moment")

# Clamp probabilities here before taking logs: keeps -inf out of the loss
# without measurably moving 64-bit gradients.
PROB_FLOOR = 1e-300

# The smallest normal float64; see _too_small.
_TINY = np.finfo(np.float64).tiny

# Bytes of one stacked d x d array in a solver batch, and twice those of a W-step block.
_STACK_BYTES = 1 << 19


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
        for name in ("tau", "lambda_ce", "alpha_cond", "lr_theta", "lr_w"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def posteriors(
    features: np.ndarray, prototypes: np.ndarray, tau: float,
    f2: np.ndarray | None = None,
) -> np.ndarray:
    """Distance-softmax class posteriors, one simplex row per feature row.
    Stacks of (features, prototypes) along leading axes give stacked rows.

    ``f2`` may pass in the squared row norms of ``features`` when the caller
    already has them."""
    if f2 is None:
        f2 = np.einsum("...ij,...ij->...i", features, features)
    p2 = np.einsum("...ij,...ij->...i", prototypes, prototypes)
    d2 = features @ prototypes.swapaxes(-1, -2)
    d2 *= 2.0
    np.subtract(f2[..., :, None] + p2[..., None, :], d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    d2 *= -(tau / 2.0)
    return _softmax_rows(d2)


def norm_induced_map(
    X: np.ndarray,
    W: np.ndarray,
    x_sq: np.ndarray | None = None,
    w_sq: np.ndarray | None = None,
) -> np.ndarray:
    """The norm-induced map, batched: entry (i, j) is -0.5 * ||x_i - w_j||^2,
    where w_1..w_d are the rows of a learnable square matrix W, for one
    (X, W) pair or for stacks of them along leading axes.

    Every output coordinate is non-positive by construction, so the map can
    never reproduce an input with a positive coordinate; aligning an output
    with a prototype forces some coordinates toward zero instead of letting
    the map collapse to a trivial reparametrization. Inference normalizes
    the outputs back to the unit sphere; :func:`_grad_raw` and
    :func:`_w_step` hold the exact derivatives of both.

    Uses the expanded dot-product form, which agrees with the direct norm
    form to float64 round-off. A caller that maps the same X many times may
    pass its squared row norms ``x_sq``, and one that keeps W's squared row
    norms may pass them as ``w_sq``.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if x_sq is None:
        x_sq = np.add.reduce(X * X, axis=-1)
    if w_sq is None:
        w_sq = np.add.reduce(W * W, axis=-1)
    raw = X @ W.swapaxes(-1, -2)
    half = x_sq[..., :, None] + w_sq[..., None, :]
    half *= 0.5
    raw -= half
    return raw


def _check_unit_rows(name: str, arr: np.ndarray) -> None:
    """Raise unless every row of ``arr`` (any leading axes) has unit norm."""
    norms = np.linalg.norm(arr, axis=-1)
    if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
        raise ValueError(f"{name} vectors are not unit-normalized")


def init_transform(support_features: np.ndarray) -> np.ndarray:
    """Initialize the d x d transform matrix from unit-normalized support
    rows: X_s^T X_s, of rank at most the number of support rows. A stack of
    support arrays along leading axes gives a stack of matrices."""
    S = np.asarray(support_features, dtype=np.float64)
    if S.ndim < 2:
        raise ValueError("support features must be a 2-D array or a stack of them")
    _check_unit_rows("support", S)
    return S.swapaxes(-1, -2) @ S


def transform_active(iteration: int, config: TimConfig) -> bool:
    return config.variant != "tim_baseline" and iteration >= config.transform_start


def _too_small(norms: np.ndarray) -> np.ndarray | None:
    """Per stacked episode (leading axes of ``norms``), whether some row norm
    is too small to normalize, or None when no episode has one. The
    normalization backprop divides by norm**3, so a norm whose cube falls
    below the smallest normal float is too small; NaN norms are not."""
    if not np.fmin.reduce(norms, axis=None, initial=np.inf) ** 3 < _TINY:
        return None
    return np.fmin.reduce(norms, axis=-1, initial=np.inf) ** 3 < _TINY


def _degenerate_reason(norms: np.ndarray) -> str:
    """Why one episode's transformed rows, with these norms, cannot be
    normalized: the first row whose norm cubed underflows."""
    row = int(np.flatnonzero(norms**3 < _TINY)[0])
    if norms[row] == 0.0:
        return f"transformed feature {row} is the zero vector"
    return f"transformed feature {row} has norm {norms[row]:.3g}, too small to normalize"


def _normalized(
    X: np.ndarray, W: np.ndarray, variant: str,
    x_sq: np.ndarray | None = None, w_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, list[str]]:
    """(z, raw, norms, failed, reasons): the variant's map outputs for one
    episode or a stack of them, unit-normalized, with the outputs and their
    row norms. ``failed`` is None when every episode's rows can be
    normalized; otherwise it masks the leading axes (0-d for one episode),
    ``reasons`` says why for each failed episode, and the other three hold
    only the episodes that did not fail. ``x_sq`` and ``w_sq`` are passed
    on to :func:`norm_induced_map`."""
    if variant == "linear_transform":
        raw = X @ W.swapaxes(-1, -2)
    else:
        raw = norm_induced_map(X, W, x_sq, w_sq)
    norms = np.sqrt(np.add.reduce(raw * raw, axis=-1))
    failed, reasons = _too_small(norms), []
    if failed is not None:
        reasons = [_degenerate_reason(n) for n in norms[failed]]
        raw, norms = raw[~failed], norms[~failed]
    return raw / norms[..., None], raw, norms, failed, reasons


def _pipeline(X: np.ndarray, state: SolverState, config: TimConfig) -> np.ndarray:
    """The features a fitted state's classifier sees for the rows of X: the
    normalized map outputs, or X itself (assumed unit-normalized) while the
    transform is inactive.

    Raises:
        DegenerateVectorError: if a transformed row's norm cubed is below
            the smallest normal float, zero included.
    """
    if not transform_active(state.iter, config):
        return X
    with np.errstate(all="ignore"):  # as in the solver: a cube that overflows is no failure
        z, _, _, failed, reasons = _normalized(X, state.W, config.variant)
    if failed is not None:
        raise DegenerateVectorError(reasons[0])
    return z


def _init_prototypes(support_x: np.ndarray, labels: np.ndarray, C: int) -> np.ndarray:
    # one-shot: the normalized support feature itself; multi-shot: class mean
    theta = np.empty((C, support_x.shape[1]))
    for c in range(C):
        theta[c] = support_x[labels == c].mean(axis=0)
    return theta


def _non_finite(a: np.ndarray) -> np.ndarray | None:
    """Per stacked episode (leading axis), whether some entry of ``a`` is not
    finite, or None when every entry is."""
    # a finite sum of squares proves every entry finite; else each episode is checked
    if math.isfinite(np.vdot(a, a)):
        return None
    bad = ~np.logical_and.reduce(np.isfinite(a).reshape(len(a), -1), axis=1)
    return bad if bad.any() else None


def stack_limit(dim: int) -> int:
    """Most episodes of feature dimension ``dim`` that one :class:`Batch`
    should hold: as many as keep one stacked d x d array within
    ``_STACK_BYTES``, so the stacked transform state (W, its gradient and the
    Adam moments) stays cache-sized. One from d = 182 up. The W step goes
    over that state in blocks of rows of ``_STACK_BYTES // 2`` bytes each."""
    return max(1, _STACK_BYTES // (8 * dim * dim))


class Batch:
    """The solver state of B same-shaped episodes, stacked along a leading
    axis: the features X (B, n, d) with support rows first, the prototypes
    (B, C, d), the transform W (B, d, d) with its squared row norms, their
    Adam moments, the loss trace (B, iterations + 1, 3) and the gradient
    buffers, with one fused forward and backward pass over them;
    :func:`_w_step` steps W.

    Every reduction runs along per-episode axes and every product is a
    stacked matmul, so each episode's slice goes through the same
    floating-point operations in the same order as in a batch of one:
    results do not depend on which episodes share a batch. An episode that
    fails leaves the stack with its iteration and reason; the others go on.

    ``run`` iterates, and ``finish`` scores the queries in a last pass and
    returns one result or failure per episode. A stack goes on as another
    variant by setting ``config``; each variant of a shared prefix runs on
    a copy of the whole stack.
    """

    def __init__(self, episodes: Sequence[Episode], config: TimConfig):
        self.config = config
        first = episodes[0]
        B, C, (ns, d) = len(episodes), first.num_classes, first.support_vectors.shape
        self.ns, self.nq = ns, len(first.query_vectors)
        X = np.empty((B, ns + self.nq, d))
        self.labels = np.empty((B, ns), dtype=np.int64)
        for b, episode in enumerate(episodes):
            if episode.num_classes != C:
                raise ValueError("a batch needs episodes with the same number of classes")
            X[b, :ns], self.labels[b], X[b, ns:] = episode.solver_inputs()
        self.X = X = l2_normalize_rows(X)
        self.x_sq = np.add.reduce(X * X, axis=2)
        self.f2 = np.einsum("...ij,...ij->...i", X, X)  # squared norms of z = X when inactive
        self.onehot = np.zeros((B, ns, C))
        self.onehot[np.arange(B)[:, None], np.arange(ns), self.labels] = 1.0
        self.G = np.empty((B, X.shape[1], C))  # d loss / d logits, support rows first
        self.grad_W = np.empty((B, d, d))
        self.col = np.empty((B, d))
        self.block_scratch = np.empty((2, min(B * d, max(1, _STACK_BYTES // 16 // d)), d))
        self.theta_scratch = np.empty((2, B, C, d))
        self.count = B
        self.pos = np.arange(B)  # input positions of the episodes still on the stack
        self.failures: dict[int, tuple[int, str]] = {}  # position: (iteration, reason)
        self.it = 0
        # (cross_entropy, conditional_entropy, marginal_term) after each update
        self.trace = np.empty((B, config.iterations + 1, 3))
        self.W = self.w_sq = self.theta = self.m_w = self.v_w = self.m_theta = self.v_theta = None
        self.z = self.raw = self.norms = self.p_s = self.p_q = None
        self.logq = self.plogq = self.marginal = self.log_marginal = None

    def start(self) -> "Batch":
        """Initial prototypes (the support class means), transform
        (X_s^T X_s) and update rules."""
        ns, C = self.ns, self.onehot.shape[2]
        support = self.X[:, :ns]
        self.theta = np.stack([_init_prototypes(s, l, C) for s, l in zip(support, self.labels)])
        self.W = init_transform(support)
        if self.config.update_rule == "adaptive_moment":
            self.m_w, self.v_w = np.zeros_like(self.W), np.zeros_like(self.W)
            self.m_theta, self.v_theta = np.zeros_like(self.theta), np.zeros_like(self.theta)
        return self

    # stacked attributes that lose a failed episode's slice
    _STACKED = ("X", "x_sq", "f2", "labels", "onehot", "G", "grad_W", "col", "pos", "W",
                "w_sq", "theta", "m_w", "v_w", "m_theta", "v_theta", "trace", "z", "raw",
                "norms", "p_s", "p_q", "logq", "plogq", "marginal", "log_marginal")

    def _drop(self, failed: np.ndarray, reasons: str | list[str]) -> None:
        """Take the flagged episodes off the stack, each keeping the current
        iteration and its reason."""
        lost = self.pos[failed]
        if isinstance(reasons, str):
            reasons = [reasons] * len(lost)
        for pos, reason in zip(lost, reasons):
            self.failures[int(pos)] = (self.it, reason)
        keep = ~failed
        for name in self._STACKED:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])

    def forward(self, active: bool) -> np.ndarray:
        """Map and normalize the features (when the transform is active) and
        return the stacked posterior rows, support rows first. An episode
        whose transformed features cannot be normalized leaves the stack
        first."""
        cfg = self.config
        self.active = active
        if not active:
            self.z = self.X
            return posteriors(self.X, self.theta, cfg.tau, self.f2)
        if self.w_sq is None and cfg.variant != "linear_transform":
            self.w_sq = np.add.reduce(self.W * self.W, axis=2)  # then kept by the W step
        z, raw, norms, failed, reasons = _normalized(self.X, self.W, cfg.variant,
                                                     self.x_sq, self.w_sq)
        if failed is not None:
            self._drop(failed, reasons)
        self.z, self.raw, self.norms = z, raw, norms
        return posteriors(z, self.theta, cfg.tau)

    def loss_terms(self, p: np.ndarray) -> np.ndarray:
        """The (B, 4) loss terms, one row per episode in :class:`LossTerms`
        order, from the stacked (support, query) posterior rows, keeping
        what ``backward`` needs."""
        cfg, ns, nq = self.config, self.ns, self.nq
        self.p_s, self.p_q = p[:, :ns], p[:, ns:]
        p_q = self.p_q
        log_p = np.log(np.maximum(p, PROB_FLOOR))
        ce = np.add.reduce(log_p[np.arange(len(p))[:, None], np.arange(ns), self.labels], axis=1)
        self.logq = log_p[:, ns:]
        self.plogq = p_q * self.logq
        cond = np.add.reduce(self.plogq, axis=(1, 2))
        self.marginal = np.add.reduce(p_q, axis=1) / nq
        self.log_marginal = np.log(np.maximum(self.marginal, PROB_FLOOR))
        marg = np.add.reduce(self.marginal * self.log_marginal, axis=1)
        ce *= -(cfg.lambda_ce / ns)
        cond *= -(cfg.alpha_cond / nq)
        return np.stack((ce + cond + marg, ce, cond, marg), axis=1)

    def backward(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(d loss/d theta, d loss/d raw map outputs) at the last forward
        pass; the second is None when the transform was inactive."""
        cfg, ns, nq = self.config, self.ns, self.nq
        p_q, G, z, theta = self.p_q, self.G, self.z, self.theta
        # logit gradients: support rows, then query rows
        support = np.subtract(self.p_s, self.onehot, out=G[:, :ns])
        support *= cfg.lambda_ce / ns
        # -log p - (row entropy), the entropy being minus this row sum
        centered = np.negative(self.logq)
        centered += np.add.reduce(self.plogq, axis=2, keepdims=True)
        g_cond = (cfg.alpha_cond / nq) * p_q
        g_cond *= centered
        log_marginal = self.log_marginal / nq
        g_marg = log_marginal[:, None, :] - p_q @ log_marginal[:, :, None]
        g_marg *= p_q
        np.add(g_cond, g_marg, out=G[:, ns:])

        # the logit is -(tau/2)||theta_c - z_i||^2, so d/d theta_c is
        # -tau (theta_c - z_i) and d/d z_i is tau (theta_c - z_i)
        grad_theta = np.add.reduce(G, axis=1)[:, :, None] * theta
        grad_theta -= G.swapaxes(1, 2) @ z
        grad_theta *= -cfg.tau
        if not self.active:
            return grad_theta, None
        grad_z = G @ theta
        grad_z -= np.add.reduce(G, axis=2)[:, :, None] * z
        grad_z *= cfg.tau

        return grad_theta, _grad_raw(grad_z, self.raw, self.norms)

    def _pass(self) -> np.ndarray:
        """The forward pass at the current iteration, its loss terms in the
        trace, and the episodes whose loss is not finite off the stack."""
        terms = self.loss_terms(self.forward(transform_active(self.it, self.config)))
        finite = np.isfinite(terms[:, 0])
        if not finite.all():
            self._drop(~finite, "non-finite loss")
            terms = terms[finite]
        self.trace[:, self.it] = terms[:, 1:]
        return terms

    def run(
        self, stop: int,
        on_iteration: Callable[[int, np.ndarray, LossTerms], None] | None = None,
    ) -> None:
        """Update iterations from the current one up to ``stop``: a forward
        pass, gradients, then W and the prototypes, each episode leaving
        the stack at its first degenerate transform, non-finite loss or
        non-finite gradient. ``on_iteration`` is for a batch of one. A
        ``stop`` past ``config.iterations`` raises ValueError."""
        cfg = self.config
        if stop > cfg.iterations:
            raise ValueError(f"stop {stop} is past config.iterations ({cfg.iterations})")
        # overflow shows as a non-finite loss, so numpy need not warn about it
        with np.errstate(all="ignore"):
            while self.it < stop and len(self.pos):
                terms = self._pass()
                if on_iteration is not None and len(terms):
                    on_iteration(self.it, self.p_q[0], LossTerms(*terms[0].tolist()))
                grad_theta, grad_raw = self.backward()
                bad = _non_finite(grad_theta)
                if bad is not None:
                    self._drop(bad, "non-finite prototype gradient")
                    grad_theta = grad_theta[~bad]
                    grad_raw = None if grad_raw is None else grad_raw[~bad]
                if grad_raw is not None:
                    # W updates from transform_start on, the prototypes from 0
                    bad = _w_step(grad_raw, self.X, self.W, cfg.variant != "linear_transform",
                                  cfg.lr_w, self.it + 1 - cfg.transform_start, self.grad_W,
                                  self.col, self.block_scratch, self.w_sq, self.m_w, self.v_w)
                    if bad is not None:
                        self._drop(bad, "non-finite transform gradient")
                        grad_theta = grad_theta[~bad]
                _step(self.theta, grad_theta, cfg.lr_theta, self.it + 1,
                      *self.theta_scratch[:, :len(self.pos)], self.m_theta, self.v_theta)
                self.it += 1

    def finish(self) -> list[RunResult | EpisodeFailure]:
        """Score the queries in a last pass at the current iteration and
        return each episode's result, or its failure, in input order."""
        if len(self.pos):
            with np.errstate(all="ignore"):
                self._pass()
        out: list = [None] * self.count
        for pos, (iteration, reason) in self.failures.items():
            out[pos] = EpisodeFailure(reason, iteration)
        predictions = np.argmax(self.p_q, axis=2) if len(self.pos) else ()
        for k, pos in enumerate(self.pos):
            trace = list(map(tuple, self.trace[k, :self.it + 1].tolist()))
            state = SolverState(prototypes=self.theta[k], W=self.W[k],
                                posteriors=self.p_q[k], marginal=self.marginal[k],
                                iter=self.it, loss_trace=trace)
            out[pos] = RunResult(predictions[k], state, trace)
        return out


def _grad_raw(grad_z: np.ndarray, raw: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Back through z = r/||r||: J^T g = g/||r|| - r (r.g)/||r||^3, row-wise,
    for one episode or a stack of them, written over ``grad_z``."""
    n = norms[..., None]
    dot = np.add.reduce(raw * grad_z, axis=-1, keepdims=True)
    grad_z /= n
    grad_z -= raw * (dot / n**3)
    return grad_z


def _w_step(
    grad_raw: np.ndarray, X: np.ndarray, W: np.ndarray, norm_induced: bool, lr: float, t: int,
    grad_W: np.ndarray, col: np.ndarray, scratch: np.ndarray,
    w_sq: np.ndarray | None = None, m: np.ndarray | None = None, v: np.ndarray | None = None,
) -> np.ndarray | None:
    """The ``t``-th (from 1) in-place update of W (:func:`_step`) from d loss/d raw
    outputs of the norm-induced or (``norm_induced=False``) linear map, for one
    episode or a stack; returns which episodes' W gradient is not finite, or None.
    After the grad_raw^T X product into ``grad_W`` and column sums into ``col``, each
    ``scratch``-sized block of rows gets its column term, update and ``w_sq``; the
    finished ``grad_W`` is checked last."""
    np.matmul(grad_raw.swapaxes(-1, -2), X, out=grad_W)
    if norm_induced:
        np.add.reduce(grad_raw, axis=-2, out=col)
    n, rows = W.size // W.shape[-1], scratch.shape[1]
    stacked = [None if a is None else a.reshape(-1, a.shape[-1] if a.ndim == W.ndim else 1)
               for a in (grad_W, W, col, w_sq, m, v)]
    for i in range(0, n, rows):
        g, w, c, sq, mb, vb = [None if a is None else a[i:i + rows] for a in stacked]
        s1, s2 = scratch[:, :len(g)]
        if norm_induced:
            # raw[i, j] = -0.5||x_i - w_j||^2: d raw[i, j]/d w_j = x_i - w_j
            np.copyto(s1, c)
            s1 *= w
            g -= s1
        _step(w, g, lr, t, s1, s2, mb, vb)
        if sq is not None:
            np.add.reduce(np.square(w, out=s1), axis=1, out=sq, keepdims=True)
    return _non_finite(grad_W)


def _at_state(episode: Episode, state: SolverState, config: TimConfig) -> tuple[Batch, LossTerms]:
    """A batch of one at a given state and its loss terms there, in the
    representation in effect at ``state.iter``."""
    batch = Batch([episode], config)
    batch.W, batch.theta = state.W[None], state.prototypes[None]
    p = batch.forward(transform_active(state.iter, config))
    if batch.failures:
        raise DegenerateVectorError(batch.failures[0][1])
    return batch, LossTerms(*batch.loss_terms(p)[0].tolist())


def tim_loss(episode: Episode, state: SolverState, config: TimConfig) -> LossTerms:
    """Loss terms at the given state, using the representation in effect
    at ``state.iter`` (raw before transform_start, transformed after)."""
    return _at_state(episode, state, config)[1]


def tim_gradients(
    episode: Episode, state: SolverState, config: TimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the total loss w.r.t. prototypes and W.

    The W gradient is the zero matrix whenever the transform is inactive at
    ``state.iter`` (and always for variant "tim_baseline").

    Raises:
        DegenerateVectorError: if a transformed feature cannot be normalized.
        EpisodeFailure: if a gradient is not finite.
    """
    batch, _ = _at_state(episode, state, config)
    grad_theta, grad_raw = batch.backward()
    grad_W, bad = np.zeros_like(batch.W), None
    if grad_raw is not None:  # steps a copy of W, leaving state.W as it is
        grad_W, bad = batch.grad_W, _w_step(
            grad_raw, batch.X, batch.W.astype(np.float64), config.variant != "linear_transform",
            config.lr_w, 1, batch.grad_W, batch.col, batch.block_scratch)
    if _non_finite(grad_theta) is not None or bad is not None:
        raise EpisodeFailure("non-finite gradient", iteration=state.iter)
    return grad_theta[0], grad_W[0]


def _step(param: np.ndarray, grad: np.ndarray, lr: float, t: int, s1: np.ndarray,
          s2: np.ndarray, m: np.ndarray | None = None, v: np.ndarray | None = None) -> None:
    """The ``t``-th update of ``param`` in place, counting from 1, leaving
    ``grad`` as it is: the standard adaptive-moment step (b1 = 0.9,
    b2 = 0.999, eps = 1e-8) when its moments ``m`` and ``v`` are given, else
    the plain gradient step. ``s1`` and ``s2`` are scratch shaped like
    ``param``. The steps repeat the operations of m = b1 m + (1-b1) g,
    v = b2 v + (1-b2) g g, lr m_hat / (sqrt(v_hat) + eps) in order, so
    results match bit for bit."""
    if m is None:
        param -= np.multiply(grad, lr, out=s1)
        return
    m *= 0.9
    m += np.multiply(1 - 0.9, grad, out=s1)
    v *= 0.999
    np.multiply(1 - 0.999, grad, out=s1)
    s1 *= grad
    v += s1
    np.divide(m, 1 - 0.9**t, out=s1)
    s1 *= lr
    np.divide(v, 1 - 0.999**t, out=s2)
    np.sqrt(s2, out=s2)
    s2 += 1e-8
    s1 /= s2
    param -= s1


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
    after j updates. Deterministic for a fixed (episode, config), and equal
    bit for bit to the episode's result in any :class:`Batch`.

    Raises:
        EpisodeFailure: on a degenerate transform output, a non-finite loss
            or a non-finite gradient; carries the failing iteration.
    """
    batch = Batch([episode], config).start()
    batch.run(config.iterations, on_iteration)
    (result,) = batch.finish()
    if isinstance(result, EpisodeFailure):
        raise result
    return result


def predict_features(
    vectors: np.ndarray, state: SolverState, config: TimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Classify new vectors through a fitted state's pipeline.

    Returns (predicted labels, posterior rows), NaN where every logit overflows."""
    x = l2_normalize_rows(vectors)
    with np.errstate(all="ignore"):
        p = posteriors(_pipeline(x, state, config), state.prototypes, config.tau)
    return np.argmax(p, axis=1), p
