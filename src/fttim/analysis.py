"""Clustering-side analysis of the norm-induced map.

Connects the query-entropy objective used by the solver to a mixed K-means
objective over the transformed features:

    J(W, theta, Q) = sum_i sum_c q_ic ||theta_c - g(x_i, W)||^2

with simplex assignment rows q_i. The total query entropy decomposes exactly
as  -sum p log p = (tau/2) * clustering + dispersion, where "clustering" is
J evaluated at the distance-softmax assignments and "dispersion" is a
log-sum-exp over prototype distances. Softening J with an entropy barrier
gives a bound whose per-row minimizer is the distance softmax; iterating
assignment, soft means and transform steps is an approximate
majorize-minimize scheme on the clustering term at small temperatures.

Two scalings of the barrier coexist here, deliberately:

* ``bound_check`` and ``gap_terms`` use J + (tau/2) sum q log q, whose
  gap at the softmax assignments is (tau/2) sum q log q and vanishes as
  tau -> 0.
* ``soft_assignment_objective`` is the temperature-consistent potential
  (tau/2) J + sum q log q, the form whose exact simplex minimizer is the
  distance softmax; the projected-gradient oracle minimizes this one.

All operations use the raw (un-normalized) map outputs.

The private helpers take stacks of instances along leading axes, (B, n, d)
features and (B, C, d) prototypes, the way the solver's kernel does: every
reduction runs along per-instance axes in the order the single-instance
form takes, so an instance's values are the same, bit for bit, in a stack
of any size. The public per-episode functions are those helpers on one
instance; assignments go in and out as plain (n, C) arrays of simplex rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .engine import PROB_FLOOR, _softmax_rows, _w_step, init_transform, norm_induced_map
from .features import (
    Episode,
    SyntheticTaskSpec,
    _synthetic_blocks,
    l2_normalize_rows,
    squared_distances,
)
# not called here any more, but profiling wrappers patch it by this module's name
from .features import generate_synthetic_episode  # noqa: F401

_MONOTONE_SLACK = 1e-9

# The temperatures along which bound gaps are checked and traced, falling.
TAU_SWEEP = (1.0, 0.1, 0.01, 0.001)

# Learning rate of the transform's gradient steps on J.
_LR_W = 0.005


class InternalConsistencyError(RuntimeError):
    """An exact algebraic identity failed beyond numerical tolerance."""


@dataclass
class ObjectiveBreakdown:
    """The two terms of the entropy decomposition."""

    clustering_term: float
    dispersion_term: float


@dataclass
class BoundCheck:
    H_value: float
    bound_value: float
    gap: float


@dataclass
class KMeansResult:
    W: np.ndarray
    prototypes: np.ndarray
    assignments: np.ndarray  # one-hot rows
    trace: list[tuple[str, float]]


def _check_simplex(rows: np.ndarray) -> np.ndarray:
    """``rows`` (any leading axes) after checking that every row lies on
    the probability simplex."""
    if np.any(rows < 0):
        raise ValueError("assignment entries must be non-negative")
    sums = rows.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        raise ValueError("assignment rows must sum to 1")
    return rows


def _total(a: np.ndarray, axes: int = 2):
    """Sum over the last ``axes`` axes of ``a`` as one run, the way np.sum
    adds up a single instance's array: a float for one instance, an array
    for a stack."""
    s = np.add.reduce(a.reshape(a.shape[:a.ndim - axes] + (-1,)), axis=-1)
    return float(s) if s.ndim == 0 else s


def _rises(series: np.ndarray, slack: float) -> tuple[np.ndarray, list[float]]:
    """Whether ``series`` (steps x instances) never rises by more than
    ``slack`` from one step to the next, per instance, and its largest
    step-to-step increase, folded with Python's ``max`` in step order as a
    list of values would be (-inf with fewer than two steps)."""
    ok = np.all(series[1:] <= series[:-1] + slack, axis=0)
    return ok, [max(column, default=-np.inf)
                for column in (series[1:] - series[:-1]).T.tolist()]


def transformed_query_features(episode: Episode, W: np.ndarray) -> np.ndarray:
    """Query features under the map: its raw outputs."""
    return norm_induced_map(episode.query_vectors, W)


def _d2(X: np.ndarray, W: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    return squared_distances(norm_induced_map(X, W), prototypes)


def _soft_rows(d2: np.ndarray, tau: float) -> np.ndarray:
    return _softmax_rows(-(tau / 2.0) * d2)


def _j_value(d2: np.ndarray, q_rows: np.ndarray):
    return _total(q_rows * d2)


def kkt_soft_assignments(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Distance-softmax assignment rows, the closed-form minimizer of the
    temperature-consistent soft objective (see module docstring)."""
    return _check_simplex(_soft_rows(_d2(episode.query_vectors, W, prototypes), tau))


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1)
    return m + np.log(np.sum(np.exp(logits - m[..., None]), axis=-1))


def _xlogx(q: np.ndarray) -> np.ndarray:
    # 0 * log 0 := 0; the floor never changes nonzero entries' logs materially
    return q * np.log(np.maximum(q, PROB_FLOOR))


def clustering_term(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
) -> float:
    """Softmax-weighted sum of squared distances (the K-means-like part of
    the query entropy)."""
    d2 = _d2(episode.query_vectors, W, prototypes)
    return _j_value(d2, _soft_rows(d2, tau))


def _decompose(d2: np.ndarray, tau: float) -> tuple:
    """(entropy, clustering, dispersion, relative residual) of the identity
    -sum p log p = (tau/2) * clustering + dispersion at the distance-softmax
    rows p, per stacked instance. The two sides come from independent float
    paths: the entropy from the probabilities themselves, the right side
    from distances and log-sum-exps."""
    logits = -(tau / 2.0) * d2
    p = _softmax_rows(logits)
    entropy = -_total(_xlogx(p))
    clustering = _j_value(d2, p)
    dispersion = _total(_logsumexp_rows(logits), axes=1)
    # fmax(1, x) is Python's max(1.0, x), NaN included
    residual = (np.abs(entropy - ((tau / 2.0) * clustering + dispersion))
                / np.fmax(1.0, np.abs(entropy)))
    return entropy, clustering, dispersion, residual


def entropy_decomposition(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
) -> ObjectiveBreakdown:
    """Split the total query entropy into clustering and dispersion parts.

    Verifies the exact identity
    -sum p log p = (tau/2) * clustering + dispersion to 1e-8 and raises
    :class:`InternalConsistencyError` on violation. The clustering term is
    the K-means objective J at the distance-softmax assignments.
    """
    _, clustering, dispersion, residual = _decompose(
        _d2(episode.query_vectors, W, prototypes), tau)
    if residual > 1e-8:
        raise InternalConsistencyError(
            f"entropy decomposition identity violated by {residual:.3e} (relative)"
        )
    return ObjectiveBreakdown(clustering_term=clustering, dispersion_term=dispersion)


def decomposition_residual(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
) -> float:
    """Relative residual of the entropy decomposition identity, from the two
    independent float paths of :func:`entropy_decomposition`."""
    return float(_decompose(_d2(episode.query_vectors, W, prototypes), tau)[3])


def soft_assignment_objective(
    d2: np.ndarray, q_rows: np.ndarray, tau: float
) -> float:
    """Temperature-consistent soft objective (tau/2) sum q d^2 + sum q log q.

    Strictly convex in q; its exact row-wise simplex minimizer is
    softmax(-(tau/2) d^2)."""
    return (tau / 2.0) * _j_value(d2, q_rows) + _total(_xlogx(q_rows))


def barrier_value(q_rows: np.ndarray, tau: float):
    """Entropy barrier (tau/2) sum q log q; non-positive, zero iff one-hot.
    A float for one instance's rows, an array for a stack of them."""
    return (tau / 2.0) * _total(_xlogx(q_rows))


def gap_terms(d2: np.ndarray, taus: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The clustering term H and the barrier at the closed-form (softmax)
    assignments, for each temperature in ``taus`` and each stacked
    instance's distances, each shaped (len(taus), B). There J equals H, so
    the bound is H + barrier and the gap is the barrier."""
    qs = [_check_simplex(_soft_rows(d2, tau)) for tau in taus]
    return (np.array([_j_value(d2, q) for q in qs]),
            np.array([barrier_value(q, tau) for q, tau in zip(qs, taus)]))


def _sweep_gaps(d2: np.ndarray, sweep: tuple[float, ...]) -> tuple[np.ndarray, list[float]]:
    """Whether the bound gap at the softmax assignments shrinks in magnitude
    along ``sweep`` (to 1e-12), and its largest step-to-step increase, for
    a stack of instances' distances."""
    return _rises(np.abs(gap_terms(d2, sweep)[1]), 1e-12)


def bound_check(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
    assignments: np.ndarray,
) -> BoundCheck:
    """Measure the softened-bound value J + (tau/2) sum q log q against the
    clustering term.

    Gaps are reported as data, not asserted: the bound is only approximate
    at finite temperature. ``assignments`` are (n, C) simplex rows.
    """
    q = _check_simplex(np.asarray(assignments, dtype=np.float64))
    d2 = _d2(episode.query_vectors, W, prototypes)
    if q.shape != d2.shape:
        raise ValueError("dimension mismatch between features, prototypes, assignments")
    H = _j_value(d2, _soft_rows(d2, tau))
    bound = _j_value(d2, q) + barrier_value(q, tau)
    return BoundCheck(H_value=H, bound_value=bound, gap=bound - H)


def project_simplex_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex
    (sort-based algorithm), for one (n, C) array or stacks of them along
    leading axes."""
    V = np.asarray(V, dtype=np.float64)
    U = np.sort(V, axis=-1)[..., ::-1]
    css = np.cumsum(U, axis=-1) - 1.0
    rho = np.count_nonzero(U - css / np.arange(1, V.shape[-1] + 1) > 0, axis=-1)
    rows = css.reshape(-1, css.shape[-1])
    shift = rows[np.arange(len(rows)), rho.reshape(-1) - 1].reshape(rho.shape) / rho
    return np.maximum(V - shift[..., None], 0.0)


def minimize_soft_assignment_rows(d2: np.ndarray, tau: float) -> np.ndarray:
    """Projected-gradient minimizer of the soft assignment objective: steps
    of 0.1 from uniform rows, at most 50,000 of them, until the objective
    changes by at most 1e-15 relative.

    Takes one instance's (n, C) distances or stacks of them along leading
    axes; each instance stops on its own, so its rows are the same, bit
    for bit, in a stack of any size. Numeric oracle, independent of the
    closed-form softmax solution.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    d = d2.reshape((-1,) + d2.shape[-2:])
    out = np.full(d.shape, 1.0 / d.shape[-1])
    live, q, prev = np.arange(len(d)), out, np.full(len(d), np.inf)
    half_d = (tau / 2.0) * d  # the gradient's constant part
    for _ in range(50000):
        if not live.size:
            break
        grad = half_d + np.log(np.maximum(q, 1e-16)) + 1.0
        q = project_simplex_rows(q - 0.1 * grad)
        val = soft_assignment_objective(d, q, tau)
        # fmax(1, x) is Python's max(1.0, x), NaN included
        done = np.abs(prev - val) <= 1e-15 * np.fmax(1.0, np.abs(val))
        if done.any():
            out[live[done]] = q[done]
            live, q, d, half_d, val = (a[~done] for a in (live, q, d, half_d, val))
        prev = val
    out[live] = q
    return out.reshape(d2.shape)


def _hard_assign_rows(d2: np.ndarray) -> np.ndarray:
    labels = np.argmin(d2, axis=-1)
    return (labels[..., None] == np.arange(d2.shape[-1])).astype(np.float64)


def _means_update(
    F: np.ndarray, q_rows: np.ndarray, prev: np.ndarray
) -> np.ndarray:
    # zero-mass classes keep their previous prototype (deterministic, keeps
    # the objective from jumping)
    mass = q_rows.sum(axis=-2)[..., None]
    return np.divide(q_rows.swapaxes(-1, -2) @ F, mass, out=prev.copy(), where=mass > 0)


def _w_steps(X: np.ndarray, W: np.ndarray, F: np.ndarray, theta: np.ndarray,
             q_rows: np.ndarray, lr: float, steps: int) -> np.ndarray:
    """A copy of W after gradient steps on J, each the solver's plain-rule W
    step, from X's map F under W; X is mapped again only once W has moved.
    With simplex rows q_i, d J / d f_i = 2 (f_i - sum_c q_ic theta_c)."""
    W = W.copy()
    grad_W, col = np.empty_like(W), np.empty(W.shape[:-1])
    scratch = np.empty((2, W.size // W.shape[-1], W.shape[-1]))  # one block
    for k in range(steps):
        if k:
            F = norm_induced_map(X, W)
        _w_step(2.0 * (F - q_rows @ theta), X, W, True, lr, 1, grad_W, col, scratch)
    return W


def _assert_nonincreasing(before: np.ndarray, after: np.ndarray, what: str) -> None:
    """Raises for the first stacked instance whose objective rose from
    ``before`` to ``after`` by more than the slack."""
    rose = after > before + _MONOTONE_SLACK * np.fmax(1.0, np.abs(before))
    if rose.any():
        b = int(np.argmax(rose))
        raise InternalConsistencyError(
            f"{what} increased the K-means objective: {before[b].item()!r} -> {after[b].item()!r}"
        )


def alternate_kmeans(
    episode: Episode,
    max_rounds: int = 100,
    w_steps_per_round: int = 1,
    init_W: np.ndarray | None = None,
) -> KMeansResult:
    """Alternating minimization of the mixed K-means objective, from the
    transform ``init_W`` (the support's gram matrix when None) and the
    support's map under it as prototypes.

    Each round: hard-assign queries to the nearest prototype in transformed
    space, reset prototypes to class means (empty clusters keep their old
    prototype), then take ``w_steps_per_round`` gradient steps of 0.005 on
    the transform. The assignment and means steps can never increase the
    objective and that is asserted every round; the transform step is
    descent only for a small enough rate. Stops when a full round improves
    the objective by less than 1e-10.

    With ``w_steps_per_round=0`` this is plain Lloyd iteration on the
    transformed features. This is the stacked loop of :func:`_alternate`
    on a stack of one.
    """
    W = (init_transform(episode.support_vectors) if init_W is None
         else np.asarray(init_W, dtype=np.float64))
    theta = norm_induced_map(episode.support_vectors, W)
    X, W = episode.query_vectors[None], W[None]
    W, theta, q, J, _ = _alternate(X, W, norm_induced_map(X, W), theta[None],
                                   max_rounds, w_steps_per_round, _LR_W)
    names = itertools.cycle(_round_steps(w_steps_per_round, _LR_W))
    return KMeansResult(W[0], theta[0], q[0], list(zip(names, J[:, 0].tolist())))


def _round_steps(w_steps_per_round: int, lr_w: float) -> tuple[str, ...]:
    """The steps of one :func:`alternate_kmeans` round that record J."""
    return ("assign", "means", "w_step")[:3 if w_steps_per_round > 0 and lr_w > 0 else 2]


def _alternate(
    X: np.ndarray, W: np.ndarray, F: np.ndarray, theta: np.ndarray, max_rounds: int,
    w_steps_per_round: int, lr_w: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rounds of :func:`alternate_kmeans` on a stack of queries X
    (B, n, d), their map F under transforms W (B, d, d) and prototypes theta
    (B, C, d), none changed; a round's last distances, and F until W moves,
    open the next. Each instance stops on its own, so its final W,
    prototypes, hard rows (B, n, C), J after each of its steps
    (:func:`_round_steps`) and step count are the same in any stack. J is
    one (steps, B) array whose column keeps its last value once its
    instance has stopped."""
    W_out, theta_out = W.copy(), theta.copy()
    q_out = np.zeros(X.shape[:2] + theta.shape[1:2])
    per_round = len(_round_steps(w_steps_per_round, lr_w))  # 3 with W steps
    J = np.empty((max_rounds * per_round, len(X)))
    steps = np.zeros(len(X), dtype=np.int64)
    live, q, j_round_end = np.arange(len(X)), None, None
    d2 = squared_distances(F, theta)
    for r in range(max_rounds):
        if not live.size:
            break
        q_before, q = q, _hard_assign_rows(d2)
        j_assign = _j_value(d2, q)
        if r:
            _assert_nonincreasing(_j_value(d2, q_before), j_assign, "assignment step")
        theta = _means_update(F, q, theta)
        d2 = squared_distances(F, theta)
        j_means = _j_value(d2, q)
        _assert_nonincreasing(j_assign, j_means, "means step")
        values = [j_assign, j_means]
        if per_round == 3:
            W = _w_steps(X, W, F, theta, q, lr_w, w_steps_per_round)
            F = norm_induced_map(X, W)
            d2 = squared_distances(F, theta)
            values.append(_j_value(d2, q))
        rows = J[r * per_round:(r + 1) * per_round]
        if r:
            rows[:] = J[r * per_round - 1]  # stopped instances keep their last J
        rows[:, live] = values
        steps[live] += per_round
        j_end = values[-1]
        done = np.full(live.size, r + 1 == max_rounds)
        if r:
            done |= j_round_end - j_end < 1e-10
        if done.any():
            stopped = live[done]
            W_out[stopped], theta_out[stopped], q_out[stopped] = W[done], theta[done], q[done]
            live, X, W, F, theta, q, d2, j_end = (
                a[~done] for a in (live, X, W, F, theta, q, d2, j_end))
        j_round_end = j_end
    return W_out, theta_out, q_out, J[:steps.max(initial=0)], steps


def mm_iteration(
    episode: Episode,
    init_W: np.ndarray,
    init_prototypes: np.ndarray,
    tau: float,
    rounds: int,
) -> list[tuple[float, float]]:
    """Majorize-minimize rounds on the clustering term.

    Each round fixes the distance-softmax assignments, then minimizes the
    softened objective over prototypes (weighted means) and the transform
    (one gradient step at 0.005). Returns one (H_value, bound_value) pair
    per round, evaluated after the round's updates.
    """
    X, W = episode.query_vectors, np.asarray(init_W, dtype=np.float64)
    F, theta = norm_induced_map(X, W), np.asarray(init_prototypes, dtype=np.float64)
    return _mm_trace(X, W, F, theta, squared_distances(F, theta), tau, rounds)


def _mm_trace(
    X: np.ndarray, W: np.ndarray, F: np.ndarray, theta: np.ndarray, d2: np.ndarray,
    tau: float, rounds: int,
) -> list[tuple]:
    """The rounds of :func:`mm_iteration` from queries X, their map F under
    W and its distances d2 to theta, for one instance (float pairs) or a
    stack (pairs of arrays); none is changed. A round maps and computes
    distances once, after its W step, and the next round starts there, with
    the assignments that gave this round's H."""
    trace, q = [], _soft_rows(d2, tau)
    for _ in range(rounds):
        theta = _means_update(F, q, theta)
        W = _w_steps(X, W, F, theta, q, _LR_W, 1)
        F = norm_induced_map(X, W)
        d2 = squared_distances(F, theta)
        q_next = _soft_rows(d2, tau)
        trace.append((_j_value(d2, q_next), _j_value(d2, q) + barrier_value(q, tau)))
        q = q_next
    return trace


@dataclass
class RandomInstances:
    """A stack of B seeded random instances with the same shape: support
    (B, C, d) and query (B, n, d) unit vectors, the query labels they share
    (n,), and each instance's transform W (B, d, d), the queries' map
    outputs F (B, n, d) under it, and prototypes theta (B, C, d)."""

    support: np.ndarray
    query: np.ndarray
    query_labels: np.ndarray
    W: np.ndarray
    F: np.ndarray
    theta: np.ndarray


def make_random_instances(
    seeds,
    num_classes: int = 5,
    queries_per_class: int = 4,
    dim: int = 8,
    separation: float = 1.5,
    stddev: float = 0.5,
) -> RandomInstances:
    """Seeded generic (episode, W, prototypes) instances for property
    sweeps, one per seed, as a stack.

    Each episode is the synthetic episode of its seed. W is a jittered
    support gram matrix and the prototypes sit near transformed query
    positions, so instances are generic (no accidental symmetry) but on
    the data's scale. Each seed's normals are drawn into the stacks; the
    rest, class means included, runs once on the stack, and each instance
    is the same, bit for bit, in a stack of any size.
    """
    spec = SyntheticTaskSpec(num_classes=num_classes, dim=dim, intra_class_stddev=stddev,
                             inter_class_separation=separation,
                             relevant_dims=min(dim, num_classes),
                             queries_per_class=queries_per_class)
    seeds = list(seeds)
    B, C, n = len(seeds), num_classes, num_classes * queries_per_class
    blocks = np.empty((B, C, 1 + queries_per_class, dim))
    jitter = np.empty((B, dim, dim))
    picks = np.empty((B, C), dtype=np.int64)
    noise = np.empty((B, C, dim))
    for b, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=blocks[b])
        rng = np.random.default_rng(seed + 1_000_003)
        rng.standard_normal(out=jitter[b])
        picks[b] = rng.choice(n, size=C, replace=False)
        rng.standard_normal(out=noise[b])
    blocks = _synthetic_blocks(spec, blocks)
    support = l2_normalize_rows(blocks[:, :, 0])
    query = l2_normalize_rows(blocks[:, :, 1:].reshape(B, n, dim))
    W = init_transform(support) + (0.1 / np.sqrt(dim)) * jitter
    F = norm_induced_map(query, W)
    theta = np.take_along_axis(F, picks[..., None], axis=1) + 0.05 * noise
    labels = np.repeat(np.arange(C, dtype=np.int64), queries_per_class)
    return RandomInstances(support, query, labels, W, F, theta)


def make_random_instance(
    seed: int, **shape
) -> tuple[Episode, np.ndarray, np.ndarray]:
    """The (episode, W, prototypes) triple of :func:`make_random_instances`
    for one seed; ``shape`` takes the same keywords."""
    stack = make_random_instances([seed], **shape)
    C, d = stack.support.shape[1:]
    episode = Episode(num_classes=C, dim=d, support_labels=np.arange(C, dtype=np.int64),
                      support_vectors=stack.support[0], query_vectors=stack.query[0],
                      query_hidden_labels=stack.query_labels)
    return episode, stack.W[0], stack.theta[0]
