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

* ``bound_value`` (and gap reporting) uses J + (tau/2) sum q log q, whose
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
instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PROB_FLOOR, _grad_w, _softmax_rows
from .features import (
    Episode,
    SyntheticTaskSpec,
    _check_spec,
    _synthetic_blocks,
    l2_normalize_rows,
)
# not called here any more, but profiling wrappers patch it by this module's name
from .features import generate_synthetic_episode  # noqa: F401
from .transform import init_transform, norm_induced_map

# Test hook: overrides the tau/2 factor on the clustering term so a
# deliberately mis-scaled build fails the decomposition identity check.
_CLUSTERING_SCALE_OVERRIDE: float | None = None

_MONOTONE_SLACK = 1e-9

# The temperatures along which bound gaps are checked and traced, falling.
TAU_SWEEP = (1.0, 0.1, 0.01, 0.001)

# Learning rate of the transform's gradient steps on J.
_LR_W = 0.005


class InternalConsistencyError(RuntimeError):
    """An exact algebraic identity failed beyond numerical tolerance."""


@dataclass
class AssignmentMatrix:
    """Per-query simplex assignment rows; ``hard`` means one-hot rows."""

    rows: np.ndarray
    hard: bool = False

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError("assignment rows must form a 2-D array")
        _check_simplex(self.rows, self.hard)

    @classmethod
    def from_labels(cls, labels: np.ndarray, num_classes: int) -> "AssignmentMatrix":
        labels = np.asarray(labels, dtype=np.int64)
        rows = np.zeros((labels.shape[0], num_classes))
        rows[np.arange(labels.shape[0]), labels] = 1.0
        return cls(rows, hard=True)


@dataclass
class ObjectiveBreakdown:
    """K-means value, entropy-decomposition terms, and the softened bound."""

    kmeans_value: float
    clustering_term: float
    dispersion_term: float
    entropy_barrier: float
    bound_value: float


@dataclass
class BoundCheck:
    H_value: float
    bound_value: float
    gap: float
    tight_at_kkt: bool
    # largest step-to-step increase of |gap| along the temperature sweep
    # (negative when the gap shrinks at every step)
    gap_rise: float


@dataclass
class KMeansResult:
    W: np.ndarray
    prototypes: np.ndarray
    assignments: AssignmentMatrix
    trace: list[tuple[str, float]]


def _check_simplex(rows: np.ndarray, hard: bool = False) -> np.ndarray:
    """``rows`` (any leading axes) after checking that every row lies on
    the probability simplex, and with ``hard`` that every row is one-hot."""
    if np.any(rows < 0):
        raise ValueError("assignment entries must be non-negative")
    sums = rows.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        raise ValueError("assignment rows must sum to 1")
    if hard:
        onehot = (rows == 1.0).sum(axis=-1)
        if not (np.all(onehot == 1) & np.all((rows == 0) | (rows == 1))):
            raise ValueError("hard assignments must be one-hot rows")
    return rows


def _total(a: np.ndarray, axes: int = 2):
    """Sum over the last ``axes`` axes of ``a`` as one run, the way np.sum
    adds up a single instance's array: a float for one instance, an array
    for a stack."""
    s = np.add.reduce(a.reshape(a.shape[:a.ndim - axes] + (-1,)), axis=-1)
    return float(s) if s.ndim == 0 else s


def _largest_rises(series: np.ndarray) -> list[float]:
    """Largest step-to-step increase along the first axis of ``series``
    (steps x instances), per instance, folded with Python's ``max`` in step
    order as a list of values would be (-inf with fewer than two steps)."""
    return [max(column, default=-np.inf)
            for column in (series[1:] - series[:-1]).T.tolist()]


def transformed_query_features(episode: Episode, W: np.ndarray) -> np.ndarray:
    """Query features under the map: its raw outputs."""
    return norm_induced_map(episode.query_vectors, W)


def squared_distances(features: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Squared distance from every feature row to every prototype, for one
    (features, prototypes) pair or stacks of them along leading axes."""
    diff = features[..., :, None, :] - prototypes[..., None, :, :]
    return np.add.reduce(diff * diff, axis=-1)


def _d2(X: np.ndarray, W: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    return squared_distances(norm_induced_map(X, W), prototypes)


def _soft_rows(d2: np.ndarray, tau: float) -> np.ndarray:
    return _softmax_rows(-(tau / 2.0) * d2)


def _rows(assignments: AssignmentMatrix | np.ndarray) -> np.ndarray:
    if isinstance(assignments, AssignmentMatrix):
        return assignments.rows
    return AssignmentMatrix(np.asarray(assignments, dtype=np.float64)).rows


def _j_value(d2: np.ndarray, q_rows: np.ndarray):
    return _total(q_rows * d2)


def kmeans_objective(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    assignments: AssignmentMatrix | np.ndarray,
) -> float:
    """Assignment-weighted sum of squared prototype distances over the queries."""
    q = _rows(assignments)
    F = transformed_query_features(episode, W)
    if prototypes.shape[1] != F.shape[1] or q.shape != (F.shape[0], prototypes.shape[0]):
        raise ValueError("dimension mismatch between features, prototypes, assignments")
    return _j_value(squared_distances(F, prototypes), q)


def kkt_soft_assignments(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
) -> AssignmentMatrix:
    """Distance-softmax assignment rows, the closed-form minimizer of the
    temperature-consistent soft objective (see module docstring)."""
    return AssignmentMatrix(
        _soft_rows(_d2(episode.query_vectors, W, prototypes), tau))


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
    scale = (tau / 2.0) if _CLUSTERING_SCALE_OVERRIDE is None else _CLUSTERING_SCALE_OVERRIDE
    # fmax(1, x) is Python's max(1.0, x), NaN included
    residual = np.abs(entropy - (scale * clustering + dispersion)) / np.fmax(1.0, np.abs(entropy))
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
    :class:`InternalConsistencyError` on violation. The breakdown is
    evaluated at the distance-softmax assignments, where the K-means value
    coincides with the clustering term.
    """
    entropy, clustering, dispersion, residual = _decompose(
        _d2(episode.query_vectors, W, prototypes), tau)
    if residual > 1e-8:
        raise InternalConsistencyError(
            f"entropy decomposition identity violated by {residual:.3e} (relative)"
        )
    barrier = -(tau / 2.0) * entropy
    return ObjectiveBreakdown(
        kmeans_value=clustering,
        clustering_term=clustering,
        dispersion_term=dispersion,
        entropy_barrier=barrier,
        bound_value=clustering + barrier,
    )


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


def _sweep_gaps(d2: np.ndarray, sweep: tuple[float, ...]) -> tuple[np.ndarray, list[float]]:
    """Whether the bound gap at the softmax assignments shrinks in magnitude
    along ``sweep`` (to 1e-12), and its largest step-to-step increase, for
    a stack of instances' distances. At the softmax assignments J equals the
    clustering term, so the gap reduces to the barrier."""
    gaps = np.array([np.abs(barrier_value(_soft_rows(d2, t), t)) for t in sweep])
    gaps = gaps.reshape(len(sweep), d2.shape[0])
    tight = np.all(gaps[1:] <= gaps[:-1] + 1e-12, axis=0)
    return tight, _largest_rises(gaps)


def bound_check(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
    assignments: AssignmentMatrix | np.ndarray,
) -> BoundCheck:
    """Measure the softened-bound value J + (tau/2) sum q log q against the
    clustering term.

    Gaps are reported as data, not asserted: the bound is only approximate
    at finite temperature. ``tight_at_kkt`` records whether the gap at the
    softmax assignments shrinks monotonically in magnitude along
    :data:`TAU_SWEEP`; ``gap_rise`` is the largest step-to-step increase
    of that magnitude.
    """
    q = _rows(assignments)
    d2 = _d2(episode.query_vectors, W, prototypes)
    H = _j_value(d2, _soft_rows(d2, tau))
    bound = _j_value(d2, q) + barrier_value(q, tau)
    tight, rise = _sweep_gaps(d2[None], TAU_SWEEP)
    return BoundCheck(H_value=H, bound_value=bound, gap=bound - H,
                      tight_at_kkt=bool(tight[0]), gap_rise=rise[0])


def project_simplex_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex
    (sort-based algorithm)."""
    V = np.asarray(V, dtype=np.float64)
    n, C = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    ind = np.arange(1, C + 1)
    rho = np.count_nonzero(U - css / ind > 0, axis=1)
    shift = css[np.arange(n), rho - 1] / rho
    return np.maximum(V - shift[:, None], 0.0)


def minimize_soft_assignment_rows(d2: np.ndarray, tau: float) -> np.ndarray:
    """Projected-gradient minimizer of the soft assignment objective: steps
    of 0.1 from uniform rows, at most 50,000 of them, until the objective
    changes by at most 1e-15 relative.

    Numeric oracle, independent of the closed-form softmax solution.
    """
    n, C = d2.shape
    q = np.full((n, C), 1.0 / C)
    prev = np.inf
    for _ in range(50000):
        grad = (tau / 2.0) * d2 + np.log(np.maximum(q, 1e-16)) + 1.0
        q = project_simplex_rows(q - 0.1 * grad)
        val = soft_assignment_objective(d2, q, tau)
        if abs(prev - val) <= 1e-15 * max(1.0, abs(val)):
            break
        prev = val
    return q


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


def _w_steps(
    X: np.ndarray,
    W: np.ndarray,
    theta: np.ndarray,
    q_rows: np.ndarray,
    lr: float,
    steps: int,
) -> np.ndarray:
    # gradient steps on J through the solver's backward helper; with simplex
    # rows q_i, d J / d f_i = 2 (f_i - sum_c q_ic theta_c)
    for _ in range(steps):
        grad_raw = 2.0 * (norm_induced_map(X, W) - q_rows @ theta)
        W = W - lr * _grad_w(grad_raw, X, W, True)
    return W


def _assert_nonincreasing(before: float, after: float, what: str) -> None:
    if after > before + _MONOTONE_SLACK * max(1.0, abs(before)):
        raise InternalConsistencyError(
            f"{what} increased the K-means objective: {before!r} -> {after!r}"
        )


def alternate_kmeans(
    episode: Episode,
    max_rounds: int = 100,
    w_steps_per_round: int = 1,
    lr_w: float = _LR_W,
    init_W: np.ndarray | None = None,
    init_prototypes: np.ndarray | None = None,
) -> KMeansResult:
    """Alternating minimization of the mixed K-means objective.

    Each round: hard-assign queries to the nearest prototype in transformed
    space, reset prototypes to class means (empty clusters keep their old
    prototype), then take ``w_steps_per_round`` gradient steps on the
    transform. The assignment and means steps can never increase the
    objective and that is asserted every round; the transform step is
    descent only for small ``lr_w``. Stops when a full round improves the
    objective by less than 1e-10.

    With ``w_steps_per_round=0`` (or ``lr_w=0``) this is plain Lloyd
    iteration on the transformed features.
    """
    X = episode.query_vectors
    W = (
        init_transform(episode.support_vectors)
        if init_W is None
        else np.asarray(init_W, dtype=np.float64).copy()
    )
    if init_prototypes is None:
        theta = norm_induced_map(episode.support_vectors, W)
    else:
        theta = np.asarray(init_prototypes, dtype=np.float64).copy()

    trace: list[tuple[str, float]] = []
    q = None
    j_round_end = None
    for _ in range(max_rounds):
        F = transformed_query_features(episode, W)
        d2 = squared_distances(F, theta)
        if q is not None:
            j_before = _j_value(d2, q)
        q = _hard_assign_rows(d2)
        j_assign = _j_value(d2, q)
        if trace:
            _assert_nonincreasing(j_before, j_assign, "assignment step")
        trace.append(("assign", j_assign))
        theta = _means_update(F, q, theta)
        j_means = _j_value(squared_distances(F, theta), q)
        _assert_nonincreasing(j_assign, j_means, "means step")
        trace.append(("means", j_means))
        j_end = j_means
        if w_steps_per_round > 0 and lr_w > 0:
            W = _w_steps(X, W, theta, q, lr_w, w_steps_per_round)
            F = transformed_query_features(episode, W)
            j_end = _j_value(squared_distances(F, theta), q)
            trace.append(("w_step", j_end))
        if j_round_end is not None and j_round_end - j_end < 1e-10:
            j_round_end = j_end
            break
        j_round_end = j_end
    return KMeansResult(
        W=W,
        prototypes=theta,
        assignments=AssignmentMatrix(q, hard=True),
        trace=trace,
    )


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
    return _mm_trace(episode.query_vectors, np.asarray(init_W, dtype=np.float64),
                     np.asarray(init_prototypes, dtype=np.float64), tau, rounds)


def _mm_trace(
    X: np.ndarray, W: np.ndarray, theta: np.ndarray, tau: float, rounds: int,
) -> list[tuple]:
    """The rounds of :func:`mm_iteration` from queries X, a transform W and
    prototypes theta, for one instance (float pairs) or a stack of them
    (pairs of per-instance arrays). W and theta are not changed."""
    trace = []
    for _ in range(rounds):
        F = norm_induced_map(X, W)
        d2 = squared_distances(F, theta)
        q = _soft_rows(d2, tau)
        theta = _means_update(F, q, theta)
        W = _w_steps(X, W, theta, q, _LR_W, 1)
        d2 = _d2(X, W, theta)
        h_now = _j_value(d2, _soft_rows(d2, tau))
        bound = _j_value(d2, q) + barrier_value(q, tau)
        trace.append((h_now, bound))
    return trace


@dataclass
class RandomInstances:
    """A stack of B seeded random instances with the same shape: support
    (B, C, d) and query (B, n, d) unit vectors, the query labels they share
    (n,), and each instance's transform W (B, d, d) and prototypes
    theta (B, C, d)."""

    support: np.ndarray
    query: np.ndarray
    query_labels: np.ndarray
    W: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return len(self.W)

    def episode(self, b: int) -> Episode:
        C, d = self.support.shape[1:]
        return Episode(
            num_classes=C,
            dim=d,
            support_labels=np.arange(C, dtype=np.int64),
            support_vectors=self.support[b],
            query_vectors=self.query[b],
            query_hidden_labels=self.query_labels,
        )


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
    the data's scale. The random draws are made per seed; everything else
    runs on the stack, and each instance is the same, bit for bit, in a
    stack of any size.
    """
    spec = SyntheticTaskSpec(
        num_classes=num_classes,
        dim=dim,
        intra_class_stddev=stddev,
        inter_class_separation=separation,
        relevant_dims=min(dim, num_classes),
        queries_per_class=queries_per_class,
    )
    _check_spec(spec)
    seeds = list(seeds)
    B, C, n = len(seeds), num_classes, num_classes * queries_per_class
    blocks = np.empty((B, C, 1 + queries_per_class, dim))
    jitter = np.empty((B, dim, dim))
    picks = np.empty((B, C), dtype=np.int64)
    noise = np.empty((B, C, dim))
    for b, seed in enumerate(seeds):
        blocks[b] = _synthetic_blocks(spec, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1_000_003)
        jitter[b] = rng.standard_normal((dim, dim))
        picks[b] = rng.choice(n, size=C, replace=False)
        noise[b] = rng.standard_normal((C, dim))
    support = l2_normalize_rows(blocks[:, :, 0])
    query = l2_normalize_rows(blocks[:, :, 1:].reshape(B, n, dim))
    W = init_transform(support) + (0.1 / np.sqrt(dim)) * jitter
    F = norm_induced_map(query, W)
    theta = np.take_along_axis(F, picks[..., None], axis=1) + 0.05 * noise
    labels = np.repeat(np.arange(C, dtype=np.int64), queries_per_class)
    return RandomInstances(support, query, labels, W, theta)


def make_random_instance(
    seed: int, **shape
) -> tuple[Episode, np.ndarray, np.ndarray]:
    """The (episode, W, prototypes) triple of :func:`make_random_instances`
    for one seed; ``shape`` takes the same keywords."""
    instance = make_random_instances([seed], **shape)
    return instance.episode(0), instance.W[0], instance.theta[0]
