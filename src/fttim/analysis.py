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

By default all operations use the raw (un-normalized) map outputs;
``normalized=True`` runs the same analysis on the unit-normalized features
the inference path uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _grad_raw, _grad_w, _pipeline, _softmax_rows
from .features import Episode, SyntheticTaskSpec, generate_synthetic_episode
from .transform import init_transform, norm_induced_map

# Test hook: overrides the tau/2 factor on the clustering term so a
# deliberately mis-scaled build fails the decomposition identity check.
_CLUSTERING_SCALE_OVERRIDE: float | None = None

_MONOTONE_SLACK = 1e-9


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
        if np.any(self.rows < 0):
            raise ValueError("assignment entries must be non-negative")
        sums = self.rows.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("assignment rows must sum to 1")
        if self.hard:
            onehot = (self.rows == 1.0).sum(axis=1)
            if not (np.all(onehot == 1) & np.all((self.rows == 0) | (self.rows == 1))):
                raise ValueError("hard assignments must be one-hot rows")

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


def _map(X: np.ndarray, W: np.ndarray, normalized: bool) -> np.ndarray:
    # normalized outputs come from the solver's own pipeline, which raises
    # DegenerateVectorError (a ValueError) on a zero output
    if normalized:
        return _pipeline(X, W, True, "ft_tim")[0]
    return norm_induced_map(X, W)


def transformed_query_features(
    episode: Episode, W: np.ndarray, normalized: bool = False
) -> np.ndarray:
    """Query features under the map: raw outputs, or unit-normalized ones."""
    return _map(episode.query_vectors, W, normalized)


def squared_distances(features: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    diff = features[:, None, :] - prototypes[None, :, :]
    return np.sum(diff * diff, axis=2)


def _d2(episode: Episode, W: np.ndarray, prototypes: np.ndarray,
        normalized: bool) -> np.ndarray:
    return squared_distances(transformed_query_features(episode, W, normalized),
                             prototypes)


def _soft_rows(d2: np.ndarray, tau: float) -> np.ndarray:
    return _softmax_rows(-(tau / 2.0) * d2)


def _rows(assignments: AssignmentMatrix | np.ndarray) -> np.ndarray:
    if isinstance(assignments, AssignmentMatrix):
        return assignments.rows
    return AssignmentMatrix(np.asarray(assignments, dtype=np.float64)).rows


def _j_value(d2: np.ndarray, q_rows: np.ndarray) -> float:
    return float(np.sum(q_rows * d2))


def kmeans_objective(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    assignments: AssignmentMatrix | np.ndarray,
    normalized: bool = False,
) -> float:
    """Assignment-weighted sum of squared prototype distances over the queries."""
    q = _rows(assignments)
    F = transformed_query_features(episode, W, normalized)
    if prototypes.shape[1] != F.shape[1] or q.shape != (F.shape[0], prototypes.shape[0]):
        raise ValueError("dimension mismatch between features, prototypes, assignments")
    return _j_value(squared_distances(F, prototypes), q)


def kkt_soft_assignments(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
    normalized: bool = False,
) -> AssignmentMatrix:
    """Distance-softmax assignment rows, the closed-form minimizer of the
    temperature-consistent soft objective (see module docstring)."""
    return AssignmentMatrix(_soft_rows(_d2(episode, W, prototypes, normalized), tau))


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1)
    return m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))


def _xlogx(q: np.ndarray) -> np.ndarray:
    # 0 * log 0 := 0; the floor never changes nonzero entries' logs materially
    return q * np.log(np.maximum(q, 1e-300))


def clustering_term(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
    normalized: bool = False,
) -> float:
    """Softmax-weighted sum of squared distances (the K-means-like part of
    the query entropy)."""
    d2 = _d2(episode, W, prototypes, normalized)
    return _j_value(d2, _soft_rows(d2, tau))


def _decompose(d2: np.ndarray, tau: float) -> tuple[float, float, float, float]:
    """(entropy, clustering, dispersion, relative residual) of the identity
    -sum p log p = (tau/2) * clustering + dispersion at the distance-softmax
    rows p. The two sides come from independent float paths: the entropy
    from the probabilities themselves, the right side from distances and
    log-sum-exps."""
    logits = -(tau / 2.0) * d2
    p = _softmax_rows(logits)
    entropy = -float(np.sum(_xlogx(p)))
    clustering = _j_value(d2, p)
    dispersion = float(np.sum(_logsumexp_rows(logits)))
    scale = (tau / 2.0) if _CLUSTERING_SCALE_OVERRIDE is None else _CLUSTERING_SCALE_OVERRIDE
    residual = abs(entropy - (scale * clustering + dispersion)) / max(1.0, abs(entropy))
    return entropy, clustering, dispersion, residual


def entropy_decomposition(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
    normalized: bool = False,
) -> ObjectiveBreakdown:
    """Split the total query entropy into clustering and dispersion parts.

    Verifies the exact identity
    -sum p log p = (tau/2) * clustering + dispersion to 1e-8 and raises
    :class:`InternalConsistencyError` on violation. The breakdown is
    evaluated at the distance-softmax assignments, where the K-means value
    coincides with the clustering term.
    """
    entropy, clustering, dispersion, residual = _decompose(
        _d2(episode, W, prototypes, normalized), tau)
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
    normalized: bool = False,
) -> float:
    """Relative residual of the entropy decomposition identity, from the two
    independent float paths of :func:`entropy_decomposition`."""
    return _decompose(_d2(episode, W, prototypes, normalized), tau)[3]


def soft_assignment_objective(
    d2: np.ndarray, q_rows: np.ndarray, tau: float
) -> float:
    """Temperature-consistent soft objective (tau/2) sum q d^2 + sum q log q.

    Strictly convex in q; its exact row-wise simplex minimizer is
    softmax(-(tau/2) d^2)."""
    return (tau / 2.0) * float(np.sum(q_rows * d2)) + float(np.sum(_xlogx(q_rows)))


def barrier_value(q_rows: np.ndarray, tau: float) -> float:
    """Entropy barrier (tau/2) sum q log q; non-positive, zero iff one-hot."""
    return (tau / 2.0) * float(np.sum(_xlogx(q_rows)))


def bound_check(
    episode: Episode,
    W: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
    assignments: AssignmentMatrix | np.ndarray,
    normalized: bool = False,
    sweep: tuple[float, ...] = (1.0, 0.1, 0.01, 0.001),
) -> BoundCheck:
    """Measure the softened-bound value J + (tau/2) sum q log q against the
    clustering term.

    Gaps are reported as data, not asserted: the bound is only approximate
    at finite temperature. ``tight_at_kkt`` records whether the gap at the
    softmax assignments shrinks monotonically in magnitude along the
    temperature sweep; ``gap_rise`` is the largest step-to-step increase
    of that magnitude.
    """
    q = _rows(assignments)
    d2 = _d2(episode, W, prototypes, normalized)
    H = _j_value(d2, _soft_rows(d2, tau))
    bound = _j_value(d2, q) + barrier_value(q, tau)
    # at the softmax assignments J equals the clustering term, so the gap
    # reduces to the barrier; its magnitude should shrink with temperature
    gaps = [abs(barrier_value(_soft_rows(d2, t), t)) for t in sweep]
    tight = all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(gaps) - 1))
    rise = max((b - a for a, b in zip(gaps, gaps[1:])), default=-np.inf)
    return BoundCheck(H_value=H, bound_value=bound, gap=bound - H,
                      tight_at_kkt=tight, gap_rise=rise)


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


def minimize_soft_assignment_rows(
    d2: np.ndarray,
    tau: float,
    step: float = 0.1,
    max_iters: int = 50000,
    tol: float = 1e-15,
) -> np.ndarray:
    """Projected-gradient minimizer of the soft assignment objective.

    Numeric oracle, independent of the closed-form softmax solution.
    """
    n, C = d2.shape
    q = np.full((n, C), 1.0 / C)
    prev = np.inf
    for _ in range(max_iters):
        grad = (tau / 2.0) * d2 + np.log(np.maximum(q, 1e-16)) + 1.0
        q = project_simplex_rows(q - step * grad)
        val = soft_assignment_objective(d2, q, tau)
        if abs(prev - val) <= tol * max(1.0, abs(val)):
            break
        prev = val
    return q


def _hard_assign_rows(d2: np.ndarray) -> np.ndarray:
    labels = np.argmin(d2, axis=1)
    rows = np.zeros_like(d2)
    rows[np.arange(d2.shape[0]), labels] = 1.0
    return rows


def _means_update(
    F: np.ndarray, q_rows: np.ndarray, prev: np.ndarray
) -> np.ndarray:
    # zero-mass classes keep their previous prototype (deterministic, keeps
    # the objective from jumping)
    mass = q_rows.sum(axis=0)
    theta = prev.copy()
    occupied = mass > 0
    theta[occupied] = (q_rows.T @ F)[occupied] / mass[occupied, None]
    return theta


def _w_steps(
    X: np.ndarray,
    W: np.ndarray,
    theta: np.ndarray,
    q_rows: np.ndarray,
    lr: float,
    steps: int,
    normalized: bool,
) -> np.ndarray:
    # gradient steps on J through the solver's backward helpers; with simplex
    # rows q_i, d J / d f_i = 2 (f_i - sum_c q_ic theta_c)
    for _ in range(steps):
        if normalized:
            f, raw, norms = _pipeline(X, W, True, "ft_tim")
            grad_raw = _grad_raw(2.0 * (f - q_rows @ theta), raw, norms)
        else:
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
    lr_w: float = 0.005,
    tol: float = 1e-10,
    normalized: bool = False,
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
    objective by less than ``tol``.

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
        theta = _map(episode.support_vectors, W, normalized)
    else:
        theta = np.asarray(init_prototypes, dtype=np.float64).copy()

    trace: list[tuple[str, float]] = []
    q = None
    j_round_end = None
    for _ in range(max_rounds):
        F = transformed_query_features(episode, W, normalized)
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
            W = _w_steps(X, W, theta, q, lr_w, w_steps_per_round, normalized)
            F = transformed_query_features(episode, W, normalized)
            j_end = _j_value(squared_distances(F, theta), q)
            trace.append(("w_step", j_end))
        if j_round_end is not None and j_round_end - j_end < tol:
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
    w_steps_per_round: int = 1,
    lr_w: float = 0.005,
    assignment_mode: str = "soft",
    normalized: bool = False,
) -> list[tuple[float, float]]:
    """Majorize-minimize rounds on the clustering term.

    Each round fixes assignments (distance softmax, or hard nearest in
    ``assignment_mode="hard"``), then minimizes the softened objective over
    prototypes (weighted means) and the transform (gradient steps). Returns
    one (H_value, bound_value) pair per round, evaluated after the round's
    updates; in hard mode both entries are the hard-assignment K-means
    objective, so a frozen-transform hard run reproduces Lloyd's trace
    exactly.
    """
    if assignment_mode not in ("soft", "hard"):
        raise ValueError("assignment_mode must be 'soft' or 'hard'")
    X = episode.query_vectors
    W = np.asarray(init_W, dtype=np.float64).copy()
    theta = np.asarray(init_prototypes, dtype=np.float64).copy()
    trace: list[tuple[float, float]] = []
    for _ in range(rounds):
        F = transformed_query_features(episode, W, normalized)
        d2 = squared_distances(F, theta)
        if assignment_mode == "hard":
            q = _hard_assign_rows(d2)
        else:
            q = _soft_rows(d2, tau)
        theta = _means_update(F, q, theta)
        if w_steps_per_round > 0 and lr_w > 0:
            W = _w_steps(X, W, theta, q, lr_w, w_steps_per_round, normalized)
            F = transformed_query_features(episode, W, normalized)
        d2 = squared_distances(F, theta)
        if assignment_mode == "hard":
            j_now = _j_value(d2, q)
            trace.append((j_now, j_now))
        else:
            h_now = _j_value(d2, _soft_rows(d2, tau))
            bound = _j_value(d2, q) + barrier_value(q, tau)
            trace.append((h_now, bound))
    return trace


def make_random_instance(
    seed: int,
    num_classes: int = 5,
    queries_per_class: int = 4,
    dim: int = 8,
    separation: float = 1.5,
    stddev: float = 0.5,
) -> tuple[Episode, np.ndarray, np.ndarray]:
    """Seeded generic (episode, W, prototypes) triple for property sweeps.

    W is a jittered support gram matrix and the prototypes sit near
    transformed query positions, so instances are generic (no accidental
    symmetry) but on the data's scale.
    """
    spec = SyntheticTaskSpec(
        num_classes=num_classes,
        dim=dim,
        intra_class_stddev=stddev,
        inter_class_separation=separation,
        relevant_dims=min(dim, num_classes),
        queries_per_class=queries_per_class,
        seed=seed,
    )
    episode = generate_synthetic_episode(spec)
    rng = np.random.default_rng(seed + 1_000_003)
    W = init_transform(episode.support_vectors)
    W = W + (0.1 / np.sqrt(dim)) * rng.standard_normal((dim, dim))
    F = norm_induced_map(episode.query_vectors, W)
    picks = rng.choice(F.shape[0], size=num_classes, replace=False)
    theta = F[picks] + 0.05 * rng.standard_normal((num_classes, dim))
    return episode, W, theta
