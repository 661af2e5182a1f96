"""Feature ingestion, normalization, synthetic task generation, and episodic sampling.

Feature banks live on disk as a small text table: one header line
``d=<dim> n=<rows>`` followed by ``n`` lines of ``<class_id>,<f1>,...,<fd>``,
ASCII only, with a non-negative integer class id that int64 holds,
``float()``-style decimal fields, LF line endings and no padding. A load
parses the records in one pass and, when that pass fails, names the first
bad line. Floats are written with the shortest round-tripping decimal
form, so ``write_feature_bank(load_feature_bank(path)) == path`` byte for
byte on canonical files.

Everything downstream consumes :class:`Episode` objects produced here. An
episode's query labels are hidden: solvers read their inputs through
:meth:`Episode.solver_inputs`, which exposes no query labels, and only the
scoring layer touches ``query_hidden_labels``.
"""

from __future__ import annotations

import io
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

UNIT_NORM_TOL = 1e-9

_HEADER_RE = re.compile(r"^d=(\d+) n=(\d+)$", re.ASCII)


class FeatureFormatError(ValueError):
    """A feature-table file violates the on-disk format."""


class DegenerateVectorError(ValueError):
    """A vector cannot be normalized: it is zero or non-finite, or its norm
    overflows or underflows."""


class TooFewClassesError(ValueError):
    """A feature bank has fewer classes with enough records than an episode
    needs."""


def l2_normalize_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise unit normalization of a 2-D array, or of a stack of them
    along leading axes. A row that does not come out within UNIT_NORM_TOL
    of unit norm raises a DegenerateVectorError that names it and gives one
    of three reasons: it has a non-finite entry, it has zero norm, or its
    squared norm overflows or underflows float64."""
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(all="ignore"):  # such rows are caught below
        unit = X / np.linalg.norm(X, axis=-1)[..., None]
        bad = ~(np.abs(np.linalg.norm(unit, axis=-1) - 1.0) <= UNIT_NORM_TOL)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        why = ("has a non-finite entry" if not np.isfinite(X[first]).all()
               else "has zero norm" if not X[first].any()
               else "has a norm that overflows or underflows float64")
        raise DegenerateVectorError(f"row {first[-1]} {why}")
    return unit


def _check_unit_rows(name: str, arr: np.ndarray) -> None:
    """Raise unless every row of ``arr`` (any leading axes) has unit norm."""
    norms = np.linalg.norm(arr, axis=-1)
    if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
        raise ValueError(f"{name} vectors are not unit-normalized")


@dataclass
class FeatureBank:
    """In-memory store of (class_id, vector) embedding records.

    Treated as immutable after construction; safe to share across episode
    workers. ``class_index`` maps each class id to the indices of its records.
    """

    dim: int
    class_ids: np.ndarray
    vectors: np.ndarray
    class_index: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors must be (n, {self.dim}), got {self.vectors.shape}"
            )
        if self.class_ids.shape != (self.vectors.shape[0],):
            raise ValueError("class_ids length must match number of vectors")
        if np.any(self.class_ids < 0):
            raise ValueError("class ids must be non-negative")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("bank vectors must be finite")
        self.class_index = {
            int(cid): np.flatnonzero(self.class_ids == cid)
            for cid in np.unique(self.class_ids)
        }

    @property
    def num_records(self) -> int:
        return self.vectors.shape[0]

    def classes(self) -> list[int]:
        return sorted(self.class_index)


# Characters that int() and float() accept around or inside a number but that
# the format forbids: padding, carriage returns and digit-group underscores.
_FORBIDDEN = {
    "\r": "carriage return (line endings must be LF)",
    "_": "underscore in a record",
    **dict.fromkeys(" \t\x0b\x0c\x1c\x1d\x1e\x1f",
                    "whitespace in a record (fields must not be padded)"),
}


def _check_record_characters(path: Path, data: bytes, start: int) -> None:
    """Reject forbidden bytes from offset ``start`` on with whole-file scans;
    the line number is found only when one is present."""
    hits = [(pos, why) for c, why in _FORBIDDEN.items()
            if (pos := data.find(c.encode(), start)) >= 0]
    if not data.isascii():  # a header that passed its regex is ASCII
        hits.append((re.compile(rb"[\x80-\xff]").search(data, start).start(),
                     "non-ASCII character in a record"))
    if hits:
        pos, why = min(hits)
        lineno = data.count(b"\n", 0, pos) + 1
        raise FeatureFormatError(f"{path}: line {lineno}: {why}")


def _class_ids(data: bytes, pos: int, n: int) -> np.ndarray:
    """The integers before the first comma of the ``n`` records from offset
    ``pos`` on."""
    class_ids = np.empty(n, dtype=np.int64)
    for i in range(n):
        comma = data.find(b",", pos)
        class_ids[i] = int(data[pos:comma])
        pos = data.find(b"\n", comma) + 1
    return class_ids


def _raise_first_bad_record(path: Path, records: list[bytes], dim: int) -> None:
    """Raise the error of the first record that is not ``dim + 1`` fields:
    a non-negative class id that ``int()`` reads, then finite values that
    ``float()`` reads, then a class id that int64 holds."""
    for lineno, line in enumerate(records, start=2):
        parts, where = line.split(b","), f"{path}: line {lineno}"
        if len(parts) != dim + 1:
            raise FeatureFormatError(f"{where}: expected {dim + 1} fields, got {len(parts)}")
        try:
            cid = int(parts[0])
        except ValueError:
            raise FeatureFormatError(
                f"{where}: class id {parts[0].decode()!r} is not an integer") from None
        if cid < 0:
            raise FeatureFormatError(f"{where}: class id must be non-negative")
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError:
            raise FeatureFormatError(f"{where}: non-numeric feature field") from None
        if not all(map(math.isfinite, row)):
            raise FeatureFormatError(f"{where}: non-finite feature value")
        if cid > np.iinfo(np.int64).max:
            raise FeatureFormatError(f"{where}: class id does not fit in int64")
    raise FeatureFormatError(f"{path}: the text reader rejected a valid table")


def load_feature_bank(path: str | Path) -> FeatureBank:
    """Parse a feature-table file into a :class:`FeatureBank`.

    The records are parsed in one pass of numpy's text reader, which rounds
    as ``float()`` does. When that pass rejects the file, the records are
    read again one by one to report the violation with the 1-based number
    of the first offending line.
    """
    path = Path(path)
    data = path.read_bytes()  # no decoding, no newline translation
    if data == b"":
        raise FeatureFormatError(f"{path}: empty file (line 1)")
    start = data.find(b"\n") + 1 or len(data) + 1  # line 2, or past the end
    head = data[:start - 1].decode("utf-8", "replace")
    header = _HEADER_RE.match(head)
    if header is None:
        raise FeatureFormatError(
            f"{path}: line 1: malformed header {head!r}, expected 'd=<int> n=<int>'"
        )
    try:
        dim, n = int(header.group(1)), int(header.group(2))
    except ValueError:  # past int()'s limit on the digits it converts
        raise FeatureFormatError(f"{path}: line 1: header count has too many digits") from None
    if dim < 1:
        raise FeatureFormatError(f"{path}: line 1: dimension must be positive")
    _check_record_characters(path, data, start)
    rows = data.count(b"\n") - data.endswith(b"\n")
    if rows != n:
        raise FeatureFormatError(
            f"{path}: header declares n={n} rows but file has {rows} "
            f"(line {min(rows, n) + 2})"
        )
    if n == 0:
        return FeatureBank(dim=dim, class_ids=np.empty(0, dtype=np.int64),
                           vectors=np.empty((0, dim)))
    if data[start] != ord("\n"):  # the reader warns when every line is blank
        try:  # FeatureBank checks the table's shape, the ids' signs and finiteness
            table = np.loadtxt(io.BytesIO(data), skiprows=1, delimiter=",", comments=None,
                               dtype=np.float64, ndmin=2)
            return FeatureBank(dim=dim, class_ids=_class_ids(data, start, n),
                               vectors=table[:, 1:])
        except (ValueError, OverflowError):
            pass  # the record loop names the first bad line
    _raise_first_bad_record(path, data[start:].split(b"\n")[:n], dim)


def write_feature_bank(bank: FeatureBank, path: str | Path) -> None:
    """Serialize a bank in the canonical feature-table form (LF, UTF-8)."""
    out = [f"d={bank.dim} n={bank.num_records}"]
    # row by row: a list of all the bank's floats would cost 32 bytes a value
    for cid, vec in zip(bank.class_ids.tolist(), bank.vectors):
        out.append(f"{cid}," + ",".join(map(repr, vec.tolist())))
    _write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))


def _write_atomic(path: str | Path, data: bytes) -> None:
    """Writes ``data`` to a temporary file in ``path``'s directory, then
    renames it to ``path``, so ``path`` holds its old bytes or all of the
    new ones; on any exception the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the file the caller asked for
            exc.filename, exc.filename2 = str(path), None
        raise


@dataclass
class Episode:
    """One few-shot task: labeled support, unlabeled queries, optional held-out split.

    Hidden labels exist for scoring only. Solver code must take its
    inputs from :meth:`solver_inputs`.
    """

    num_classes: int
    dim: int
    support_labels: np.ndarray
    support_vectors: np.ndarray
    query_vectors: np.ndarray
    query_hidden_labels: np.ndarray
    heldout_vectors: np.ndarray | None = None
    heldout_hidden_labels: np.ndarray | None = None

    def solver_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Label-stripped solver view: (support_vectors, support_labels, query_vectors)."""
        return self.support_vectors, self.support_labels, self.query_vectors

    @property
    def num_queries(self) -> int:
        return self.query_vectors.shape[0]


def sample_episode(
    bank: FeatureBank,
    num_classes: int,
    queries_per_class: int,
    heldout_per_class: int,
    seed: int,
) -> Episode:
    """Draw a one-shot episode from a bank without replacement.

    Chosen class ids are remapped to labels 0..C-1 by ascending original id,
    and all vectors are unit-normalized. The same (bank, parameters, seed)
    always yields the same episode.
    """
    need = 1 + queries_per_class + heldout_per_class
    eligible = [cid for cid in bank.classes() if bank.class_index[cid].size >= need]
    if len(eligible) < num_classes:
        raise TooFewClassesError(
            f"need {num_classes} classes with >= {need} records each, "
            f"bank has {len(eligible)} eligible of {len(bank.classes())} total"
        )
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(np.asarray(eligible, dtype=np.int64),
                                size=num_classes, replace=False))
    picked = [rng.choice(bank.class_index[int(cid)], size=need, replace=False)
              for cid in chosen]
    return _episode_from_blocks(bank.vectors[np.array(picked)], queries_per_class,
                                heldout_per_class)


def _episode_from_blocks(blocks: np.ndarray, queries_per_class: int,
                         heldout_per_class: int) -> Episode:
    """The episode whose raw vectors are the (C, 1 + queries + held-out, d)
    class blocks: block c holds class c's support vector, then its queries,
    then its held-out vectors. Every vector is unit-normalized by
    :func:`l2_normalize_rows`, the one check of an episode's rows: a row
    it cannot normalize raises its DegenerateVectorError."""
    C, _, d = blocks.shape
    q = queries_per_class
    labels = np.arange(C, dtype=np.int64)
    episode = Episode(
        num_classes=C,
        dim=d,
        support_labels=labels,
        support_vectors=l2_normalize_rows(blocks[:, 0]),
        query_vectors=l2_normalize_rows(blocks[:, 1:1 + q].reshape(-1, d)),
        query_hidden_labels=np.repeat(labels, q),
    )
    if heldout_per_class:
        episode.heldout_vectors = l2_normalize_rows(blocks[:, 1 + q:].reshape(-1, d))
        episode.heldout_hidden_labels = np.repeat(labels, heldout_per_class)
    return episode


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Parameters of a generated one-shot task.

    Class means sit at scaled one-hot directions inside the first
    ``relevant_dims`` coordinates; all remaining dimensions carry shared
    isotropic noise only. Identical specs produce bit-identical episodes.
    Parameters that cannot form a task raise ValueError when the spec is
    made.
    """

    num_classes: int
    dim: int
    intra_class_stddev: float
    inter_class_separation: float
    relevant_dims: int
    queries_per_class: int
    heldout_per_class: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.relevant_dims < 1:
            raise ValueError("relevant_dims must be >= 1")
        if self.relevant_dims > self.dim:
            raise ValueError(
                f"relevant_dims ({self.relevant_dims}) exceeds dim ({self.dim})"
            )
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.queries_per_class < 1:
            raise ValueError("queries_per_class must be >= 1")
        _check_heldout(self.heldout_per_class)
        if not (math.isfinite(self.intra_class_stddev)
                and math.isfinite(self.inter_class_separation)):
            raise ValueError("stddev and separation must be finite")
        if self.intra_class_stddev < 0 or self.inter_class_separation < 0:
            raise ValueError("stddev and separation must be non-negative")


def _synthetic_means(spec: SyntheticTaskSpec) -> np.ndarray:
    # pairwise distance between means is exactly inter_class_separation
    # when num_classes <= relevant_dims; extra classes reuse axes at
    # staggered radii.
    scale = spec.inter_class_separation / math.sqrt(2.0)
    means = np.zeros((spec.num_classes, spec.dim))
    for c in range(spec.num_classes):
        axis = c % spec.relevant_dims
        tier = 1 + c // spec.relevant_dims
        means[c, axis] = scale * tier
    return means


def _check_heldout(heldout_per_class: int) -> None:
    if heldout_per_class < 0:
        raise ValueError("heldout_per_class must be non-negative")


def _synthetic_blocks(spec: SyntheticTaskSpec, noise: np.ndarray) -> np.ndarray:
    """The task's raw vectors as (C, 1 + queries + held-out, d) class blocks,
    made in place from standard normals of that shape or stacks of them:
    each block is its class's support vector, queries and held-out vectors."""
    with np.errstate(over="ignore", invalid="ignore"):  # the row check flags such rows
        noise *= spec.intra_class_stddev
        noise += _synthetic_means(spec)[:, None, :]
    return noise


def generate_synthetic_episode(spec: SyntheticTaskSpec) -> Episode:
    """Build a reproducible synthetic episode from a :class:`SyntheticTaskSpec`.
    One draw for all classes gives the same bits as one draw per class."""
    shape = (spec.num_classes, 1 + spec.queries_per_class + spec.heldout_per_class, spec.dim)
    blocks = _synthetic_blocks(spec, np.random.default_rng(spec.seed).standard_normal(shape))
    return _episode_from_blocks(blocks, spec.queries_per_class, spec.heldout_per_class)


def class_separation_ratio(vectors: np.ndarray, labels: np.ndarray) -> float | None:
    """Mean inter-class pairwise distance divided by mean intra-class distance.

    Larger is better separated. None when the ratio is not defined: with no
    same-class or no cross-class pair, or with every same-class pair at
    distance zero.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    diffs = vectors[:, None, :] - vectors[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=2))
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones_like(same, dtype=bool), k=1)
    intra = dist[same & upper]
    inter = dist[~same & upper]
    if intra.size == 0 or inter.size == 0 or (denom := float(np.mean(intra))) == 0.0:
        return None
    return float(np.mean(inter)) / denom
