"""Episodic evaluation campaigns, paired variant comparison, theory
verification sweeps, and embedding export.

Campaign results are deterministic for a fixed (source, config, episode
count, base seed): episode i always uses seed base_seed + i, outcomes are
aggregated in episode order, and reports carry a config echo sufficient to
reproduce the run. Episodes are solved in stacks (:class:`engine.Batch`)
whose results do not depend on which episodes share a stack, so the worker
count affects wall time only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .engine import (
    Batch,
    EpisodeFailure,
    TimConfig,
    VARIANTS,
    _pipeline,
    predict_features,
    run_ft_tim,
    stack_limit,
)
from .features import (
    DegenerateVectorError,
    Episode,
    FeatureBank,
    class_separation_ratio,
    load_feature_bank,
    sample_episode,
    SyntheticTaskSpec,
    _check_heldout,
    _write_atomic,
    generate_synthetic_episode,
    write_feature_bank,
)

@dataclass(frozen=True)
class SyntheticSource:
    """Episode factory backed by the synthetic generator. The defaults are
    the standard synthetic suite: moderate noise over mostly irrelevant
    dimensions, so baseline accuracy lands mid-range and transform effects
    are measurable."""

    num_classes: int = 5
    dim: int = 64
    relevant_dims: int = 10
    intra_class_stddev: float = 0.5
    inter_class_separation: float = 3.0
    queries_per_class: int = 15
    heldout_per_class: int = 0

    def __post_init__(self) -> None:
        # parameters that cannot form a task are rejected when the source is made
        SyntheticTaskSpec(**dataclasses.asdict(self))

    def episode(self, seed: int) -> Episode:
        return generate_synthetic_episode(
            SyntheticTaskSpec(**dataclasses.asdict(self), seed=seed))

    def echo(self) -> dict:
        return {"kind": "synthetic", **dataclasses.asdict(self)}


# the standard synthetic suite as SyntheticTaskSpec fields, without a held-out split
STANDARD_SUITE = {k: v for k, v in dataclasses.asdict(SyntheticSource()).items()
                  if k != "heldout_per_class"}


@dataclass(frozen=True)
class BankSource:
    """Episode factory sampling from an on-disk feature bank. The bank is
    parsed once, when the source is made, so load errors are raised there;
    pool workers receive it with the pickled source."""

    path: str
    num_classes: int = 5
    queries_per_class: int = 15
    heldout_per_class: int = 0

    def __post_init__(self) -> None:
        _check_heldout(self.heldout_per_class)
        # not a field, so echo() and equality see only the parameters
        object.__setattr__(self, "bank", load_feature_bank(self.path))

    def episode(self, seed: int) -> Episode:
        return sample_episode(
            self.bank,
            num_classes=self.num_classes,
            queries_per_class=self.queries_per_class,
            heldout_per_class=self.heldout_per_class,
            seed=seed,
        )

    def echo(self) -> dict:
        return {"kind": "bank", **dataclasses.asdict(self)}


@dataclass
class EpisodeOutcome:
    seed: int
    accuracy: float | None
    heldout_accuracy: float | None
    iterations_run: int
    failure_flag: bool
    error: str = ""


# the EpisodeOutcome fields a report writes, in order
_REPORTED = ("seed", "accuracy", "iterations_run", "failure_flag")


def _outcome(seed: int, episode: Episode, result, config: TimConfig) -> EpisodeOutcome:
    """One episode's outcome from its solver result or failure: query
    accuracy, and held-out accuracy when the episode has a held-out split."""
    if isinstance(result, EpisodeFailure):
        return EpisodeOutcome(seed, None, None, result.iteration, True, str(result))
    accuracy = float(np.mean(result.predictions == episode.query_hidden_labels))
    heldout_accuracy = None
    if episode.heldout_vectors is not None:
        try:
            preds, p = predict_features(episode.heldout_vectors, result.state, config)
            reason = None if np.isfinite(p).all() else "non-finite posteriors"
        except DegenerateVectorError as exc:
            reason = str(exc)
        if reason is not None:
            return EpisodeOutcome(seed, None, None, result.state.iter, True,
                                  f"held-out scoring: {reason}")
        heldout_accuracy = float(np.mean(preds == episode.heldout_hidden_labels))
    return EpisodeOutcome(seed, accuracy, heldout_accuracy, result.state.iter, False)


def _solve_stack(stack, config, variants) -> list[tuple]:
    """Solves ``stack``, a list of (seed, episode) of one shape, into one
    (variant, outcome, seconds) record per episode and variant, where
    seconds is the episode's share of the stack's solve time for that
    variant. The first ``transform_start`` iterations are the same for every
    variant, so they run once and each variant goes on from a copy of that
    state; their time is split evenly."""
    start = time.perf_counter()
    shared = Batch([episode for _, episode in stack], config).start()
    shared.run(min(config.transform_start, config.iterations))
    prefix = (time.perf_counter() - start) / len(variants)
    records = []
    for k, variant in enumerate(variants):
        start = time.perf_counter()
        batch = shared.fork(variant, share=k == len(variants) - 1)
        batch.run(config.iterations)
        outcomes = [_outcome(seed, episode, result, batch.config)
                    for (seed, episode), result in zip(stack, batch.finish())]
        share = (prefix + time.perf_counter() - start) / len(stack)
        records.extend((variant, outcome, share) for outcome in outcomes)
    return records


def _failed(variants, seeds, reason: str) -> list[tuple]:
    """The records of episodes that failed at iteration 0, before solving."""
    return [(v, EpisodeOutcome(seed, None, None, 0, True, reason), 0.0)
            for seed in seeds for v in variants]


def _run_part(job) -> list[tuple]:
    """The records of a contiguous run of seeds. Consecutive episodes are
    solved in stacks of at most :func:`engine.stack_limit` of their
    dimension; a source gives every episode of a campaign one shape."""
    source, config, variants, seeds = job
    records, stack = [], []
    for seed in seeds:
        try:
            episode = source.episode(seed)
        except DegenerateVectorError as exc:
            records += _failed(variants, [seed], f"episode input: {exc}")
            continue
        if len(stack) == stack_limit(episode.dim):
            records += _solve_stack(stack, config, variants)
            stack = []
        stack.append((seed, episode))
    if stack:
        records += _solve_stack(stack, config, variants)
    return records


class WorkerDied(RuntimeError):
    """A pool worker process died before its job was done."""


class WorkerPool(contextlib.ExitStack):
    """Runs jobs in this process, or in a process pool that is forked at the
    first map of more than one job when ``workers`` > 1, one process per job
    up to ``workers``, and serves every later map until the ``with`` ends."""

    def __init__(self, workers: int = 1):
        super().__init__()
        self.workers, self._pool = workers, None

    def split(self, seeds: range) -> list[range]:
        """``seeds`` in min(workers, len(seeds)) near-equal contiguous runs, or one."""
        n = len(seeds)
        parts = max(1, min(self.workers, n))
        return [seeds[k * n // parts:(k + 1) * n // parts] for k in range(parts)]

    def map(self, fn, jobs: list, died=None) -> list:
        """``[fn(job) for job in jobs]``, in job order. A job that a dying
        pool worker takes down gives ``died(job, exc)``, or raises
        :class:`WorkerDied` when ``died`` is None."""
        if self.workers <= 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        # the pool machinery costs import time, so only pools import it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if self._pool is None:
            # fork on Linux, which Python 3.14 no longer defaults to: a forked
            # worker imports nothing again and calls the functions as patched
            fork = multiprocessing.get_context("fork") if sys.platform == "linux" else None
            self._pool = self.enter_context(ProcessPoolExecutor(
                max_workers=min(self.workers, len(jobs)), mp_context=fork))
        futures = [self._pool.submit(fn, job) for job in jobs]
        results = []
        for job, future in zip(jobs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                if died is None:
                    raise WorkerDied(str(exc)) from None
                results.append(died(job, exc))
        return results


def _run_campaign(
    source, config: TimConfig, variants: tuple[str, ...], episodes: int,
    base_seed: int, workers: int,
) -> tuple[dict[str, list[EpisodeOutcome]], dict[str, float]]:
    """Outcomes of episodes base_seed .. base_seed+episodes-1, in order, for
    each variant, and each variant's solve seconds, folded from the records
    of every contiguous run of seeds (see :meth:`WorkerPool.split`); a run
    that a dying pool worker takes down is a run of failed episodes."""
    with WorkerPool(workers) as pool:
        jobs = [(source, config, variants, seeds)
                for seeds in pool.split(range(base_seed, base_seed + episodes))]
        results = pool.map(_run_part, jobs, died=lambda job, exc: _failed(
            variants, job[3], f"worker died: {exc}"))
    outcomes: dict[str, list] = {v: [None] * episodes for v in variants}
    seconds = dict.fromkeys(variants, 0.0)
    for variant, outcome, share in itertools.chain.from_iterable(results):
        outcomes[variant][outcome.seed - base_seed] = outcome
        seconds[variant] += share
    return outcomes, seconds


def run_episodes(
    source,
    config: TimConfig,
    episodes: int,
    base_seed: int,
    workers: int = 1,
) -> list[EpisodeOutcome]:
    """Run episodes base_seed .. base_seed+episodes-1, in order."""
    outcomes, _ = _run_campaign(source, config, (config.variant,), episodes,
                                base_seed, workers)
    return outcomes[config.variant]


@dataclass
class EvalReport:
    variant: str
    episodes: int
    mean_accuracy: float | None
    ci95_halfwidth: float | None
    per_episode: list[EpisodeOutcome]
    config_echo: dict
    wall_time_s: float

    @property
    def failures(self) -> int:
        return sum(1 for o in self.per_episode if o.failure_flag)

    def to_json_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["per_episode"] = [{k: getattr(o, k) for k in _REPORTED}
                                  for o in self.per_episode]
        return payload

    def table(self) -> str:
        mean, ci = _cell(self.mean_accuracy), _cell(self.ci95_halfwidth)
        lines = [
            f"{'variant':<18}{'episodes':>9}{'mean_acc':>10}{'ci95':>8}{'failures':>10}",
            f"{self.variant:<18}{self.episodes:>9}{mean:>10}{ci:>8}{self.failures:>10}",
        ]
        return "\n".join(lines)


def _cell(value: float | None, spec: str = ".4f") -> str:
    """A report table's number cell: ``n/a`` when there is no value."""
    return "n/a" if value is None else format(value, spec)


def _mean_ci(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(arr))
    if arr.size < 30:
        return mean, None
    halfwidth = 1.96 * float(np.std(arr, ddof=1)) / float(np.sqrt(arr.size))
    return mean, halfwidth


def evaluate(
    source,
    config: TimConfig,
    episodes: int,
    base_seed: int,
    workers: int = 1,
) -> EvalReport:
    """Run a campaign of ``config.variant`` and report it (see :func:`_reports`)."""
    return _reports(source, config, (config.variant,), episodes, base_seed,
                    workers)[config.variant]


def _reports(source, config: TimConfig, variants: tuple[str, ...], episodes: int,
             base_seed: int, workers: int) -> dict[str, EvalReport]:
    """Runs the variants in one campaign and reports each.

    When the source produces held-out splits a report scores held-out
    accuracy (the semi-supervised protocol); otherwise query accuracy.
    Failed episodes are excluded from the mean, flagged per episode. Each
    variant's ``wall_time_s`` is its share of the campaign wall time, in
    proportion to the sum of its episodes' solve-time shares, so the
    variants' wall times sum to the campaign's."""
    start = time.perf_counter()
    outcomes, seconds = _run_campaign(source, config, variants, episodes,
                                      base_seed, workers)
    wall = time.perf_counter() - start
    total = sum(seconds.values())
    semi = getattr(source, "heldout_per_class", 0) > 0
    reports = {}
    for variant in variants:
        per_episode = outcomes[variant]
        if semi:
            per_episode = [dataclasses.replace(o, accuracy=o.heldout_accuracy)
                           for o in per_episode]
        mean, ci = _mean_ci([o.accuracy for o in per_episode
                             if not o.failure_flag and o.accuracy is not None])
        reports[variant] = EvalReport(
            variant=variant,
            episodes=episodes,
            mean_accuracy=mean,
            ci95_halfwidth=ci,
            per_episode=per_episode,
            config_echo={
                "source": source.echo(),
                "protocol": "semi_supervised" if semi else "standard",
                "episodes": episodes,
                "base_seed": base_seed,
                "tim": dataclasses.asdict(dataclasses.replace(config, variant=variant)),
            },
            wall_time_s=wall * (seconds[variant] / total if total > 0
                                else 1.0 / len(variants)),
        )
    return reports


@dataclass
class PairedStats:
    pair: str
    n: int
    mean_diff: float | None  # None when no pair of episodes succeeded
    ci95_halfwidth: float | None
    wins: int
    losses: int
    ties: int


@dataclass
class CompareReport:
    episodes: int
    reports: dict[str, EvalReport]
    paired: list[PairedStats]

    def to_json_dict(self) -> dict:
        return {
            "episodes": self.episodes,
            "variants": {k: v.to_json_dict() for k, v in self.reports.items()},
            "paired": [dataclasses.asdict(p) for p in self.paired],
        }

    def table(self) -> str:
        lines = [f"{'variant':<20}{'mean_acc':>10}{'ci95':>8}{'failures':>10}"]
        for name, rep in self.reports.items():
            mean, ci = _cell(rep.mean_accuracy), _cell(rep.ci95_halfwidth)
            lines.append(f"{name:<20}{mean:>10}{ci:>8}{rep.failures:>10}")
        lines.append("")
        lines.append(f"{'pair':<34}{'mean_diff':>10}{'ci95':>8}"
                     f"{'wins':>6}{'losses':>8}{'ties':>6}")
        for p in self.paired:
            diff, ci = _cell(p.mean_diff, "+.4f"), _cell(p.ci95_halfwidth)
            lines.append(
                f"{p.pair:<34}{diff:>10}{ci:>8}"
                f"{p.wins:>6}{p.losses:>8}{p.ties:>6}"
            )
        return "\n".join(lines)


def _paired_stats(name_a, rep_a, name_b, rep_b) -> PairedStats:
    """Accuracy differences a - b over the episodes where neither failed."""
    pairs = list(zip(rep_a.per_episode, rep_b.per_episode))
    if any(oa.seed != ob.seed for oa, ob in pairs):
        raise RuntimeError("paired comparison lost seed alignment")
    diffs = [oa.accuracy - ob.accuracy for oa, ob in pairs
             if not (oa.failure_flag or ob.failure_flag)]
    mean, ci = _mean_ci(diffs)
    wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    return PairedStats(pair=f"{name_a}-{name_b}", n=len(diffs), mean_diff=mean,
                       ci95_halfwidth=ci, wins=wins, losses=losses,
                       ties=len(diffs) - wins - losses)


def compare(
    source,
    config: TimConfig,
    episodes: int,
    base_seed: int,
    workers: int = 1,
) -> CompareReport:
    """Evaluate every variant on identical episodes (shared seeds) and
    report per-variant means plus paired differences against ft_tim.

    The variants run in one campaign that solves their shared first
    ``transform_start`` iterations once per episode, split evenly among
    them in each variant's wall time (see :func:`_reports`)."""
    reports = _reports(source, config, VARIANTS, episodes, base_seed, workers)
    paired = [_paired_stats("ft_tim", reports["ft_tim"], other, reports[other])
              for other in VARIANTS if other != "ft_tim"]
    return CompareReport(episodes=episodes, reports=reports, paired=paired)


# ---------------------------------------------------------------------------
# theory verification harness
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    passed: int
    total: int
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: {self.passed}/{self.total}{extra}"


def _brute_force_best_j(F: np.ndarray, num_classes: int) -> np.ndarray:
    """Smallest K-means objective over every labeling of the rows of F, per
    instance of a stack of (n, d) arrays along leading axes. Each labeling
    is enumerated once for the whole stack, and each instance's class sums
    run as one, the way a single instance's do."""
    best = np.full(F.shape[:-2], np.inf)
    for labels in itertools.product(range(num_classes), repeat=F.shape[-2]):
        labels = np.asarray(labels)
        j = np.zeros(F.shape[:-2])
        for c in range(num_classes):
            members = F[..., labels == c, :]
            if members.shape[-2] == 0:
                continue
            mu = members.mean(axis=-2)
            j = j + analysis._total((members - mu[..., None, :]) ** 2)
        best = np.where(j < best, j, best)
    return best


# Theory instances are checked in stacks of as many as keep the largest
# temporary, the (B, n, C, d) query-to-prototype differences, within this
# many bytes: 40 instances of the default shape. Temporaries stay
# cache-sized, and peak memory does not grow with the instance count.
_THEORY_STACK_BYTES = 1 << 18


def _instance_stacks(instances: int, first_seed: int, num_classes: int = 5,
                     queries_per_class: int = 4, dim: int = 8, **shape):
    """The seeded random instances first_seed, first_seed + 1, ... (see
    :func:`analysis.make_random_instances`) in consecutive stacks."""
    per_instance = 8 * num_classes * num_classes * queries_per_class * dim
    size = max(1, _THEORY_STACK_BYTES // per_instance)
    for start in range(0, instances, size):
        seeds = range(first_seed + start, first_seed + min(instances, start + size))
        yield analysis.make_random_instances(
            seeds, num_classes=num_classes, queries_per_class=queries_per_class,
            dim=dim, **shape)


def _query_d2(stack: analysis.RandomInstances) -> np.ndarray:
    """Squared distances from the raw transformed queries to the
    prototypes, (B, n, C)."""
    return analysis.squared_distances(stack.F, stack.theta)


# Each property's check takes a stack of instances to (oks, values), one
# verdict and one value per instance. It looks up the analysis functions
# when called, so a patched one reaches forked pool workers too.

def _decomposition_check(stack):
    """Entropy decomposition identity at tau=15: relative residual <= 1e-10
    on every instance; the detail is the worst residual."""
    r = analysis._decompose(_query_d2(stack), 15.0)[3]
    return r <= 1e-10, r


def _kkt_check(stack):
    """Closed-form soft assignments at tau=0.01 within 1e-6 of the
    projected-gradient oracle on every instance; the detail is the worst
    deviation."""
    d2 = _query_d2(stack)
    closed = analysis._check_simplex(analysis._soft_rows(d2, 0.01))
    numeric = analysis.minimize_soft_assignment_rows(d2, tau=0.01)
    dev = np.max(np.abs(closed - numeric), axis=(1, 2))
    return dev <= 1e-6, dev


def _lloyd_check(stack):
    """Single-start Lloyd from the support-derived start: a monotone trace
    that ends at the brute-force optimum, on every micro instance; the
    detail is the worst gap to that optimum."""
    theta = analysis.norm_induced_map(stack.support, stack.W)
    J = analysis._alternate(stack.query, stack.W, stack.F, theta, 50, 0, analysis._LR_W)[3]
    target = _brute_force_best_j(stack.F, 2)  # no W steps: W has not moved
    gap = np.abs(J[-1] - target)
    return analysis._rises(J, 1e-9)[0] & (gap <= 1e-9 * np.fmax(1.0, target)), gap


def _mm_check(stack):
    """Five majorize-minimize rounds at tau=1e-3 never raise the clustering
    term by more than 1e-6, on at least 99% of instances; the detail is the
    largest step-to-step rise."""
    d2 = _query_d2(stack)
    h0 = analysis._j_value(d2, analysis._soft_rows(d2, 1e-3))
    trace = analysis._mm_trace(stack.query, stack.W, stack.F, stack.theta, d2, 1e-3, 5)
    return analysis._rises(np.array([h0] + [h for h, _ in trace]), 1e-6)


def _sweep_check(stack):
    """The bound gap at the closed-form assignments (tau=1) shrinks along
    the temperature sweep on at least 95% of instances; the detail is the
    largest step-to-step rise of the gap."""
    return analysis._sweep_gaps(_query_d2(stack), analysis.TAU_SWEEP)


# name: (line title, check, share of instances that must be ok, detail
# format of the largest value, instance shape)
_PROPERTIES = {
    "decomposition": ("decomposition identity (rel residual <= 1e-10)",
                      _decomposition_check, 1.0, "worst {:.2e}", {}),
    "kkt": ("closed-form soft assignments vs projected-gradient oracle (<= 1e-6)",
            _kkt_check, 1.0, "worst {:.2e}", {}),
    # micro instances are well separated so the support-derived start lands
    # in the optimum's Lloyd basin (loose clouds have true local minima
    # unreachable by any single-start Lloyd run)
    "lloyd": ("Lloyd monotone + brute-force optimum on micro instances",
              _lloyd_check, 1.0, "worst gap {:.2e}",
              dict(num_classes=2, queries_per_class=2, dim=2, separation=3.0, stddev=0.3)),
    "mm": ("majorize-minimize descent at tau=1e-3 (>= 99% of instances)",
           _mm_check, 0.99, "largest rise {:+.2e}", {}),
    "sweep": ("gap at closed-form assignments shrinks across tau sweep (>= 95%)",
              _sweep_check, 0.95, "largest gap rise {:+.2e}", {}),
}


def _check_run(job) -> list[tuple]:
    """(value, ok) of each instance of a contiguous run of one property's
    seeds, in seed order, checked in stacks of the property's shape."""
    name, seeds = job
    _, check, _, _, shape = _PROPERTIES[name]
    pairs = []
    for stack in _instance_stacks(len(seeds), seeds.start, **shape):
        oks, values = check(stack)
        pairs += zip(np.asarray(values).tolist(), np.asarray(oks).tolist())
    return pairs


def _tally(blocks, pool: WorkerPool | None = None) -> list[PropertyResult]:
    """One result per (property name, instances, first seed) block. Each
    block's seeds are split into runs (see :meth:`WorkerPool.split`), the
    runs of every block are checked in one map, and each block's (value,
    ok) pairs are folded in seed order: the property holds when at least its
    share of them are ok, and its detail formats the largest value, taken
    with Python's ``max`` in seed order, so no result depends on the pool."""
    pool = pool or WorkerPool()
    runs = [pool.split(range(first, first + n)) for _, n, first in blocks]
    jobs = [(name, seeds) for (name, _, _), block_runs in zip(blocks, runs)
            for seeds in block_runs]
    # longest runs first, so that the pool's last jobs are short ones
    order = sorted(range(len(jobs)), key=lambda i: -len(jobs[i][1]))
    done = dict(zip(order, pool.map(_check_run, [jobs[i] for i in order])))
    results = (done[i] for i in range(len(jobs)))
    tallies = []
    for (name, n, _), block_runs in zip(blocks, runs):
        title, _, share, detail, _ = _PROPERTIES[name]
        passed, worst = 0, None
        for value, ok in itertools.chain.from_iterable([next(results) for _ in block_runs]):
            passed += ok
            worst = value if worst is None else max(worst, value)
        tallies.append(PropertyResult(title, passed, n, passed >= int(np.ceil(share * n)),
                                      detail.format(0.0 if worst is None else worst)))
    return tallies


def run_theory_suite(
    decomposition_instances: int = 1000,
    kkt_instances: int = 100,
    lloyd_instances: int = 200,
    mm_instances: int = 500,
    sweep_instances: int = 100,
    base_seed: int = 0,
    pool: WorkerPool | None = None,
) -> list[PropertyResult]:
    """Numeric verification sweeps over seeded random instances.

    Covers the entropy decomposition identity, the closed-form soft
    assignments against a projected-gradient oracle, Lloyd monotonicity plus
    a brute-force micro-instance oracle, majorize-minimize descent at small
    temperature, and gap shrinkage across a temperature sweep. Each property
    takes its seeds from its own block: base_seed, base_seed + 10000, ...,
    base_seed + 40000. Instances are generated and checked in stacks (see
    ``_THEORY_STACK_BYTES``), Lloyd's rounds, the brute-force optimum and
    the oracle's steps included, with each instance stopping on its own;
    each one's values do not depend on its stack, so ``pool`` (in process
    when None) changes only the wall time. A count of 0 gives that
    property's ``PASS ... 0/0`` line.

    The Lloyd property is a single-start check and holds only where Lloyd's
    start lies in the optimum's basin. It passes 200/200 at base seed 0, but
    199/200 at base seed 600000: on instance seed 620189 Lloyd stops at the
    true-label clustering, J = 0.2802, while the enumerated optimum is 0.2426.
    """
    return _tally([
        ("decomposition", decomposition_instances, base_seed),
        ("kkt", kkt_instances, base_seed + 10_000),
        ("lloyd", lloyd_instances, base_seed + 20_000),
        ("mm", mm_instances, base_seed + 30_000),
        ("sweep", sweep_instances, base_seed + 40_000),
    ], pool)


def _gap_run(job) -> list[list[str]]:
    """The gap CSV rows of a contiguous run of seeds without their instance
    ids: one list per instance, one row per temperature."""
    seeds, taus = job
    names = [repr(float(tau)) for tau in taus]
    rows = []
    for stack in _instance_stacks(len(seeds), seeds.start):
        H, barrier = analysis.gap_terms(_query_d2(stack), taus)
        bound = H + barrier
        for row in zip(H.T.tolist(), bound.T.tolist(), (bound - H).T.tolist()):
            rows.append([f"{t},{h!r},{b!r},{g!r}" for t, h, b, g in zip(names, *row)])
    return rows


def write_gap_trace(
    path: str | Path,
    instances: int = 100,
    taus: tuple[float, ...] = analysis.TAU_SWEEP,
    base_seed: int = 0,
    pool: WorkerPool | None = None,
) -> None:
    """Emit the per-instance, per-temperature gap table as CSV, its
    instances split into runs as a property's are (see :func:`_tally`)."""
    pool = pool or WorkerPool()
    jobs = [(seeds, taus) for seeds in pool.split(range(base_seed, base_seed + instances))]
    lines = ["instance_id,tau,H,bound,gap"]
    for i, rows in enumerate(itertools.chain.from_iterable(pool.map(_gap_run, jobs))):
        lines.extend(f"{i},{row}" for row in rows)
    _write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------

@dataclass
class ExportResult:
    paths: dict[str, str]
    separation_before: float | None
    separation_after: float | None
    accuracy: float


def export_embeddings(
    source,
    config: TimConfig,
    seed: int,
    out_dir: str | Path,
) -> ExportResult:
    """Fit one episode and dump re-loadable feature tables.

    Writes the normalized input features, the features after the fitted
    pipeline, the prototypes, and the per-query predictions (class id column
    is the predicted label, the 1-dim vector is the query row index).
    """
    episode = source.episode(seed)
    result = run_ft_tim(episode, config)
    state = result.state
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    X = np.vstack([episode.support_vectors, episode.query_vectors])
    labels = np.concatenate([episode.support_labels, episode.query_hidden_labels])
    z = _pipeline(X, state, config)
    nq = episode.num_queries
    paths = {}

    def dump(name: str, class_ids, vectors) -> None:
        p = out_dir / name
        write_feature_bank(
            FeatureBank(dim=vectors.shape[1], class_ids=class_ids, vectors=vectors), p
        )
        paths[name] = str(p)

    dump("raw_features.csv", labels, X)
    dump("transformed_features.csv", labels, z)
    dump("prototypes.csv", np.arange(episode.num_classes), state.prototypes)
    dump(
        "predicted_labels.csv",
        result.predictions,
        np.arange(nq, dtype=np.float64)[:, None],
    )
    before = class_separation_ratio(episode.query_vectors, episode.query_hidden_labels)
    after = class_separation_ratio(z[-nq:], episode.query_hidden_labels)
    accuracy = float(np.mean(result.predictions == episode.query_hidden_labels))
    return ExportResult(paths, before, after, accuracy)


def write_json(payload: dict, path: str | Path) -> None:
    """Write a report as strict JSON: a NaN or infinity raises ValueError."""
    _write_atomic(path, [(json.dumps(payload, indent=2, allow_nan=False) + "\n")
                         .encode("utf-8")])
