"""The episode-batched solver: stacks of episodes against single runs, failure
isolation inside a stack, compare's shared pre-transform prefix, near-zero
transformed norms, and reports across worker counts."""

import dataclasses
import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fttim.bench as bench
import fttim.engine as engine
from fttim import (
    DegenerateVectorError,
    Episode,
    EpisodeFailure,
    SolverState,
    TimConfig,
    run_ft_tim,
    tim_gradients,
    tim_loss,
)
from fttim.bench import SyntheticSource
from fttim.cli import main
from fttim.engine import UPDATE_RULES, VARIANTS, Batch, _non_finite, _normalized, stack_limit
from test_reference_solver import _assert_same_run, reference_run

SMALL = SyntheticSource(dim=16, relevant_dims=6, queries_per_class=4)
QUICK = TimConfig(iterations=40, transform_start=15)


def _arrays(result):
    s = result.state
    return (result.predictions, s.W, s.prototypes, s.posteriors, s.marginal)


def _assert_same(got, want):
    """Same result or same failure, bit for bit."""
    if isinstance(want, EpisodeFailure):
        assert isinstance(got, EpisodeFailure)
        assert (got.iteration, str(got)) == (want.iteration, str(want))
        return
    assert got.trace == want.trace and got.state.iter == want.state.iter
    for a, b in zip(_arrays(got), _arrays(want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _single(episode, config):
    try:
        return run_ft_tim(episode, config)
    except EpisodeFailure as exc:
        return exc


def _solve(episodes, config):
    batch = Batch(episodes, config).start()
    batch.run(config.iterations)
    return batch.finish()


def _zero_query_episode(seed: int, source=SMALL) -> Episode:
    """A source episode reshaped so that the linear map sends its last query
    to the zero vector: no support vector has a last coordinate, and that
    query is the last unit vector."""
    e = source.episode(seed)
    support = e.support_vectors.copy()
    support[:, -1] = 0.0
    support /= np.linalg.norm(support, axis=1, keepdims=True)
    queries = e.query_vectors.copy()
    queries[-1] = 0.0
    queries[-1, -1] = 1.0
    return dataclasses.replace(e, support_vectors=support, query_vectors=queries)


# --- stacks against single runs ------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_stack_matches_single_runs_bitwise(variant):
    episodes = [SyntheticSource().episode(s) for s in range(5)]
    config = dataclasses.replace(QUICK, variant=variant)
    for got, episode in zip(_solve(episodes, config), episodes):
        _assert_same(got, run_ft_tim(episode, config))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 5),
    first_seed=st.integers(0, 10_000),
    variant=st.sampled_from(VARIANTS),
    update_rule=st.sampled_from(UPDATE_RULES),
    dim=st.sampled_from([3, 8, 16]),
    log_lr_w=st.floats(-3.0, 300.0),
)
def test_stack_outcomes_equal_single_outcomes(size, first_seed, variant, update_rule,
                                              dim, log_lr_w):
    source = SyntheticSource(dim=dim, relevant_dims=min(dim, 4), queries_per_class=3)
    episodes = [source.episode(first_seed + k) for k in range(size)]
    config = TimConfig(iterations=12, transform_start=4, variant=variant,
                       update_rule=update_rule, lr_w=10.0**log_lr_w)
    for got, episode in zip(_solve(episodes, config), episodes):
        _assert_same(got, _single(episode, config))


def test_failed_episode_leaves_the_stack_with_its_own_iteration():
    episodes = [SMALL.episode(s) for s in range(4)]
    episodes[2] = _zero_query_episode(2)
    config = dataclasses.replace(QUICK, variant="linear_transform")
    results = _solve(episodes, config)
    assert isinstance(results[2], EpisodeFailure)
    assert results[2].iteration == config.transform_start
    assert str(results[2]) == (f"iteration {config.transform_start}: transformed "
                               f"feature {SMALL.num_classes + len(episodes[2].query_vectors) - 1} "
                               "is the zero vector")
    for got, episode in zip(results, episodes):
        _assert_same(got, _single(episode, config))
    assert sum(isinstance(r, EpisodeFailure) for r in results) == 1


def _record_variant_runs(monkeypatch) -> list[dict]:
    """Records each stack that runs to its last iteration, as every variant
    of ``bench._solve_stack`` does: the stack, its trace bytes as the run
    starts, and the results that its ``finish`` returns."""
    runs, run, finish = [], Batch.run, Batch.finish

    def recording_run(self, stop, on_iteration=None):
        if stop == self.config.iterations:
            runs.append({"batch": self, "trace": self.trace.tobytes()})
        run(self, stop, on_iteration)

    def recording_finish(self):
        results = finish(self)
        next(r for r in runs if r["batch"] is self)["results"] = results
        return results

    monkeypatch.setattr(Batch, "run", recording_run)
    monkeypatch.setattr(Batch, "finish", recording_finish)
    return runs


def test_shared_prefix_forks_equal_separate_runs(monkeypatch):
    episodes = [SMALL.episode(s) for s in range(3)] + [_zero_query_episode(3)]
    with monkeypatch.context() as m:
        runs = _record_variant_runs(m)
        bench._solve_stack(list(enumerate(episodes)), QUICK, VARIANTS)
    assert [r["batch"].config.variant for r in runs] == list(VARIANTS)
    for r in runs:
        for got, episode in zip(r["results"], episodes):
            _assert_same(got, _single(episode, r["batch"].config))


def test_running_one_fork_leaves_the_other_forks_trace_as_it_was(monkeypatch):
    runs = _record_variant_runs(monkeypatch)
    bench._solve_stack([(s, SMALL.episode(s)) for s in range(3)], QUICK, VARIANTS)
    # every variant starts from the prefix's trace, whichever variants ran before it
    assert len(runs) == len(VARIANTS) and len({r["trace"] for r in runs}) == 1
    prefix = np.s_[:, :QUICK.transform_start]
    first = runs[0]["batch"].trace[prefix].tobytes()
    assert all(r["batch"].trace[prefix].tobytes() == first for r in runs)


def test_variant_stacks_share_no_array(monkeypatch):
    runs = _record_variant_runs(monkeypatch)
    bench._solve_stack([(s, SMALL.episode(s)) for s in range(3)], QUICK, VARIANTS)
    stacks = [r["batch"] for r in runs]
    assert len(stacks) == len(VARIANTS)
    for a, b in itertools.combinations(stacks, 2):
        for name, other in itertools.product(Batch._STACKED, repeat=2):
            x, y = getattr(a, name), getattr(b, other)
            if x is not None and y is not None:
                assert not np.shares_memory(x, y), (a.config.variant, name,
                                                    b.config.variant, other)


def test_run_past_the_configured_iterations_raises():
    batch = Batch([SMALL.episode(0)], QUICK).start()
    with pytest.raises(ValueError, match=r"^stop 41 is past config.iterations \(40\)$"):
        batch.run(QUICK.iterations + 1)
    assert batch.it == 0


def test_compare_outcomes_equal_separate_run_ft_tim():
    report = bench.compare(SMALL, QUICK, episodes=5, base_seed=40, workers=1)
    for variant in VARIANTS:
        config = dataclasses.replace(QUICK, variant=variant)
        for entry in report.reports[variant].per_episode:
            episode = SMALL.episode(entry.seed)
            result = run_ft_tim(episode, config)
            assert entry.iterations_run == result.state.iter
            assert entry.accuracy == float(np.mean(
                result.predictions == episode.query_hidden_labels))


def test_stack_limit_follows_dimension():
    assert stack_limit(64) == 16
    assert stack_limit(128) == 4
    assert stack_limit(181) == 2
    assert stack_limit(182) == stack_limit(640) == 1


# --- the W step's row blocks ------------------------------------------------------

def _record_w_blocks(monkeypatch):
    """The row count of each block that a W step updates, in call order (the
    prototype step updates 3-D stacks, the W step 2-D blocks of rows)."""
    blocks, step = [], engine._step
    def recording(param, *args):
        if param.ndim == 2:
            blocks.append(len(param))
        step(param, *args)
    monkeypatch.setattr(engine, "_step", recording)
    return blocks


@pytest.mark.parametrize("update_rule", UPDATE_RULES)
@pytest.mark.parametrize("variant", ["ft_tim", "linear_transform"])
def test_many_block_w_step_matches_reference_bitwise(monkeypatch, variant, update_rule):
    episode = SyntheticSource(dim=640).episode(0)
    config = TimConfig(variant=variant, update_rule=update_rule, iterations=25,
                       transform_start=10)
    blocks = _record_w_blocks(monkeypatch)
    _assert_same_run(episode, config)
    assert blocks == ([51] * 12 + [28]) * 15  # 13 blocks in each of the 15 W steps


def _reference(episode, config):
    with np.errstate(all="ignore"):
        try:
            preds, W, theta, p_q, marginal, trace = reference_run(episode, config)
        except EpisodeFailure as exc:
            return exc
    state = SolverState(prototypes=theta, W=W, posteriors=p_q, marginal=marginal,
                        iter=config.iterations, loss_trace=trace)
    return engine.RunResult(preds, state, trace)


# (settings, outcome of each of seeds 11, 13 and 12, or None when it finishes)
_STRADDLE_CASES = [
    ({}, [None] * 3),
    ({"update_rule": "plain_gradient"}, [None] * 3),
    ({"variant": "linear_transform"}, [None] * 3),
    ({"variant": "linear_transform", "update_rule": "plain_gradient"}, [None] * 3),
    ({"lr_w": 1e300}, ["iteration 16: non-finite loss"] * 3),
    ({"variant": "linear_transform", "lr_w": 1e300}, [None] * 3),
    ({"tau": 1e100, "update_rule": "plain_gradient"},
     [None, "iteration 16: non-finite transform gradient", None]),
]


@pytest.mark.parametrize("settings,outcomes", _STRADDLE_CASES)
def test_blocks_that_straddle_episodes_match_single_runs_and_reference(
        monkeypatch, settings, outcomes):
    monkeypatch.setattr(engine, "_STACK_BYTES", 5 * 16 * 16)  # blocks of 5 rows at d = 16
    episodes = [SMALL.episode(s) for s in (11, 13, 12)]
    config = dataclasses.replace(QUICK, **settings)
    blocks = _record_w_blocks(monkeypatch)
    batch = Batch(episodes, config).start()
    batch.run(config.iterations)
    assert blocks[:10] == [5] * 9 + [3]  # the first W step cuts the 3 x 16 rows so
    results = batch.finish()
    assert [str(r) if isinstance(r, EpisodeFailure) else None for r in results] == outcomes
    for got, episode in zip(results, episodes):
        _assert_same(got, _single(episode, config))
        _assert_same(got, _reference(episode, config))


@pytest.mark.parametrize("case,flagged", [
    ("finite", [False, False, False]),
    ("row sum overflows", [False, False, False]),
    ("total overflows", [False, False, False]),
    ("nan", [False, True, False]),
    ("inf", [False, True, False]),
    ("inf pair in a row", [False, True, False]),
    ("nan beside an overflow", [False, False, True]),
])
def test_row_sum_finiteness_decision_matches_isfinite(case, flagged):
    g = np.random.default_rng(0).standard_normal((3, 4, 4))
    if case == "row sum overflows":
        g[1, 2, :2] = 1e308
    elif case == "total overflows":
        g[:, :, 0] = 1e308
    elif case == "nan":
        g[1, 3, 0] = np.nan
    elif case == "inf":
        g[1, 0, 3] = -np.inf
    elif case == "inf pair in a row":
        g[1, 2, 1], g[1, 2, 3] = np.inf, -np.inf
    elif case == "nan beside an overflow":
        g[0, 1, 1:3] = 1e308
        g[2, 3, 3] = np.nan
    # a row's or the whole stack's sum that overflows must not flag finite entries
    with np.errstate(all="ignore"):
        bad = _non_finite(g)
    want = ~np.isfinite(g).all(axis=(1, 2))
    assert want.tolist() == flagged
    assert (bad is None) == (not want.any())
    if bad is not None:
        assert bad.tolist() == want.tolist()


# --- near-zero transformed norms ---------------------------------------------------

def _tiny_w_state():
    episode = SyntheticSource().episode(3)
    config = TimConfig(variant="linear_transform", transform_start=0)
    d = episode.dim
    state = SolverState(prototypes=np.eye(episode.num_classes, d), W=1e-120 * np.eye(d),
                        posteriors=None, marginal=None, iter=0)
    return episode, state, config


def test_near_zero_norm_is_degenerate_in_loss_and_gradients():
    episode, state, config = _tiny_w_state()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateVectorError,
                           match=r"^transformed feature 0 has norm 1e-120, too small"):
            tim_loss(episode, state, config)
        with pytest.raises(DegenerateVectorError, match=r"^transformed feature 0 has norm"):
            tim_gradients(episode, state, config)


def test_norm_whose_cube_underflows_is_degenerate_and_larger_is_not():
    X = np.eye(3)
    for scale, bad in ((1e-103, True), (3e-103, False), (0.0, True)):
        W = np.diag([1.0, 1.0, scale])
        z, _, _, failed, reasons = _normalized(X, W, "linear_transform")
        if bad:
            assert failed and len(z) == 0
            assert len(reasons) == 1 and reasons[0].startswith("transformed feature 2")
        else:
            assert failed is None and reasons == []
            assert np.all(np.isfinite(z))
    _, _, _, _, reasons = _normalized(X, np.diag([1.0, 1.0, 0.0]), "linear_transform")
    assert reasons == ["transformed feature 2 is the zero vector"]
    # in a stack, only the failed episode's rows leave, with its own reason
    W = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-103]), 2 * np.eye(3)])
    z, raw, norms, failed, reasons = _normalized(np.stack([X] * 3), W, "linear_transform")
    assert failed.tolist() == [False, True, False] and z.shape == (2, 3, 3)
    assert reasons == ["transformed feature 2 has norm 1e-103, too small to normalize"]


def test_near_zero_norm_fails_the_episode_at_iteration_zero():
    eye = np.eye(6)
    query = eye[5] + 1e-120 * eye[0]  # unit norm; the linear map keeps only 1e-120 of it
    episode = Episode(
        num_classes=5, dim=6, support_labels=np.arange(5), support_vectors=eye[:5],
        query_vectors=np.vstack([eye[:5], query]),
        query_hidden_labels=np.array([0, 1, 2, 3, 4, 0]),
    )
    config = TimConfig(variant="linear_transform", transform_start=0, iterations=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EpisodeFailure) as exc:
            run_ft_tim(episode, config)
    assert exc.value.iteration == 0
    assert str(exc.value) == ("iteration 0: transformed feature 10 has norm 1e-120, "
                              "too small to normalize")


# --- extreme settings -----------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    tau=st.floats(1e-4, 1e5),
    lr_theta=st.sampled_from([1e-12, 1e-4, 1.0, 1e6, 1e300]),
    lr_w=st.sampled_from([1e-12, 0.01, 1.0, 1e6, 1e300]),
    variant=st.sampled_from(VARIANTS),
    update_rule=st.sampled_from(UPDATE_RULES),
    seed=st.integers(0, 1000),
)
def test_extreme_settings_end_flagged_or_finite(tau, lr_theta, lr_w, variant,
                                                update_rule, seed):
    config = TimConfig(tau=tau, lr_theta=lr_theta, lr_w=lr_w, variant=variant,
                       update_rule=update_rule, iterations=15, transform_start=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _single(SMALL.episode(seed), config)
    if isinstance(outcome, EpisodeFailure):
        assert 0 <= outcome.iteration <= config.iterations
        assert re.fullmatch(r"iteration \d+: (non-finite (loss|prototype gradient|"
                            r"transform gradient)|transformed feature \d+ .+)", str(outcome))
        return
    state = outcome.state
    assert np.all(np.isfinite(outcome.trace))
    assert np.all(np.isfinite(state.W)) and np.all(np.isfinite(state.prototypes))
    assert np.all(state.posteriors >= 0.0)
    assert np.allclose(state.posteriors.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# --- reports across worker counts --------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _SourceWithZeroQuery:
    """The small synthetic source with ``heldout_per_class``, with one
    episode whose last query the linear map sends to zero."""

    bad_seed: int
    heldout_per_class: int = 0

    def episode(self, seed):
        source = dataclasses.replace(SMALL, heldout_per_class=self.heldout_per_class)
        return _zero_query_episode(seed, source) if seed == self.bad_seed \
            else source.episode(seed)

    def echo(self):
        return {"kind": "synthetic-with-zero-query", "bad_seed": self.bad_seed}


def _without_wall_time(report) -> str:
    return re.sub(r'"wall_time_s": [0-9.e+-]+', "", json.dumps(report.to_json_dict()))


@pytest.mark.parametrize("episodes", [7, 17])
def test_reports_identical_across_workers_with_a_failure_inside_a_batch(episodes):
    source = _SourceWithZeroQuery(bad_seed=100 + episodes // 2)
    config = dataclasses.replace(QUICK, variant="linear_transform")
    texts = {"evaluate": set(), "compare": set()}
    for workers in (1, 2, 3):
        evaluated = bench.evaluate(source, config, episodes, 100, workers)
        failed = [o for o in evaluated.per_episode if o.failure_flag]
        assert [o.seed for o in failed] == [source.bad_seed]
        assert failed[0].iterations_run == config.transform_start
        texts["evaluate"].add(_without_wall_time(evaluated))
        texts["compare"].add(_without_wall_time(
            bench.compare(source, QUICK, episodes, 100, workers)))
    assert len(texts["evaluate"]) == len(texts["compare"]) == 1
    outcomes = bench.run_episodes(source, config, episodes, 100, workers=3)
    (failed,) = [o for o in outcomes if o.failure_flag]
    assert failed.error.startswith(f"iteration {config.transform_start}: transformed feature")


@pytest.mark.parametrize("workers", [1, 3])
def test_evaluate_reports_a_variant_as_compare_does(workers):
    source = _SourceWithZeroQuery(bad_seed=103, heldout_per_class=2)
    compared = bench.compare(source, QUICK, 7, 100, workers)
    assert compared.reports["linear_transform"].failures == 1
    for variant in VARIANTS:
        config = dataclasses.replace(QUICK, variant=variant)
        assert _without_wall_time(bench.evaluate(source, config, 7, 100, workers)) \
            == _without_wall_time(compared.reports[variant])


def test_compare_cli_reports_identical_across_workers(tmp_path):
    texts = set()
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.json"
        code = main(["compare", "--synthetic", "--episodes", "7", "--dim", "16",
                     "--relevant-dims", "6", "--queries", "4", "--seed", "3",
                     "--tim-iterations", "40", "--tim-transform-start", "15",
                     "--workers", str(workers), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        walls = [v["wall_time_s"] for v in payload["variants"].values()]
        assert all(w > 0 for w in walls)
        texts.add(re.sub(r'"wall_time_s": [0-9.e+-]+', "", out.read_text()))
    assert len(texts) == 1
