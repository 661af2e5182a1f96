"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The variant-ordering and semi-supervised criteria share one 600-episode
paired campaign (the semi-supervised protocol scores the held-out split of
the same fitted state, which is bitwise-identical to run_semi_supervised;
see test_engine.test_semi_supervised_equals_predict_on_fitted_state).
"""

import json
import re
import time

import numpy as np
import pytest

import fttim.bench as bench
from fttim import (
    FeatureBank,
    SyntheticTaskSpec,
    TimConfig,
    generate_synthetic_episode,
    tim_gradients,
    tim_loss,
    write_feature_bank,
)
from fttim.bench import SyntheticSource, run_episodes
from fttim.cli import main
from fttim.engine import SolverState, VARIANTS


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- 1. gradient correctness -------------------------------------------------

def test_gradient_correctness():
    rtol, atol, h = 1e-4, 1e-7, 1e-5
    cfg = TimConfig(transform_start=0)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        spec = SyntheticTaskSpec(num_classes=5, dim=16, intra_class_stddev=0.5,
                                 inter_class_separation=1.5, relevant_dims=5,
                                 queries_per_class=4, seed=i)
        episode = generate_synthetic_episode(spec)
        rng = np.random.default_rng(i + 777)
        W = episode.support_vectors.T @ episode.support_vectors
        W = W + 0.1 * rng.standard_normal((16, 16))
        theta = episode.support_vectors + 0.05 * rng.standard_normal((5, 16))
        state = SolverState(prototypes=theta, W=W, posteriors=None,
                            marginal=None, iter=5)
        grad_theta, grad_w = tim_gradients(episode, state, cfg)

        def loss_at(th, Wm):
            s = SolverState(prototypes=th, W=Wm, posteriors=None,
                            marginal=None, iter=5)
            return tim_loss(episode, s, cfg).total

        for arr, grad, is_theta in ((theta, grad_theta, True),
                                    (W, grad_w, False)):
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                plus, minus = arr.copy(), arr.copy()
                plus[idx] += h
                minus[idx] -= h
                if is_theta:
                    fd = (loss_at(plus, W) - loss_at(minus, W)) / (2 * h)
                else:
                    fd = (loss_at(theta, plus) - loss_at(theta, minus)) / (2 * h)
                err = abs(grad[idx] - fd) / max(atol / rtol, abs(grad[idx]), abs(fd))
                worst = max(worst, err)
                it.iternext()
    wall = time.perf_counter() - start
    _report(
        "gradient correctness (100 instances, C=5 d=16 |Q|=20)",
        worst <= rtol and wall < 60.0,
        f"worst rel err {worst:.2e} (limit 1e-4), {wall:.1f}s (limit 60s)",
    )


# --- 2-5. theory properties ----------------------------------------------------
# The same property checks that `fttim verify-theory` runs, at these counts
# and seeds.

def _report_property(result) -> None:
    print(result.line())
    assert result.ok, result.line()


def test_decomposition_identity():
    start = time.perf_counter()
    result = bench.decomposition_property(1000, first_seed=0)
    wall = time.perf_counter() - start
    _report_property(result)
    _report("entropy decomposition identity wall time", wall < 10.0,
            f"{wall:.1f}s (limit 10s)")


def test_kkt_minimizer():
    _report_property(bench.kkt_property(100, first_seed=10_000))


def test_lloyd_brute_force_and_monotonicity():
    _report_property(bench.lloyd_property(200, first_seed=20_000))


def test_mm_descent_and_gap_sweep():
    _report_property(bench.mm_property(500, first_seed=30_000))
    _report_property(bench.sweep_property(500, first_seed=30_000))


# --- 6 & 7. paired synthetic campaign -------------------------------------------

@pytest.fixture(scope="module")
def paired_campaign():
    source = SyntheticSource(heldout_per_class=5)
    start = time.perf_counter()
    outcomes = {
        variant: run_episodes(source, TimConfig(variant=variant),
                              episodes=600, base_seed=0, workers=4)
        for variant in VARIANTS
    }
    wall = time.perf_counter() - start
    return outcomes, wall


def _paired_lower_bound(diffs: np.ndarray) -> float:
    se = np.std(diffs, ddof=1) / np.sqrt(diffs.size)
    return float(np.mean(diffs) - 1.96 * se)


def test_variant_ordering(paired_campaign):
    outcomes, wall = paired_campaign
    acc = {v: np.array([o.accuracy for o in outs])
           for v, outs in outcomes.items()}
    assert all(not o.failure_flag for outs in outcomes.values() for o in outs)
    diffs = acc["ft_tim"] - acc["tim_baseline"]
    lower = _paired_lower_bound(diffs)
    ft, base, lin = (float(np.mean(acc[v])) for v in
                     ("ft_tim", "tim_baseline", "linear_transform"))
    ok = lower > 0.0 and ft > base and ft > lin and wall < 600.0
    _report(
        "variant ordering on 600 paired standard-suite episodes",
        ok,
        f"ft {ft:.4f} vs baseline {base:.4f} vs linear {lin:.4f}; "
        f"paired-diff 95% lower bound {lower:+.4f}; campaign {wall:.0f}s "
        f"(limit 600s)",
    )


def test_semi_supervised_direction(paired_campaign):
    outcomes, _ = paired_campaign
    held = {v: np.array([o.heldout_accuracy for o in outs])
            for v, outs in outcomes.items() if v != "linear_transform"}
    diffs = held["ft_tim"] - held["tim_baseline"]
    lower = _paired_lower_bound(diffs)
    ft, base = float(np.mean(held["ft_tim"])), float(np.mean(held["tim_baseline"]))
    _report(
        "semi-supervised held-out direction on the same paired suite",
        lower >= 0.0 and ft >= base,
        f"held-out ft {ft:.4f} vs baseline {base:.4f}; "
        f"paired-diff 95% lower bound {lower:+.4f}",
    )


# --- 8. determinism across runs and worker counts --------------------------------

def test_report_determinism_across_runs_and_workers(tmp_path):
    texts = []
    for name, workers in (("r1", 1), ("r2", 1), ("r4", 4)):
        out = tmp_path / f"{name}.json"
        code = main([
            "evaluate", "--synthetic", "--episodes", "40", "--queries", "8",
            "--dim", "32", "--relevant-dims", "8", "--seed", "5",
            "--tim-iterations", "150", "--tim-transform-start", "50",
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        texts.append(re.sub(r'"wall_time_s": [0-9.e+-]+', "", out.read_text()))
    _report(
        "byte-identical reports across reruns and worker counts {1, 4}",
        texts[0] == texts[1] == texts[2],
        "JSON identical after dropping wall_time_s",
    )


# --- 9. real-feature pathway ------------------------------------------------------

def test_real_feature_pathway(tmp_path):
    rng = np.random.default_rng(99)
    ids, vecs = [], []
    for c in range(8):
        center = rng.standard_normal(32) * 1.5
        for _ in range(25):
            ids.append(c)
            vecs.append(center + 0.6 * rng.standard_normal(32))
    bank_path = tmp_path / "user_bank.csv"
    write_feature_bank(
        FeatureBank(dim=32, class_ids=np.array(ids), vectors=np.array(vecs)),
        bank_path,
    )
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--features", str(bank_path), "--episodes", "600",
        "--ways", "5", "--queries", "15", "--seed", "0", "--workers", "4",
        "--out", str(out),
    ])
    payload = json.loads(out.read_text())
    failures = sum(1 for e in payload["per_episode"] if e["failure_flag"])
    _report(
        "user feature-bank pathway: 600 episodes of 5-way/1-shot/15-query",
        code == 0 and failures == 0 and len(payload["per_episode"]) == 600,
        f"exit {code}, failures {failures}, "
        f"mean accuracy {payload['mean_accuracy']:.4f}",
    )
