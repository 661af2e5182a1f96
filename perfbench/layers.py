"""Per-layer probes: timed calls into the public functions of each fttim
module, at the shapes of the workload being traced. Every probe runs inside
a span named after the layer it measures, so the traced run's self time per
layer includes it."""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from checks import check_solver_result, norm_induced_direct

THEORY_PROPERTIES = ("decomposition", "kkt", "lloyd", "mm", "sweep")


def per_call(fn, repeat: int = 5, batch_s: float = 0.002) -> float:
    """Median seconds per call over ``repeat`` batches of at least ``batch_s``."""
    fn()
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= batch_s or n >= 4096:
            break
        n *= 4
    samples = [elapsed / n]
    for _ in range(repeat - 1):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples)


def features_probes(fttim, tracer, bank_path, task, synthetic_spec) -> dict:
    """``task`` is (ways, queries); the bank is this run's bank file."""
    out = {}
    with tracer.span("features.load_feature_bank", "peak"):
        tracemalloc.start()
        try:
            bank = fttim.load_feature_bank(bank_path)
            out["features.load_feature_bank.peak_MB"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    ways, queries = task
    seeds = iter(range(10**6))
    with tracer.span("features.sample_episode"):
        out["features.sample_episode.ms"] = 1e3 * per_call(
            lambda: fttim.sample_episode(bank, ways, queries, 0, next(seeds)))
    with tracer.span("features.generate_synthetic_episode"):
        out["features.generate_synthetic_episode.ms"] = 1e3 * per_call(
            lambda: fttim.generate_synthetic_episode(synthetic_spec))
    return out


def engine_probes(fttim, tracer, episodes, report_accuracy, tim, errors) -> dict:
    """Runs every variant on each sampled (seed, episode), checks the results
    against the benchmark's own formulas and the campaign report, and times
    the solver's public functions at the transform-active final state.

    ``report_accuracy(variant, seed)`` is the campaign report's accuracy, or
    None when the report did not run that variant."""
    from fttim.engine import VARIANTS

    run_ms = {v: [] for v in VARIANTS}
    stamps: list[float] = []
    fitted = None
    for seed, episode in episodes:
        results = {}
        for variant in VARIANTS:
            config = fttim.TimConfig(variant=variant, **tim)
            hook = None
            if variant == "ft_tim" and not stamps:
                hook = lambda it, p_q, terms: stamps.append(time.perf_counter())
            with tracer.span("engine.run_ft_tim", variant):
                start = time.perf_counter()
                results[variant] = fttim.run_ft_tim(episode, config, on_iteration=hook)
                run_ms[variant].append(1e3 * (time.perf_counter() - start))
            acc = check_solver_result(episode, results[variant], config, errors)
            expected = report_accuracy(variant, seed)
            if expected is not None and acc != expected:
                errors.append(f"{variant} seed {seed}: accuracy {acc} != report {expected}")
        start_it = fttim.TimConfig(**tim).transform_start
        a = results["ft_tim"].state.loss_trace[:start_it]
        b = results["tim_baseline"].state.loss_trace[:start_it]
        if a != b:
            errors.append(f"seed {seed}: ft_tim and tim_baseline traces differ before transform_start")
        fitted = fitted or (episode, results["ft_tim"].state)

    out = {f"engine.run_ft_tim.{v}.ms": statistics.median(ms) for v, ms in run_ms.items()}
    # stamp k is taken inside iteration k, so stamps[k+1] - stamps[k] is one
    # iteration's worth; the one that crosses transform_start is dropped
    steps = np.diff(stamps)
    out["engine.iteration.pre_transform.us"] = 1e6 * float(np.median(steps[:start_it - 1]))
    out["engine.iteration.transform.us"] = 1e6 * float(np.median(steps[start_it:]))

    episode, state = fitted
    config = fttim.TimConfig(**tim)
    X = np.vstack([episode.support_vectors, episode.query_vectors])
    with tracer.span("transform.norm_induced_map"):
        out["transform.norm_induced_map.us"] = 1e6 * per_call(
            lambda: fttim.norm_induced_map(X, state.W))
    raw = norm_induced_direct(X, state.W)
    z = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    with tracer.span("engine.tim_loss"):
        out["engine.tim_loss.us"] = 1e6 * per_call(lambda: fttim.tim_loss(episode, state, config))
    with tracer.span("engine.tim_gradients"):
        out["engine.tim_gradients.us"] = 1e6 * per_call(
            lambda: fttim.tim_gradients(episode, state, config))
    with tracer.span("engine.posteriors"):
        out["engine.posteriors.us"] = 1e6 * per_call(
            lambda: fttim.posteriors(z, state.prototypes, config.tau))
    return out


def theory_probes(fttim, tracer, counts: dict, gap_instances: int, gap_path, errors) -> dict:
    """Each property of the theory suite alone, at the given instance counts,
    and the gap trace."""
    out = {}
    for prop in THEORY_PROPERTIES:
        only = {f"{p}_instances": (counts[p] if p == prop else 0) for p in THEORY_PROPERTIES}
        with tracer.span("bench.run_theory_suite", prop):
            start = time.perf_counter()
            results = fttim.run_theory_suite(**only)
            out[f"bench.theory.{prop}.s"] = time.perf_counter() - start
        if not all(r.ok for r in results):
            errors.append(f"theory property {prop} failed in isolation")
    with tracer.span("bench.write_gap_trace"):
        start = time.perf_counter()
        fttim.bench.write_gap_trace(gap_path, instances=gap_instances)
        out["bench.write_gap_trace.s"] = time.perf_counter() - start
    return out


def analysis_probes(analysis, tracer, rng) -> dict:
    """The analysis functions the theory suite spends its time in, on
    instances drawn from the suite's own seed ranges."""
    def pick(offset: int) -> int:
        return offset + int(rng.integers(100))

    episode, W, theta = analysis.make_random_instance(pick(0))
    kkt_episode, kkt_W, kkt_theta = analysis.make_random_instance(pick(10_000))
    d2 = analysis.squared_distances(
        analysis.transformed_query_features(kkt_episode, kkt_W), kkt_theta)
    micro, micro_W, _ = analysis.make_random_instance(
        pick(20_000), num_classes=2, queries_per_class=2, dim=2, separation=3.0, stddev=0.3)
    q = analysis.kkt_soft_assignments(episode, W, theta, tau=1.0)
    seed = pick(0)
    calls = {
        "analysis.make_random_instance.us": (1e6, lambda: analysis.make_random_instance(seed)),
        "analysis.minimize_soft_assignment_rows.ms": (
            1e3, lambda: analysis.minimize_soft_assignment_rows(d2, tau=0.01)),
        "analysis.decomposition_residual.us": (
            1e6, lambda: analysis.decomposition_residual(episode, W, theta, tau=15.0)),
        "analysis.alternate_kmeans.us": (1e6, lambda: analysis.alternate_kmeans(
            micro, max_rounds=50, w_steps_per_round=0, init_W=micro_W)),
        "analysis.mm_iteration.us": (
            1e6, lambda: analysis.mm_iteration(episode, W, theta, tau=1e-3, rounds=5)),
        "analysis.bound_check.us": (
            1e6, lambda: analysis.bound_check(episode, W, theta, tau=1.0, assignments=q)),
    }
    out = {}
    for name, (scale, fn) in calls.items():
        with tracer.span(name.rsplit(".", 1)[0]):
            out[name] = scale * per_call(fn)
    return out
