"""Output checks that recompute everything from the program's own records
and from the benchmark's own numpy code, never from a stored copy of an
earlier output. Each check appends a message to ``errors`` on failure."""

from __future__ import annotations

import json
import math
import re
import statistics

import numpy as np

TOL = 1e-12


def strict_json(text: str):
    """Parse a report as strict JSON: bare NaN and Infinity are rejected."""
    def reject(constant):
        raise ValueError(f"report holds the non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def without_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": null', text)


def _close(a, b, tol=TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _mean_ci(values: list[float]):
    if not values:
        return None, None
    mean = math.fsum(values) / len(values)
    if len(values) < 30:
        return mean, None
    return mean, 1.96 * statistics.stdev(values) / math.sqrt(len(values))


def check_eval_report(rep: dict, variant: str, episodes: int, base_seed: int,
                      ways: int, queries: int, errors: list[str]) -> int:
    """Check one variant's report; returns its number of failed episodes."""
    where = f"{variant} report"
    if rep.get("variant") != variant or rep.get("episodes") != episodes:
        errors.append(f"{where}: variant/episodes header is wrong")
    per = rep["per_episode"]
    seeds = [o["seed"] for o in per]
    if seeds != list(range(base_seed, base_seed + episodes)):
        errors.append(f"{where}: per-episode seeds are not {base_seed}.. in order")
    nq = ways * queries
    accs = []
    for o in per:
        if o["failure_flag"]:
            continue
        a = o["accuracy"]
        if not (0.0 <= a <= 1.0 and abs(a * nq - round(a * nq)) <= 1e-9):
            errors.append(f"{where}: seed {o['seed']} accuracy {a!r} is not k/{nq}")
        accs.append(a)
    mean, ci = _mean_ci(accs)
    if not (_close(mean, rep["mean_accuracy"]) and _close(ci, rep["ci95_halfwidth"])):
        errors.append(f"{where}: mean/ci95 do not match the per-episode records")
    if mean is not None and mean <= 1.0 / ways:
        errors.append(f"{where}: mean accuracy {mean:.4f} is not above chance 1/{ways}")
    echo = rep["config_echo"]
    if (echo["episodes"], echo["base_seed"], echo["tim"]["variant"]) != (
            episodes, base_seed, variant):
        errors.append(f"{where}: config_echo does not reproduce the run")
    return len(per) - len(accs)


def check_compare_report(rep: dict, variants, episodes: int, base_seed: int,
                         ways: int, queries: int, errors: list[str]) -> int:
    if list(rep["variants"]) != list(variants) or rep["episodes"] != episodes:
        errors.append("compare report: variants/episodes header is wrong")
        return 0
    failed = sum(
        check_eval_report(rep["variants"][v], v, episodes, base_seed, ways,
                          queries, errors)
        for v in variants
    )
    ref = rep["variants"]["ft_tim"]["per_episode"]
    pairs = rep["paired"]
    if [p["pair"] for p in pairs] != [f"ft_tim-{v}" for v in variants if v != "ft_tim"]:
        errors.append("compare report: paired entries are wrong")
        return failed
    for p in pairs:
        other = rep["variants"][p["pair"].split("-", 1)[1]]["per_episode"]
        diffs = [a["accuracy"] - b["accuracy"] for a, b in zip(ref, other)
                 if not (a["failure_flag"] or b["failure_flag"])]
        mean, ci = _mean_ci(diffs)
        counts = (sum(d > 0 for d in diffs), sum(d < 0 for d in diffs),
                  sum(d == 0 for d in diffs))
        if (p["n"] != len(diffs) or not _close(mean, p["mean_diff"])
                or not _close(ci, p["ci95_halfwidth"])
                or (p["wins"], p["losses"], p["ties"]) != counts):
            errors.append(f"compare report: {p['pair']} does not match the records")
    return failed


THEORY_LINE = re.compile(r"^(PASS|FAIL)  (.+): (\d+)/(\d+)(  \(.*\))?$")


def parse_theory_lines(stdout: str, expected_totals: list[int],
                       errors: list[str]) -> tuple[int, int]:
    """Returns (instances checked, instances failed) from verify-theory output."""
    rows = [THEORY_LINE.match(line) for line in stdout.splitlines()]
    rows = [m for m in rows if m]
    totals = [int(m.group(4)) for m in rows]
    if totals != expected_totals:
        errors.append(f"verify-theory printed totals {totals}, expected {expected_totals}")
    for m in rows:
        if m.group(1) != "PASS":
            errors.append(f"verify-theory property failed: {m.group(2)}")
    return sum(totals), sum(int(m.group(4)) - int(m.group(3)) for m in rows)


# --- the benchmark's own numpy formulas ------------------------------------

def softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def norm_induced_direct(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Entry (i, j) is -0.5 ||x_i - w_j||^2, in the direct difference form."""
    diff = X[:, None, :] - W[None, :, :]
    return -0.5 * np.einsum("ijk,ijk->ij", diff, diff)


def sq_dist_direct(F: np.ndarray, P: np.ndarray) -> np.ndarray:
    diff = F[:, None, :] - P[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def check_gap_trace(text: str, instances: int, taus: list[float],
                    errors: list[str]) -> list[list[float]]:
    """Every row must satisfy gap == bound - H exactly (the file holds
    round-trip reprs); returns the parsed rows."""
    lines = text.split("\n")
    if lines[0] != "instance_id,tau,H,bound,gap" or lines[-1] != "":
        errors.append("gap trace: bad header or missing final newline")
        return []
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    expected = [(i, t) for i in range(instances) for t in taus]
    if [(int(r[0]), r[1]) for r in rows] != expected:
        errors.append("gap trace: rows are not instance x tau in order")
    bad = [r for r in rows if r[4] != r[3] - r[2]]
    if bad:
        errors.append(f"gap trace: {len(bad)} rows with gap != bound - H, first {bad[0]}")
    return rows


def check_theory_instances(analysis, base_seed: int, sample: list[int],
                           gap_rows: list[list[float]], taus: list[float],
                           errors: list[str]) -> None:
    """Recompute the entropy decomposition identity and sampled gap-trace
    rows with the benchmark's own formulas."""
    for i in sample:
        episode, W, theta = analysis.make_random_instance(base_seed + i)
        F = norm_induced_direct(episode.query_vectors, W)
        d2 = sq_dist_direct(F, theta)
        tau = 15.0
        logits = -(tau / 2.0) * d2
        p = softmax_rows(logits)
        entropy = -float(np.sum(p * np.log(np.maximum(p, 1e-300))))
        clustering = float(np.sum(p * d2))
        m = logits.max(axis=1)
        dispersion = float(np.sum(m + np.log(np.exp(logits - m[:, None]).sum(axis=1))))
        residual = abs(entropy - ((tau / 2.0) * clustering + dispersion))
        if residual > 1e-10 * max(1.0, abs(entropy)):
            errors.append(f"instance {i}: own decomposition residual {residual:.2e}")
        ref = analysis.entropy_decomposition(episode, W, theta, tau)
        if not (_close(clustering, ref.clustering_term, 1e-9)
                and _close(dispersion, ref.dispersion_term, 1e-9)):
            errors.append(f"instance {i}: decomposition terms differ from own formula")
        if not gap_rows:
            continue
        for k, t in enumerate(taus):
            row = gap_rows[i * len(taus) + k]
            q = softmax_rows(-(t / 2.0) * d2)
            H = float(np.sum(q * d2))
            bound = H + (t / 2.0) * float(np.sum(q * np.log(np.maximum(q, 1e-300))))
            if not (_close(H, row[2], 1e-9) and _close(bound, row[3], 1e-9)):
                errors.append(f"gap trace instance {i} tau {t}: H/bound differ from own formula")


# --- solver checks -----------------------------------------------------------

def own_posteriors(episode, result, config) -> tuple[np.ndarray, np.ndarray]:
    """(support, query) posteriors from the returned W and prototypes."""
    X = np.vstack([episode.support_vectors, episode.query_vectors])
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    state = result.state
    if config.variant == "tim_baseline" or state.iter < config.transform_start:
        z = X
    else:
        raw = X @ state.W.T if config.variant == "linear_transform" else \
            norm_induced_direct(X, state.W)
        z = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    p = softmax_rows(-(config.tau / 2.0) * sq_dist_direct(z, state.prototypes))
    ns = episode.support_vectors.shape[0]
    return p[:ns], p[ns:]


def check_solver_result(episode, result, config, errors: list[str]) -> float:
    """Predictions and the last loss-trace entry against own posteriors;
    returns the query accuracy."""
    where = config.variant
    p_s, p_q = own_posteriors(episode, result, config)
    own = np.argmax(p_q, axis=1)
    rows = np.arange(p_q.shape[0])
    # a mismatch counts only where the two posteriors are not tied to round-off
    gap = p_q[rows, own] - p_q[rows, result.predictions]
    if np.any((own != result.predictions) & (gap > 1e-9)):
        errors.append(f"{where}: predictions differ from argmax of own posteriors")
    ns, nq = p_s.shape[0], p_q.shape[0]
    labels = np.asarray(episode.support_labels)
    ce = -(config.lambda_ce / ns) * float(np.sum(np.log(np.maximum(p_s[np.arange(ns), labels], 1e-300))))
    cond = -(config.alpha_cond / nq) * float(np.sum(p_q * np.log(np.maximum(p_q, 1e-300))))
    marginal = p_q.mean(axis=0)
    marg = float(np.sum(marginal * np.log(np.maximum(marginal, 1e-300))))
    last = result.state.loss_trace[-1]
    if not all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(last, (ce, cond, marg))):
        errors.append(f"{where}: last loss-trace entry {last} != own terms {(ce, cond, marg)}")
    return float(np.mean(result.predictions == episode.query_hidden_labels))


def check_gradients(fttim, errors: list[str], rtol=1e-4, atol=1e-7, h=1e-5) -> None:
    """tim_gradients against central differences of tim_loss on one small
    instance with the transform active."""
    spec = fttim.SyntheticTaskSpec(num_classes=3, dim=6, intra_class_stddev=0.5,
                                   inter_class_separation=1.5, relevant_dims=3,
                                   queries_per_class=3, seed=11)
    episode = fttim.generate_synthetic_episode(spec)
    config = fttim.TimConfig(iterations=5, transform_start=2)
    state = fttim.run_ft_tim(episode, config).state
    g_theta, g_w = fttim.tim_gradients(episode, state, config)

    def loss(theta, W):
        s = fttim.SolverState(prototypes=theta, W=W, posteriors=None,
                              marginal=None, iter=state.iter)
        return fttim.tim_loss(episode, s, config).total

    worst = 0.0
    for arr, grad, f in ((state.prototypes, g_theta, lambda a: loss(a, state.W)),
                         (state.W, g_w, lambda a: loss(state.prototypes, a))):
        for idx in np.ndindex(arr.shape):
            plus, minus = arr.copy(), arr.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (f(plus) - f(minus)) / (2 * h)
            worst = max(worst, abs(grad[idx] - fd) / max(atol / rtol, abs(grad[idx]), abs(fd)))
    if worst > rtol:
        errors.append(f"tim_gradients vs central differences: rel error {worst:.2e}")
