"""The stacked theory harness against a reference harness.

The reference is the per-instance form of the same checks: every seeded
instance is generated, and every property evaluated, on its own 2-D arrays,
one class block at a time. It performs the same floating-point operations
as ``fttim.analysis`` and ``fttim.bench``, so every ``verify-theory`` line
and every byte of the gap trace must match, not to a tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fttim.analysis as analysis
import fttim.bench as bench
from fttim.engine import _softmax_rows
from fttim.features import SyntheticTaskSpec, _synthetic_blocks, _synthetic_means
from fttim import norm_induced_map

MICRO = dict(num_classes=2, queries_per_class=2, dim=2, separation=3.0, stddev=0.3)
SWEEP = (1.0, 0.1, 0.01, 0.001)


# --- reference instances ---------------------------------------------------------

def _normalize(X):
    norms = np.linalg.norm(X, axis=1)
    assert np.all(norms > 0.0)
    return X / norms[:, None]


def _class_blocks(spec, rng):
    means = _synthetic_means(spec)
    per_class = 1 + spec.queries_per_class + spec.heldout_per_class
    return [means[c] + spec.intra_class_stddev * rng.standard_normal((per_class, spec.dim))
            for c in range(spec.num_classes)]


def _instance(seed, num_classes=5, queries_per_class=4, dim=8, separation=1.5, stddev=0.5):
    """(support, query, W, theta) of one seeded instance."""
    spec = SyntheticTaskSpec(num_classes=num_classes, dim=dim, intra_class_stddev=stddev,
                             inter_class_separation=separation,
                             relevant_dims=min(dim, num_classes),
                             queries_per_class=queries_per_class, seed=seed)
    blocks = _class_blocks(spec, np.random.default_rng(seed))
    support = _normalize(np.asarray([b[0] for b in blocks]))
    query = _normalize(np.vstack([b[1:1 + queries_per_class] for b in blocks]))
    for arr in (support, query):
        assert np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)) <= 1e-9
    rng = np.random.default_rng(seed + 1_000_003)
    W = support.T @ support
    W = W + (0.1 / np.sqrt(dim)) * rng.standard_normal((dim, dim))
    F = norm_induced_map(query, W)
    picks = rng.choice(F.shape[0], size=num_classes, replace=False)
    theta = F[picks] + 0.05 * rng.standard_normal((num_classes, dim))
    return support, query, W, theta


# --- reference math ----------------------------------------------------------------

def _d2(F, theta):
    diff = F[:, None, :] - theta[None, :, :]
    return np.sum(diff * diff, axis=2)


def _soft(d2, tau):
    return _softmax_rows(-(tau / 2.0) * d2)


def _j(d2, q):
    return float(np.sum(q * d2))


def _xlogx(q):
    return q * np.log(np.maximum(q, 1e-300))


def _barrier(q, tau):
    return (tau / 2.0) * float(np.sum(_xlogx(q)))


def _residual(d2, tau):
    logits = -(tau / 2.0) * d2
    p = _softmax_rows(logits)
    entropy = -float(np.sum(_xlogx(p)))
    m = logits.max(axis=1)
    dispersion = float(np.sum(m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))))
    # the mis-scaled twin that a tamper test installs (conftest.py) carries its scale
    scale = getattr(analysis._decompose, "clustering_scale", tau / 2.0)
    return abs(entropy - (scale * _j(d2, p) + dispersion)) / max(1.0, abs(entropy))


def _grad_w(grad_raw, X, W):
    """d J/d W of the norm-induced map from d J/d raw outputs, on 2-D arrays."""
    return grad_raw.T @ X - grad_raw.sum(axis=0)[:, None] * W


def _sweep(d2):
    gaps = [abs(_barrier(_soft(d2, t), t)) for t in SWEEP]
    tight = all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(gaps) - 1))
    return tight, max(b - a for a, b in zip(gaps, gaps[1:]))


def _hard(d2):
    rows = np.zeros_like(d2)
    rows[np.arange(d2.shape[0]), np.argmin(d2, axis=1)] = 1.0
    return rows


def _means(F, q, prev):
    mass = q.sum(axis=0)
    theta = prev.copy()
    occupied = mass > 0
    theta[occupied] = (q.T @ F)[occupied] / mass[occupied, None]
    return theta


def _mm(X, W, theta, tau, rounds, lr=0.005):
    trace = []
    for _ in range(rounds):
        F = norm_induced_map(X, W)
        q = _soft(_d2(F, theta), tau)
        theta = _means(F, q, theta)
        grad_raw = 2.0 * (norm_induced_map(X, W) - q @ theta)
        W = W - lr * _grad_w(grad_raw, X, W)
        d2 = _d2(norm_induced_map(X, W), theta)
        trace.append((_j(d2, _soft(d2, tau)), _j(d2, q) + _barrier(q, tau)))
    return trace


def _lloyd(support, X, W, max_rounds=50, tol=1e-10):
    theta = norm_induced_map(support, W)
    F = norm_induced_map(X, W)
    trace, j_round_end = [], None
    for _ in range(max_rounds):
        d2 = _d2(F, theta)
        q = _hard(d2)
        trace.append(_j(d2, q))
        theta = _means(F, q, theta)
        j_end = _j(_d2(F, theta), q)
        trace.append(j_end)
        if j_round_end is not None and j_round_end - j_end < tol:
            break
        j_round_end = j_end
    return trace


def _lloyd_w_steps(X, W, theta, w_steps, lr, max_rounds=100, tol=1e-10):
    """Lloyd rounds that each end with ``w_steps`` gradient steps on W:
    the (name, value) trace, W, prototypes and hard rows of one instance."""
    trace, j_round_end = [], None
    for _ in range(max_rounds):
        F = norm_induced_map(X, W)
        d2 = _d2(F, theta)
        q = _hard(d2)
        trace.append(("assign", _j(d2, q)))
        theta = _means(F, q, theta)
        trace.append(("means", _j(_d2(F, theta), q)))
        for _ in range(w_steps):
            grad_raw = 2.0 * (norm_induced_map(X, W) - q @ theta)
            W = W - lr * _grad_w(grad_raw, X, W)
        j_end = _j(_d2(norm_induced_map(X, W), theta), q)
        trace.append(("w_step", j_end))
        if j_round_end is not None and j_round_end - j_end < tol:
            break
        j_round_end = j_end
    return trace, W, theta, q


def _brute_force(F, num_classes):
    best = np.inf
    for labels in itertools.product(range(num_classes), repeat=F.shape[0]):
        labels = np.asarray(labels)
        j = 0.0
        for c in range(num_classes):
            members = F[labels == c]
            if members.shape[0] == 0:
                continue
            j += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, j)
    return best


def _project(V):
    n, C = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    rho = np.count_nonzero(U - css / np.arange(1, C + 1) > 0, axis=1)
    return np.maximum(V - (css[np.arange(n), rho - 1] / rho)[:, None], 0.0)


def _oracle(d2, tau, step=0.1, max_iters=50000, tol=1e-15):
    q = np.full(d2.shape, 1.0 / d2.shape[1])
    prev = np.inf
    for _ in range(max_iters):
        q = _project(q - step * ((tau / 2.0) * d2 + np.log(np.maximum(q, 1e-16)) + 1.0))
        val = (tau / 2.0) * _j(d2, q) + float(np.sum(_xlogx(q)))
        if abs(prev - val) <= tol * max(1.0, abs(val)):
            break
        prev = val
    return q


# --- reference properties ------------------------------------------------------------

def _line(name, check, instances, first_seed, share, detail):
    passed, worst = 0, None
    for i in range(instances):
        value, ok = check(first_seed + i)
        passed += ok
        worst = value if worst is None else max(worst, value)
    ok = passed >= int(np.ceil(share * instances))
    extra = detail.format(0.0 if worst is None else worst)
    return f"{'PASS' if ok else 'FAIL'}  {name}: {passed}/{instances}  ({extra})"


def _query_d2(seed, **shape):
    _, query, W, theta = _instance(seed, **shape)
    return _d2(norm_induced_map(query, W), theta)


def _decomposition_check(seed):
    r = _residual(_query_d2(seed), 15.0)
    return r, r <= 1e-10


def _kkt_check(seed):
    d2 = _query_d2(seed)
    dev = float(np.max(np.abs(_soft(d2, 0.01) - _oracle(d2, 0.01))))
    return dev, dev <= 1e-6


def _lloyd_check(seed):
    support, query, W, _ = _instance(seed, **MICRO)
    values = _lloyd(support, query, W)
    target = _brute_force(norm_induced_map(query, W), 2)
    monotone = all(values[k + 1] <= values[k] + 1e-9 for k in range(len(values) - 1))
    gap = abs(values[-1] - target)
    return gap, monotone and gap <= 1e-9 * max(1.0, target)


def _mm_check(seed):
    _, query, W, theta = _instance(seed)
    d2 = _d2(norm_induced_map(query, W), theta)
    series = [_j(d2, _soft(d2, 1e-3))] + [h for h, _ in _mm(query, W, theta, 1e-3, 5)]
    ok = all(series[k + 1] <= series[k] + 1e-6 for k in range(len(series) - 1))
    return max(b - a for a, b in zip(series, series[1:])), ok


def _sweep_check(seed):
    tight, rise = _sweep(_query_d2(seed))
    return rise, tight


def reference_lines(base_seed, decomposition=1000, kkt=100, lloyd=200, mm=500, sweep=100):
    return [
        _line("decomposition identity (rel residual <= 1e-10)", _decomposition_check,
              decomposition, base_seed, 1.0, "worst {:.2e}"),
        _line("closed-form soft assignments vs projected-gradient oracle (<= 1e-6)",
              _kkt_check, kkt, base_seed + 10_000, 1.0, "worst {:.2e}"),
        _line("Lloyd monotone + brute-force optimum on micro instances", _lloyd_check,
              lloyd, base_seed + 20_000, 1.0, "worst gap {:.2e}"),
        _line("majorize-minimize descent at tau=1e-3 (>= 99% of instances)", _mm_check,
              mm, base_seed + 30_000, 0.99, "largest rise {:+.2e}"),
        _line("gap at closed-form assignments shrinks across tau sweep (>= 95%)",
              _sweep_check, sweep, base_seed + 40_000, 0.95, "largest gap rise {:+.2e}"),
    ]


def reference_gap_trace(instances=100, taus=SWEEP, base_seed=0):
    lines = ["instance_id,tau,H,bound,gap"]
    for i in range(instances):
        d2 = _query_d2(base_seed + i)
        for tau in taus:
            q = _soft(d2, tau)
            H = _j(d2, _soft(d2, tau))
            bound = _j(d2, q) + _barrier(q, tau)
            lines.append(f"{i},{repr(float(tau))},{repr(H)},{repr(bound)},{repr(bound - H)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- tests -------------------------------------------------------------------------

@pytest.mark.parametrize("base_seed", [0, 100_000, 600_000])
def test_verify_theory_lines_equal_reference(base_seed):
    got = [r.line() for r in bench.run_theory_suite(base_seed=base_seed)]
    assert got == reference_lines(base_seed)


def test_lloyd_line_at_seed_600000_is_the_known_miss():
    # single-start Lloyd misses the enumerated optimum on instance 620189
    assert reference_lines(600_000, 0, 0, 200, 0, 0)[2].startswith(
        "FAIL  Lloyd monotone + brute-force optimum on micro instances: 199/200")


@pytest.mark.parametrize("base_seed", [0, 100_000, 600_000])
def test_gap_trace_bytes_equal_reference(tmp_path, base_seed):
    path = tmp_path / "gaps.csv"
    bench.write_gap_trace(path, base_seed=base_seed)
    assert path.read_bytes() == reference_gap_trace(base_seed=base_seed)


def test_tampered_scale_fails_like_the_reference(misscaled_decomposition):
    result = bench._tally([("decomposition", 40, 0)])[0]
    assert not result.ok
    assert result.line() == reference_lines(0, 40, 0, 0, 0, 0)[0]


def test_one_draw_equals_per_class_draws():
    for seed, heldout in ((0, 0), (5, 3)):
        spec = SyntheticTaskSpec(num_classes=5, dim=64, intra_class_stddev=0.5,
                                 inter_class_separation=3.0, relevant_dims=10,
                                 queries_per_class=15, heldout_per_class=heldout,
                                 seed=seed)
        noise = np.random.default_rng(seed).standard_normal((5, 16 + heldout, 64))
        blocks = _synthetic_blocks(spec, noise)
        expected = np.stack(_class_blocks(spec, np.random.default_rng(seed)))
        assert blocks.tobytes() == expected.tobytes()


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _traces(J, steps, names):
    """Each instance's (name, J) trace from a stacked Lloyd run's J and step counts."""
    return [list(zip(itertools.cycle(names), J[:n, b].tolist())) for b, n in enumerate(steps)]


def _stacked_lloyd(stack):
    """The Lloyd property's run on a stack: final W, prototypes, hard rows
    and the per-instance traces."""
    theta = norm_induced_map(stack.support, stack.W)
    *out, J, steps = analysis._alternate(stack.query, stack.W, stack.F, theta, 50, 0,
                                         analysis._LR_W)
    return (*out, _traces(J, steps, ("assign", "means")))


def _derived(stack, micro=False):
    """Everything the harness computes from a stack, one entry per kind;
    the brute-force optimum only on micro instances, where it is cheap."""
    d2 = analysis._d2(stack.query, stack.W, stack.theta)
    tight, rise = analysis._sweep_gaps(d2, SWEEP)
    trace = analysis._mm_trace(stack.query, stack.W, stack.F, stack.theta, d2, 1e-3, 2)
    W, theta, q, _ = _stacked_lloyd(stack)
    brute = [bench._brute_force_best_j(norm_induced_map(stack.query, W), 2)] if micro else []
    return [stack.support, stack.query, stack.W, stack.F, stack.theta, d2,
            *analysis._decompose(d2, 15.0), tight, rise,
            *(v for pair in trace for v in pair),
            analysis.minimize_soft_assignment_rows(d2, 0.01), W, theta, q, *brute]


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=9),
       micro=st.booleans())
def test_stack_equals_its_stacks_of_one(seeds, micro):
    shape = MICRO if micro else {}
    stack = analysis.make_random_instances(seeds, **shape)
    stacked = _derived(stack, micro)
    traces = _stacked_lloyd(stack)[3]
    for b, seed in enumerate(seeds):
        single = analysis.make_random_instances([seed], **shape)
        alone = _derived(single, micro)
        assert _bits(*(np.asarray(v)[b] for v in stacked)) == \
            _bits(*(np.asarray(v)[0] for v in alone))
        # repr round-trips a float exactly, so equal reprs are equal bits
        assert repr(traces[b]) == repr(_stacked_lloyd(single)[3][0])


@pytest.mark.parametrize("base_seed", [0, 100_000, 600_000])
def test_stacked_lloyd_brute_force_and_oracle_equal_reference(base_seed):
    seeds = range(base_seed + 20_000, base_seed + 20_200)
    stack = analysis.make_random_instances(seeds, **MICRO)
    W, _, _, traces = _stacked_lloyd(stack)
    targets = bench._brute_force_best_j(norm_induced_map(stack.query, W), 2)
    for b, seed in enumerate(seeds):
        support, query, W_ref, _ = _instance(seed, **MICRO)
        names, values = zip(*traces[b])
        assert names == ("assign", "means") * (len(names) // 2)
        assert repr(list(values)) == repr(_lloyd(support, query, W_ref))
        assert repr(targets[b].item()) == repr(_brute_force(norm_induced_map(query, W_ref), 2))
    seed = base_seed + 10_000
    for stack in bench._instance_stacks(100, seed):
        for rows in analysis.minimize_soft_assignment_rows(bench._query_d2(stack), tau=0.01):
            assert _bits(rows) == _bits(_oracle(_query_d2(seed), 0.01))
            seed += 1
    assert seed == base_seed + 10_100


# W-step rates at which a stack's instances stop at different rounds, from
# round 2 to the last: at the default rate none stops within 100 rounds
@pytest.mark.parametrize("w_steps,lr", [(1, 0.3), (2, 0.05)])
@pytest.mark.parametrize("base_seed", [0, 100_000, 600_000])
def test_stacked_lloyd_with_w_steps_equals_reference(base_seed, w_steps, lr):
    seeds = range(base_seed + 20_000, base_seed + 20_012)
    stack = analysis.make_random_instances(seeds)
    W, theta, q, J, steps = analysis._alternate(stack.query, stack.W, stack.F, stack.theta,
                                                100, w_steps, lr)
    traces = _traces(J, steps, ("assign", "means", "w_step"))
    assert len({len(trace) for trace in traces}) > 2
    for b, seed in enumerate(seeds):
        _, query, W_ref, theta_ref = _instance(seed)
        trace, W_ref, theta_ref, q_ref = _lloyd_w_steps(query, W_ref, theta_ref, w_steps, lr)
        # repr round-trips a float exactly, so equal reprs are equal bits
        assert repr(traces[b]) == repr(trace)
        assert _bits(W[b], theta[b], q[b]) == _bits(W_ref, theta_ref, q_ref)
        # once an instance stops, its column keeps its last J
        assert np.all(J[steps[b]:, b] == J[steps[b] - 1, b])


def test_projection_of_a_stack_equals_its_rows_and_the_reference():
    V = 3 * np.random.default_rng(21).standard_normal((7, 12, 5))
    stacked = analysis.project_simplex_rows(V)
    for b in range(len(V)):
        assert _bits(stacked[b]) == _bits(analysis.project_simplex_rows(V[b])) == \
            _bits(_project(V[b]))


def test_stack_of_one_equals_reference_instance():
    for seed in range(50):
        for shape in ({}, MICRO):
            episode, W, theta = analysis.make_random_instance(seed, **shape)
            support, query, W_ref, theta_ref = _instance(seed, **shape)
            assert _bits(episode.support_vectors, episode.query_vectors, W, theta) == \
                _bits(support, query, W_ref, theta_ref)
