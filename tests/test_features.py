"""Feature bank format, normalization, and episodic sampling tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fttim import (
    DegenerateVectorError,
    FeatureBank,
    FeatureFormatError,
    SyntheticTaskSpec,
    class_separation_ratio,
    generate_synthetic_episode,
    l2_normalize_rows,
    load_feature_bank,
    sample_episode,
    write_feature_bank,
)


def _write(tmp_path, text, name="bank.csv"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


def _random_bank(rng, num_classes=5, per_class=21, dim=8):
    ids, vecs = [], []
    for c in range(num_classes):
        for _ in range(per_class):
            ids.append(c)
            vecs.append(rng.standard_normal(dim))
    return FeatureBank(dim=dim, class_ids=np.array(ids), vectors=np.array(vecs))


# --- file format ----------------------------------------------------------

def test_header_round_trip(tmp_path):
    p = _write(tmp_path, "d=4 n=2\n0,1.0,0.0,0.0,0.0\n1,0.5,0.5,0.25,-1.5\n")
    bank = load_feature_bank(p)
    assert bank.dim == 4
    assert bank.num_records == 2
    assert bank.classes() == [0, 1]
    np.testing.assert_allclose(bank.vectors[1], [0.5, 0.5, 0.25, -1.5])


def test_short_row_names_line(tmp_path):
    p = _write(tmp_path, "d=4 n=2\n0,1.0,0.0,0.0,0.0\n1,0.5,0.5,0.25\n")
    with pytest.raises(FeatureFormatError, match="line 3"):
        load_feature_bank(p)


def test_malformed_header(tmp_path):
    p = _write(tmp_path, "dim=4 count=2\n")
    with pytest.raises(FeatureFormatError, match="line 1"):
        load_feature_bank(p)


def test_non_numeric_field(tmp_path):
    p = _write(tmp_path, "d=2 n=1\n0,1.0,abc\n")
    with pytest.raises(FeatureFormatError, match="line 2"):
        load_feature_bank(p)


def test_empty_file(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(FeatureFormatError, match="empty"):
        load_feature_bank(p)


def test_row_count_mismatch(tmp_path):
    p = _write(tmp_path, "d=2 n=3\n0,1.0,2.0\n1,3.0,4.0\n")
    with pytest.raises(FeatureFormatError, match="n=3"):
        load_feature_bank(p)


@pytest.mark.parametrize("text, line, what", [
    ("d=2 n=1\r\n 0 , 1.5 , 2.0 \r\n", 1, "malformed header"),
    ("d=2 n=2\n0,1.5,2.0\r\n1,0.5,0.5\r\n", 2, "carriage return"),
    ("d=2 n=2\n0,1.5,2.0\n1, 0.5,0.5\n", 3, "fields must not be padded"),
    ("d=2 n=2\n0,1.5,2.0\n 1,0.5,0.5\n", 3, "fields must not be padded"),
    ("d=2 n=2\n0,1.5,2.0\n1,0.5,0.5 \n", 3, "fields must not be padded"),
    ("d=2 n=1\n0,1.5,\t2.0\n", 2, "fields must not be padded"),
    ("d=2 n=1\n0,1_5,2.0\n", 2, "underscore"),
    ("d=2 n=2\n0,1.5,2.0\n1_0,0.5,0.5\n", 3, "underscore"),
    ("d=2 n=1\n0,1.5,\u00a02.0\n", 2, "non-ASCII"),
    ("d=2 n=1\n0,1.5,\u0662.0\n", 2, "non-ASCII"),
])
def test_padding_line_endings_and_underscores_rejected(tmp_path, text, line, what):
    # int() and float() would accept every one of these fields
    p = _write(tmp_path, text)
    with pytest.raises(FeatureFormatError, match=f"line {line}: .*{what}"):
        load_feature_bank(p)


def test_large_finite_values_load(tmp_path):
    # the row sum overflows, but every value is finite
    p = _write(tmp_path, "d=2 n=2\n0,1e308,1e308\n1,-1.5,inf\n")
    with pytest.raises(FeatureFormatError, match="line 3: non-finite"):
        load_feature_bank(p)
    p = _write(tmp_path, "d=2 n=1\n0,1e308,1e308\n")
    assert load_feature_bank(p).vectors.tolist() == [[1e308, 1e308]]


def test_write_load_write_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    for k in range(5):
        bank = _random_bank(rng, num_classes=3, per_class=4, dim=5)
        p1 = tmp_path / f"a{k}.csv"
        p2 = tmp_path / f"b{k}.csv"
        write_feature_bank(bank, p1)
        write_feature_bank(load_feature_bank(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


# --- normalization --------------------------------------------------------

def test_l2_normalize_345_triangle():
    np.testing.assert_allclose(l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])


def test_l2_normalize_unit_vector_fixed_point():
    v = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(l2_normalize_rows(v), v)


def test_l2_normalize_zero_raises():
    with pytest.raises(DegenerateVectorError):
        l2_normalize_rows(np.zeros((1, 4)))


@pytest.mark.parametrize("rows,reason", [
    ([[1.0, 0.0], [0.0, 0.0]], "row 1 has zero norm"),
    ([[1.0, 0.0], [np.nan, 1.0]], "row 1 has a non-finite entry"),
    ([[np.inf, 0.0]], "row 0 has a non-finite entry"),
    ([[1e200, 1e200]], "row 0 has a norm that overflows or underflows float64"),
    ([[1e-170, 0.0]], "row 0 has a norm that overflows or underflows float64"),
])
def test_l2_normalize_names_the_row_and_its_reason(rows, reason):
    with pytest.raises(DegenerateVectorError) as exc:
        l2_normalize_rows(np.array(rows))
    assert str(exc.value) == reason


def test_l2_normalize_norm_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = rng.standard_normal((1, 6)) * rng.uniform(0.01, 100)
        assert abs(np.linalg.norm(l2_normalize_rows(v)) - 1.0) <= 1e-12


# --- bank sampling --------------------------------------------------------

def test_sample_episode_counts():
    bank = _random_bank(np.random.default_rng(0), num_classes=5, per_class=21)
    ep = sample_episode(bank, num_classes=5, queries_per_class=15,
                        heldout_per_class=5, seed=1)
    assert ep.support_vectors.shape[0] == 5
    assert ep.query_vectors.shape[0] == 75
    assert ep.heldout_vectors.shape[0] == 25


def test_sample_episode_deterministic():
    bank = _random_bank(np.random.default_rng(2))
    a = sample_episode(bank, 5, 3, 2, seed=42)
    b = sample_episode(bank, 5, 3, 2, seed=42)
    assert a.support_vectors.tobytes() == b.support_vectors.tobytes()
    assert a.query_vectors.tobytes() == b.query_vectors.tobytes()
    assert a.heldout_vectors.tobytes() == b.heldout_vectors.tobytes()
    assert np.array_equal(a.query_hidden_labels, b.query_hidden_labels)


def test_sample_episode_without_replacement():
    # vectors are almost surely unique, so row identity reveals record reuse
    bank = _random_bank(np.random.default_rng(3), num_classes=6, per_class=8)
    for seed in range(100):
        ep = sample_episode(bank, 4, 3, 2, seed=seed)
        rows = [r.tobytes() for r in ep.support_vectors]
        rows += [r.tobytes() for r in ep.query_vectors]
        rows += [r.tobytes() for r in ep.heldout_vectors]
        assert len(rows) == len(set(rows))


def test_sample_episode_class_remap_ascending():
    rng = np.random.default_rng(4)
    ids = np.repeat([17, 3, 99, 42], 4)
    vecs = rng.standard_normal((16, 3))
    # make class identity readable from the first coordinate
    for k, cid in enumerate(ids):
        vecs[k, 0] = cid
    bank = FeatureBank(dim=3, class_ids=ids, vectors=vecs)
    ep = sample_episode(bank, 4, 2, 0, seed=0)
    # label c must map to the c-th smallest original class id: 3 < 17 < 42 < 99
    sorted_ids = [3, 17, 42, 99]
    for lab in range(4):
        raw_rows = bank.vectors[bank.class_index[sorted_ids[lab]]]
        normed = raw_rows / np.linalg.norm(raw_rows, axis=1)[:, None]
        sup = ep.support_vectors[ep.support_labels == lab][0]
        assert any(np.allclose(sup, r) for r in normed)


def test_sample_episode_insufficient_records():
    bank = _random_bank(np.random.default_rng(5), num_classes=5, per_class=3)
    with pytest.raises(ValueError, match="classes"):
        sample_episode(bank, 5, 15, 5, seed=0)


def test_sampled_vectors_unit_norm():
    bank = _random_bank(np.random.default_rng(6))
    ep = sample_episode(bank, 5, 4, 1, seed=9)
    for arr in (ep.support_vectors, ep.query_vectors, ep.heldout_vectors):
        np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-9)


# --- synthetic generator --------------------------------------------------

def _nearest_prototype_accuracy(ep):
    d = np.linalg.norm(
        ep.query_vectors[:, None, :] - ep.support_vectors[None, :, :], axis=2
    )
    return float(np.mean(np.argmin(d, axis=1) == ep.query_hidden_labels))


def test_synthetic_zero_separation_is_chance_level():
    accs = []
    for seed in range(200):
        spec = SyntheticTaskSpec(num_classes=5, dim=16, intra_class_stddev=0.5,
                                 inter_class_separation=0.0, relevant_dims=5,
                                 queries_per_class=8, seed=seed)
        accs.append(_nearest_prototype_accuracy(generate_synthetic_episode(spec)))
    assert abs(np.mean(accs) - 0.2) < 0.05


def test_synthetic_large_separation_is_separable():
    accs = []
    for seed in range(200):
        spec = SyntheticTaskSpec(num_classes=5, dim=16, intra_class_stddev=0.05,
                                 inter_class_separation=4.0, relevant_dims=5,
                                 queries_per_class=8, seed=seed)
        accs.append(_nearest_prototype_accuracy(generate_synthetic_episode(spec)))
    assert np.mean(accs) > 0.95


def test_synthetic_reproducible_bit_identical():
    spec = SyntheticTaskSpec(num_classes=4, dim=10, intra_class_stddev=0.3,
                             inter_class_separation=2.0, relevant_dims=4,
                             queries_per_class=6, heldout_per_class=2, seed=123)
    a = generate_synthetic_episode(spec)
    b = generate_synthetic_episode(spec)
    assert a.support_vectors.tobytes() == b.support_vectors.tobytes()
    assert a.query_vectors.tobytes() == b.query_vectors.tobytes()
    assert a.heldout_vectors.tobytes() == b.heldout_vectors.tobytes()


def test_synthetic_relevant_dims_exceeds_dim():
    with pytest.raises(ValueError, match="relevant_dims"):
        SyntheticTaskSpec(num_classes=3, dim=4, intra_class_stddev=0.3,
                          inter_class_separation=1.0, relevant_dims=5,
                          queries_per_class=2, seed=0)


def test_synthetic_mean_separation_is_exact():
    from fttim.features import _synthetic_means
    spec = SyntheticTaskSpec(num_classes=5, dim=12, intra_class_stddev=0.1,
                             inter_class_separation=3.0, relevant_dims=8,
                             queries_per_class=2, seed=0)
    means = _synthetic_means(spec)
    for a in range(5):
        for b in range(a + 1, 5):
            assert np.isclose(np.linalg.norm(means[a] - means[b]), 3.0)
    assert np.all(means[:, 8:] == 0.0)


def test_class_separation_ratio_hand_case():
    # two tight pairs far apart: inter distance 10-ish, intra 1
    vecs = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    ratio = class_separation_ratio(vecs, labels)
    assert ratio == pytest.approx((9 + 10 + 10 + 11) / 4.0 / 1.0)


def test_class_separation_ratio_is_none_when_undefined():
    vecs = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert class_separation_ratio(vecs, np.array([0, 0, 1, 1])) is None  # intra all zero
    assert class_separation_ratio(vecs[1:3], np.array([0, 1])) is None  # no same-class pair


# --- property tests of the loader ----------------------------------------------

@st.composite
def _banks(draw):
    dim, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * dim, max_size=n * dim))
    return FeatureBank(dim=dim, class_ids=np.array(ids, dtype=np.int64),
                       vectors=np.array(values, dtype=np.float64).reshape(n, dim))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bank=_banks())
def test_loader_round_trip_property(bank):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_feature_bank(bank, path)
        loaded = load_feature_bank(path)
        assert loaded.dim == bank.dim
        assert loaded.class_ids.tobytes() == bank.class_ids.tobytes()
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()
        write_feature_bank(loaded, again)
        assert again.read_bytes() == path.read_bytes()


# (corruption of one record, the error it must raise)
_CORRUPTIONS = [
    (lambda line: line.replace(",", ", ", 1), "whitespace in a record"),
    (lambda line: line + "\r", "carriage return"),
    (lambda line: line + ",1.0", "fields, got"),
    (lambda line: "x" + line, "is not an integer"),
    (lambda line: line.rsplit(",", 1)[0] + ",nan", "non-finite feature value"),
    (lambda line: line.rsplit(",", 1)[0] + ",1e5x", "non-numeric feature field"),
    (lambda line: line.replace(",", ",\u00e9", 1), "non-ASCII character"),
    (lambda line: line.replace(",", ",1_", 1), "underscore in a record"),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bank=_banks(), pick=st.integers(0, 10**6),
       corruption=st.sampled_from(_CORRUPTIONS))
def test_loader_rejects_a_corrupt_record_at_its_line(bank, pick, corruption):
    corrupt, why = corruption
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bank.csv"
        write_feature_bank(bank, path)
        lines = path.read_bytes().decode("utf-8").split("\n")
        row = 1 + pick % bank.num_records  # lines[0] is the header
        lines[row] = corrupt(lines[row])
        path.write_bytes("\n".join(lines).encode("utf-8"))
        with pytest.raises(FeatureFormatError, match=f": line {row + 1}: .*{why}"):
            load_feature_bank(path)
