"""The bulk feature-bank loader against a reference loader.

The reference is the record-by-record loader that ``load_feature_bank``
replaced: it decodes the whole file, splits it into lines and converts
every field with ``int()`` and ``float()``. On every file both must give
the same bank, bit for bit, or raise the same exception with the same
message. The reference decodes the file as UTF-8 first, so on a file that
is not UTF-8 it is run on the file with each invalid byte sequence
replaced by U+FFFD, which the loader must report at the same line.
"""

import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fttim.features import FeatureBank, FeatureFormatError, load_feature_bank, write_feature_bank

# --- the reference loader ------------------------------------------------------------

_HEADER_RE = re.compile(r"^d=(\d+) n=(\d+)$", re.ASCII)

_FORBIDDEN = {
    "\r": "carriage return (line endings must be LF)",
    "_": "underscore in a record",
    **dict.fromkeys(" \t\x0b\x0c\x1c\x1d\x1e\x1f",
                    "whitespace in a record (fields must not be padded)"),
}


def _check_record_characters(path, text):
    start = text.find("\n") + 1
    if start == 0:
        return
    hits = [(pos, why) for c, why in _FORBIDDEN.items()
            if (pos := text.find(c, start)) >= 0]
    if not text.isascii():
        pos = next((i for i in range(start, len(text)) if not text[i].isascii()), None)
        if pos is not None:
            hits.append((pos, "non-ASCII character in a record"))
    if hits:
        pos, why = min(hits)
        lineno = text.count("\n", 0, pos) + 1
        raise FeatureFormatError(f"{path}: line {lineno}: {why}")


def _reference_load(path):
    path = Path(path)
    text = path.read_bytes().decode("utf-8")
    if text == "":
        raise FeatureFormatError(f"{path}: empty file (line 1)")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise FeatureFormatError(
            f"{path}: line 1: malformed header {lines[0]!r}, expected 'd=<int> n=<int>'"
        )
    dim, n = int(header.group(1)), int(header.group(2))
    if dim < 1:
        raise FeatureFormatError(f"{path}: line 1: dimension must be positive")
    _check_record_characters(path, text)
    if len(lines) - 1 != n:
        raise FeatureFormatError(
            f"{path}: header declares n={n} rows but file has {len(lines) - 1} "
            f"(line {min(len(lines), n + 1) + 1})"
        )
    class_ids = np.empty(n, dtype=np.int64)
    vectors = np.empty((n, dim), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise FeatureFormatError(
                f"{path}: line {lineno}: expected {dim + 1} fields, got {len(parts)}"
            )
        try:
            cid = int(parts[0])
        except ValueError:
            raise FeatureFormatError(
                f"{path}: line {lineno}: class id {parts[0]!r} is not an integer"
            ) from None
        if cid < 0:
            raise FeatureFormatError(
                f"{path}: line {lineno}: class id must be non-negative"
            )
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError:
            raise FeatureFormatError(
                f"{path}: line {lineno}: non-numeric feature field"
            ) from None
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise FeatureFormatError(
                f"{path}: line {lineno}: non-finite feature value"
            )
        class_ids[i] = cid
        vectors[i] = row
    return FeatureBank(dim=dim, class_ids=class_ids, vectors=vectors)


# --- comparing the two -------------------------------------------------------------

def _outcome(load, path):
    """What a load gives: the bank's bits, or the exception's type and text."""
    try:
        bank = load(path)
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)
    return (bank.dim, bank.vectors.shape, bank.vectors.tobytes(), bank.class_ids.dtype,
            bank.class_ids.tobytes(),
            {cid: (rows.dtype, rows.tolist()) for cid, rows in bank.class_index.items()})


def _assert_loads_like_the_reference(path, data):
    path.write_bytes(data.decode("utf-8", "replace").encode("utf-8"))
    expected = _outcome(_reference_load, path)
    path.write_bytes(data)
    assert _outcome(load_feature_bank, path) == expected


# --- generated banks and their corruptions ---------------------------------------------

def _on_record(rewrite):
    """A corruption that rewrites the line that ``pick`` falls on, header excepted."""
    def corrupt(text, pick, token):
        lines = text.split("\n")
        if len(lines) > 1:
            row = 1 + pick % (len(lines) - 1)
            lines[row] = rewrite(lines[row], pick, token)
        return "\n".join(lines)
    return corrupt


def _replace_field(line, pick, token, first=1):
    parts = line.split(",")
    parts[first + pick % max(1, len(parts) - first) if len(parts) > first else 0] = token
    return ",".join(parts)


def _insert(line, pick, token):
    at = pick % (len(line) + 1)
    return line[:at] + token + line[at:]


def _header(text, pick, token):
    d, n = (int(v) for v in re.findall(r"\d+", text.split("\n", 1)[0]))
    head = [f"d={d} n={n + 1}", f"d={d} n={max(n - 1, 0)}", f"d={d + 1} n={n}", "d=0 n=0",
            f"d={d}  n={n}", f"d={d} n={n}\r", f"d={d} n={n}{token}"][pick % 7]
    return head + text[text.find("\n"):] if "\n" in text else head


# (corruption, the tokens it draws from); a corruption is text, pick, token -> text
_CORRUPTIONS = [
    (_on_record(lambda line, pick, token: line.rsplit(",", 1)[0]), [""]),  # a field short
    (_on_record(lambda line, pick, token: line + ",1.0"), [""]),  # a field over
    (_on_record(lambda line, pick, token: "\n" + line), [""]),  # a blank line
    (lambda text, pick, token: text[:-1] if text.endswith("\n") else text, [""]),
    (lambda text, pick, token: text + "\n", [""]),
    (_on_record(lambda line, pick, token: _replace_field(line, 0, token, first=0)),
     ["1.0", "1e0", "-1", "+3", "007", "", "x", "0x10", "9223372036854775808",
      "-9223372036854775809", "99999999999999999999"]),
    (_on_record(_replace_field),
     ["nan", "inf", "-inf", "Infinity", "1e999", "-1e999", "", "0x10", "-0.0", "1e-320",
      "+1.5", "1E5", ".5", "5.", "1e", "1d5", "#1", '"1"', "1j"]),
    (_on_record(_insert),
     ["\r", "_", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00", "\x85",
      "\u00a0", "\u00e9", "\u0662", "\udcff", "\udcc3"]),
    (_header, ["\u00e9", "\udcff", "x"]),
]


@st.composite
def _bank_texts(draw):
    """The canonical text of a generated bank. A corruption writes a byte
    that is not UTF-8 into a text as a lone surrogate (``surrogateescape``)."""
    dim, n = draw(st.integers(1, 12)), draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(0, 2**62) | st.integers(0, 4), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * dim, max_size=n * dim))
    lines = [f"d={dim} n={n}"] + [
        f"{cid}," + ",".join(repr(v) for v in values[i * dim:(i + 1) * dim])
        for i, cid in enumerate(ids)]
    return "\n".join(lines) + "\n"


_corruption = st.sampled_from(_CORRUPTIONS).flatmap(
    lambda c: st.tuples(st.just(c[0]), st.integers(0, 10**6), st.sampled_from(c[1])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_bank_texts(), corruptions=st.lists(_corruption, max_size=3))
def test_loader_agrees_with_the_reference(text, corruptions):
    for corrupt, pick, token in corruptions:
        text = corrupt(text, pick, token)
    with tempfile.TemporaryDirectory() as tmp:
        _assert_loads_like_the_reference(Path(tmp) / "bank.csv",
                                         text.encode("utf-8", "surrogateescape"))


@pytest.mark.parametrize("text", [
    # a blank line the reader skips, then a class id too large for int64
    "d=1 n=3\n0,1.0\n\n99999999999999999999,1.0\n",
    # a non-finite value before a class id too large for int64
    "d=1 n=2\n0,inf\n9223372036854775808,1.0\n",
    # a class id too large for int64 before a record with a bad id or value
    "d=1 n=3\n0,1.0\n9223372036854775808,1.0\n1.0,1.0\n",
    "d=1 n=2\n9223372036854775808,1.0\n0,nan\n",
    # negative and too large for int64
    "d=1 n=1\n-9223372036854775809,1.0\n",
])
def test_the_first_error_is_the_reference_first_error(tmp_path, text):
    _assert_loads_like_the_reference(tmp_path / "bank.csv", text.encode())


def test_backbone_sized_bank_agrees_with_the_reference_and_round_trips(tmp_path):
    # drawn like a backbone export: 20 separated Gaussian classes of 100 records,
    # 640 dimensions, records in shuffled order
    rng = np.random.default_rng([0, 20, 100, 640])
    means = rng.standard_normal((20, 640))
    ids = np.repeat(np.arange(20), 100)
    vectors = means[ids] + 0.5 * rng.standard_normal((ids.size, 640))
    order = rng.permutation(ids.size)
    path, again = tmp_path / "bank.csv", tmp_path / "again.csv"
    write_feature_bank(FeatureBank(dim=640, class_ids=ids[order], vectors=vectors[order]), path)
    loaded = load_feature_bank(path)
    assert loaded.vectors.tobytes() == vectors[order].tobytes()
    assert _outcome(lambda p: loaded, path) == _outcome(_reference_load, path)
    write_feature_bank(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# --- the files the reference could not load ------------------------------------------

@pytest.mark.parametrize("data, message", [
    (b"d=2 n=1\n0,1.0,\xff\n", "line 2: non-ASCII character in a record"),
    (b"d=2 n=2\n0,1.0,2.0\n1,\xc3,2.0\n", "line 3: non-ASCII character in a record"),
    (b"d=2 n=1\xff\n0,1.0,2.0\n",
     "line 1: malformed header 'd=2 n=1\ufffd', expected 'd=<int> n=<int>'"),
])
def test_a_file_that_is_not_utf8_names_its_line(tmp_path, data, message):
    path = tmp_path / "bank.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        _reference_load(path)
    with pytest.raises(FeatureFormatError) as exc:
        load_feature_bank(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("records", [b"0,1.0\n", b"0,nan\n", b"0,1.0", b"\n"])
@pytest.mark.parametrize("dim", [10**12, 10**7])
def test_a_header_dimension_no_record_has_allocates_nothing(tmp_path, dim, records):
    # the reference allocates an (n, d) array first: 7.28 TiB at d = 10**12
    path = tmp_path / "bank.csv"
    path.write_bytes(f"d={dim} n=1\n".encode() + records)
    tracemalloc.start()
    try:
        with pytest.raises(FeatureFormatError) as exc:
            load_feature_bank(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got = records.split(b"\n")[0].count(b",") + 1
    assert str(exc.value) == f"{path}: line 2: expected {dim + 1} fields, got {got}"
    assert peak < 1_000_000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [b"d=3 n=0\n", b"d=3 n=0"])
def test_empty_bank_loads_without_warnings(tmp_path, text):
    path = tmp_path / "bank.csv"
    path.write_bytes(text)
    bank = load_feature_bank(path)
    assert bank.vectors.shape == (0, 3) and bank.class_ids.dtype == np.int64
    assert bank.class_index == {}
    assert _outcome(load_feature_bank, path) == _outcome(_reference_load, path)


@pytest.mark.filterwarnings("error")
def test_a_file_of_blank_records_names_the_first_without_warnings(tmp_path):
    path = tmp_path / "bank.csv"
    path.write_bytes(b"d=1 n=2\n\n\n")
    with pytest.raises(FeatureFormatError, match=r": line 2: expected 2 fields, got 1$"):
        load_feature_bank(path)


def test_a_reader_that_rejects_a_valid_table_is_a_format_error(tmp_path, monkeypatch):
    path = tmp_path / "bank.csv"
    path.write_bytes(b"d=2 n=1\n0,1.0,2.0\n")

    def reject(*args, **kwargs):
        raise ValueError("rejected")
    monkeypatch.setattr(np, "loadtxt", reject)
    with pytest.raises(FeatureFormatError, match="the text reader rejected a valid table"):
        load_feature_bank(path)
