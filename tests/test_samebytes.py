"""tools/samebytes.py: a tiny grid against HEAD gives ``same`` for every
output, and a moved number is reported by its field."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("samebytes", ROOT / "tools" / "samebytes.py")
samebytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebytes)

_SOLVER = ["--tim-iterations", "20", "--tim-transform-start", "10"]
_SMALL = ["--synthetic", "--dim", "8", "--relevant-dims", "3", "--queries", "3", *_SOLVER]
TINY = [
    ("evaluate", ["evaluate", *_SMALL, "--episodes", "3", "--workers", "1",
                  "--out", "{out}/report.json"]),
    ("compare heldout", ["compare", *_SMALL, "--episodes", "3", "--heldout", "2",
                         "--workers", "2", "--out", "{out}/report.json"]),
    ("evaluate bank32", ["evaluate", "--features", "{bank32}", *_SOLVER, "--episodes", "2",
                         "--heldout", "2", "--workers", "1", "--out", "{out}/report.json"]),
    ("export-embeddings", ["export-embeddings", *_SMALL, "--out", "{out}"]),
    ("verify-theory", ["verify-theory", "--decomposition-instances", "5", "--kkt-instances",
                       "2", "--lloyd-instances", "2", "--mm-instances", "3",
                       "--sweep-instances", "2", "--tau-sweep", "1,0.1", "--gap-instances",
                       "3", "--workers", "1", "--out", "{out}/gaps.csv"]),
]


def test_tiny_grid_against_head_is_the_same(capsys):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs a git checkout")
    code = samebytes.run("HEAD", TINY)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, "\n".join(lines)
    assert sum("report.json" in line for line in lines) == 3
    assert sum("gaps.csv" in line for line in lines) == 1
    assert sum("prototypes.csv" in line for line in lines) == 1
    assert len(lines) == 5 * 3 + 3 + 1 + 4
    assert all(line.endswith(" same") for line in lines), "\n".join(lines)


def test_a_moved_number_is_reported_by_its_field():
    old = '{"a": {"accuracy": 0.5, "wall_time_s": 1.0}, "b": [{"accuracy": 0.25}]}'
    new = '{"a": {"accuracy": 0.5, "wall_time_s": 2.0}, "b": [{"accuracy": 0.2}]}'
    assert samebytes._verdict("report.json", old, old.replace("1.0", "3.0")) == "same"
    assert samebytes._verdict("report.json", old, new) == \
        "largest relative change: b[].accuracy 0.2"
    assert samebytes._verdict("gaps.csv", "tau,gap\n1.0,0.5\n", "tau,gap\n1.0,0.4\n") == \
        "largest relative change: gap 0.2"
    assert samebytes._verdict("stdout", "PASS  x: 2/2\n", "FAIL  x: 1/2\n") == \
        "differs at text: 'PASS  x: ' -> 'FAIL  x: '"
    assert samebytes._verdict("stdout", "a 1\n", "a 1\nb\n") == "differs at text: None -> 'b'"
