#!/usr/bin/env python3
"""Check that this checkout's fttim writes the same bytes as another revision's.

    python3 tools/samebytes.py REV

REV's ``src/`` is extracted with ``git archive`` into a temporary directory,
and every command of ``GRID`` runs once against it and once against this
checkout's ``src/``, with this interpreter and the same environment. Each
run's exit code, stdout and output files are compared with ``wall_time_s``
and the run's output paths dropped. One line per output says ``same``, or
the largest relative change of each numeric field that moved, or where the
text first differs. The exit code is 1 on any difference.

The banks that the grid evaluates are written once, by this checkout, and
both trees read them: ``bank640`` is the benchmark's backbone-sized bank
recipe (20 classes of 100 records, d = 640), ``bank32`` the CI workflow's.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

_SWEEP = ["--tau-sweep", "1,0.1,0.01,0.001", "--workers", "2", "--out", "{out}/gaps.csv"]

# (name, fttim arguments): {out} is the run's own output directory, and
# {bank640} and {bank32} are the paths of the banks below
GRID = [
    *[(f"{command} w{w} heldout{h}",
       [command, "--synthetic", "--episodes", "20", "--heldout", str(h), "--workers", str(w),
        "--out", "{out}/report.json"])
      for command in ("evaluate", "compare") for w in (1, 2) for h in (0, 3)],
    ("evaluate bank640", ["evaluate", "--features", "{bank640}", "--episodes", "2",
                          "--tim-iterations", "300", "--workers", "1",
                          "--out", "{out}/report.json"]),
    ("evaluate bank32", ["evaluate", "--features", "{bank32}", "--episodes", "20",
                         "--heldout", "2", "--workers", "2", "--out", "{out}/report.json"]),
    ("export-embeddings", ["export-embeddings", "--synthetic", "--out", "{out}"]),
    *[(f"verify-theory seed {seed}", ["verify-theory", "--seed", str(seed), *_SWEEP])
      for seed in (0, 100_000, 600_000)],
]


def make_bank(fttim, classes: int, per_class: int, dim: int, seed: int):
    """Well separated Gaussian classes, records in shuffled order: the
    benchmark's recipe for a bank shaped like a backbone export."""
    rng = np.random.default_rng([seed, classes, per_class, dim])
    means = rng.standard_normal((classes, dim))
    ids = np.repeat(np.arange(classes), per_class)
    vectors = means[ids] + 0.5 * rng.standard_normal((ids.size, dim))
    order = rng.permutation(ids.size)
    return fttim.FeatureBank(dim=dim, class_ids=ids[order], vectors=vectors[order])


def ci_bank(fttim):
    """12 classes of 20 records at d = 32, as the CI workflow builds it."""
    rng = np.random.default_rng(0)
    ids = np.repeat(np.arange(12), 20)
    vectors = rng.standard_normal((12, 32))[ids] + 0.5 * rng.standard_normal((240, 32))
    return fttim.FeatureBank(dim=32, class_ids=ids, vectors=vectors)


BANKS = {
    "bank640": lambda fttim: make_bank(fttim, 20, 100, 640, 0),
    "bank32": ci_bank,
}


def _write_banks(grid, where: Path) -> dict:
    """The paths of the banks that ``grid`` names, each written once."""
    names = {name for _, argv in grid for arg in argv for name in BANKS
             if f"{{{name}}}" in arg}
    if not names:
        return {}
    sys.path.insert(0, str(ROOT / "src"))
    import fttim

    paths = {}
    for name in sorted(names):
        paths[name] = str(where / f"{name}.csv")
        fttim.write_feature_bank(BANKS[name](fttim), paths[name])
    return paths


def _run(src: Path, argv: list[str], out: Path, banks: dict) -> dict:
    """One fttim run against the tree ``src``: its outputs by name, with the
    output directory's path replaced by OUT."""
    out.mkdir(parents=True)
    argv = [arg.format(out=out, **banks) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "fttim", *argv], cwd=out, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    outputs = {"exit code": f"{proc.returncode}\n", "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        outputs[str(path.relative_to(out))] = path.read_text(encoding="utf-8")
    return {name: text.replace(str(out), "OUT") for name, text in outputs.items()}


def _drop_wall_time(value):
    if isinstance(value, dict):
        return {k: _drop_wall_time(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [_drop_wall_time(v) for v in value]
    return value


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _fields(name: str, text: str) -> list[tuple[str, str]]:
    """(field, token) pairs of an output, in order: JSON leaves by key path,
    CSV cells by column name, and other lines split into numbers and the
    text between them, a number's field being its line with every number
    written as #."""
    if name.endswith(".json"):
        pairs = []

        def walk(value, path):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, f"{path}.{k}" if path else k)
            elif isinstance(value, list):
                for v in value:
                    walk(v, f"{path}[]")
            else:
                pairs.append((path, json.dumps(value)))

        walk(_drop_wall_time(json.loads(text)), "")
        return pairs
    lines = [line for line in text.splitlines() if "wall_time_s" not in line]
    columns = lines[0].split(",") if lines and not _NUMBER.search(lines[0]) else []
    pairs = []
    for line in lines:
        cells = line.split(",")
        if len(columns) > 1 and len(cells) == len(columns):
            pairs += zip(columns, cells)
            continue
        template = _NUMBER.sub("#", line)[:60]
        parts = re.split(f"({_NUMBER.pattern})", line)
        pairs += [(template if k % 2 else "text", part) for k, part in enumerate(parts)]
        pairs.append(("text", "\n"))
    return pairs


def _verdict(name: str, old: str, new: str) -> str:
    """``same``, or how the output ``new`` differs from ``old``."""
    try:
        a, b = _fields(name, old), _fields(name, new)
    except ValueError:  # not the format its name says: compare the text
        a, b = [("text", old)], [("text", new)]
    if a == b:
        return "same"
    changes = {}
    for (field, x), (other, y) in itertools.zip_longest(a, b, fillvalue=(None, None)):
        if (field, x) == (other, y):
            continue
        try:
            if field != other:
                raise ValueError
            u, v = float(x), float(y)
        except (TypeError, ValueError):
            return f"differs at {field or other}: {x!r} -> {y!r}"
        scale = max(abs(u), abs(v))
        rel = abs(u - v) / scale if scale else 0.0
        changes[field] = max(changes.get(field, 0.0), rel if rel == rel else float("inf"))
    return "largest relative change: " + "; ".join(
        f"{field} {rel:.3g}" for field, rel in changes.items())


def run(rev: str, grid=GRID) -> int:
    """Runs ``grid`` against REV's ``src/`` and this checkout's, prints one
    line per output and returns 1 if any differs, else 0."""
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                           else {}))
        banks = _write_banks(grid, tmp)
        differs = False
        for k, (name, argv) in enumerate(grid):
            old = _run(tmp / "rev" / "src", argv, tmp / f"{k}-rev", banks)
            new = _run(ROOT / "src", argv, tmp / f"{k}-new", banks)
            for output in sorted(old.keys() | new.keys()):
                if output in old and output in new:
                    verdict = _verdict(output, old[output], new[output])
                else:
                    verdict = f"differs: only {rev if output in old else 'this checkout'} writes it"
                differs |= verdict != "same"
                print(f"{name:<28} {output:<28} {verdict}", flush=True)
    return 1 if differs else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python3 tools/samebytes.py REV", file=sys.stderr)
        return 2
    return run(args[0])


if __name__ == "__main__":
    sys.exit(main())
