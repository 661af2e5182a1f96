#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload with tracing off and on at ``--scale tiny`` and checks
that each run exits 0, that its last line is the result object, that every
end-to-end (tracing off) or per-layer (tracing on) metric of BENCHMARK.json
is printed once with its unit and a finite value, and that the run checked
its outputs and found nothing wrong. Then checks that the benchmark refuses
to run, without printing a result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [*spec["command"], "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT,
                                  capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{where}: correct/attempted/failed = "
                                f"{result['correct']}/{result['attempted']}/{result['failed']}")
            names = {m["name"]: m["unit"] for m in wanted}
            got = result["metrics"]
            if sorted(got) != sorted(names):
                problems.append(f"{where}: missing {sorted(set(names) - set(got))}, "
                                f"extra {sorted(set(got) - set(names))}")
            for name, m in got.items():
                if m.get("unit") != names.get(name) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: bad metric {name}: {m}")
            print(f"ok  {where}: {len(got)} metrics, attempted {result['attempted']}", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without sources: expected a non-zero exit and no result")
    else:
        print("ok  refuses to run without the program's sources")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
