"""Span tracing around calls into the fttim package, recorded from outside it.

A span is one call of a public function (or one block of the benchmark
itself): id, parent id, name, start, end. Spans live in memory and are
written out as JSON lines, one file per process, when the traced work ends.
Pool workers are forked while the parent is inside ``bench.run_episodes``,
so their spans take that span as parent; a worker writes its spans whenever
it leaves its outermost span, because pool workers exit without running
exit handlers.

Run as a script, this file is the traced command line:

    python perfbench/tracing.py SPAN_DIR <fttim arguments>

which installs the span wrappers, runs ``fttim.cli.main`` and exits with its
code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.owner_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.base_depth = 0
        self.counter = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the child keeps the parent's open spans as ancestors, not its
        # finished spans, which the parent writes itself
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)

    @contextlib.contextmanager
    def span(self, name: str, detail: str = ""):
        self.counter += 1
        sid = f"{self.pid}:{self.counter}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, detail, start, end))
            if self.pid != self.owner_pid and len(self.stack) == self.base_depth:
                self.flush()

    def wrap(self, name: str, fn, detail=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, detail(*args, **kwargs) if detail else ""):
                return fn(*args, **kwargs)
        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        lines = "".join(
            json.dumps(dict(zip(("id", "parent", "name", "detail", "start", "end"), s)))
            + "\n"
            for s in self.spans
        )
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as f:
            f.write(lines)
        self.spans = []


def _variant(episode, config, *args, **kwargs) -> str:
    return config.variant


# (module, attribute, span name): each module attribute through which the
# package calls a layer boundary. Functions imported by name are patched in
# the importing module, because that is the name the caller looks up.
PATCHES = (
    ("bench", "compare", "bench.compare"),
    ("bench", "evaluate", "bench.evaluate"),
    ("bench", "run_episodes", "bench.run_episodes"),
    ("bench", "run_theory_suite", "bench.run_theory_suite"),
    ("bench", "write_gap_trace", "bench.write_gap_trace"),
    ("bench", "write_json", "bench.write_json"),
    ("bench", "load_feature_bank", "features.load_feature_bank"),
    ("bench", "sample_episode", "features.sample_episode"),
    ("bench", "generate_synthetic_episode", "features.generate_synthetic_episode"),
    ("analysis", "generate_synthetic_episode", "features.generate_synthetic_episode"),
    ("bench", "run_ft_tim", "engine.run_ft_tim"),
    ("bench", "predict_features", "engine.predict_features"),
    ("engine", "norm_induced_map", "transform.norm_induced_map"),
    ("engine", "init_transform", "transform.init_transform"),
    ("analysis", "norm_induced_map", "transform.norm_induced_map"),
    ("analysis", "init_transform", "transform.init_transform"),
    ("analysis", "make_random_instance", "analysis.make_random_instance"),
    ("analysis", "decomposition_residual", "analysis.decomposition_residual"),
    ("analysis", "kkt_soft_assignments", "analysis.kkt_soft_assignments"),
    ("analysis", "minimize_soft_assignment_rows", "analysis.minimize_soft_assignment_rows"),
    ("analysis", "alternate_kmeans", "analysis.alternate_kmeans"),
    ("analysis", "clustering_term", "analysis.clustering_term"),
    ("analysis", "mm_iteration", "analysis.mm_iteration"),
    ("analysis", "bound_check", "analysis.bound_check"),
)


def install(tracer: Tracer) -> None:
    import importlib

    for module_name, attr, name in PATCHES:
        module = importlib.import_module(f"fttim.{module_name}")
        detail = _variant if name == "engine.run_ft_tim" else None
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), detail))


def load_spans(span_dir: str | Path) -> list[dict]:
    spans = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as f:
            spans.extend(json.loads(line) for line in f)
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time in seconds per span name: duration minus the part of it that
    child spans cover (children in pool workers may overlap each other)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        inside = [(max(a, s["start"]), min(b, s["end"]))
                  for a, b in children.get(s["id"], ()) if b > s["start"] and a < s["end"]]
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - _covered(inside)
    return out


def main(argv: list[str]) -> int:
    tracer = Tracer(argv[0])
    install(tracer)
    from fttim import cli

    try:
        return tracer.wrap("cli.main", cli.main)(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
