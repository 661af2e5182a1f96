#!/usr/bin/env python3
"""Benchmark of the fttim command line, end to end and layer by layer.

    python3 perfbench/run.py --workload synthetic-compare --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen and what it is made of):

  synthetic-compare  `fttim compare` on the standard synthetic suite, --workers 1
  bank-evaluate      `fttim evaluate --features` on a backbone-sized bank, --workers nproc
  theory-verify      `fttim verify-theory` plus its gap trace, default counts and seed

With ``--trace 0`` the run times the workload and prints every end-to-end
metric; with ``--trace 1`` it runs the workload once untraced and once
traced, probes every layer, checks the solver against the benchmark's own
formulas and prints every per-layer metric. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in every child
os.environ.pop("FTTIM_SEED", None)

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import layers
from tracing import Tracer, load_spans, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

REPS = 3    # fresh imports timed before the first slot
WRITES = 2  # bank writes timed in set-up
WAYS, QUERIES = 5, 15
TAUS = (1.0, 0.1, 0.01, 0.001)
PROGRAM_TIMEOUT_S = 150


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` only serves the
    self-test, which checks that every metric is printed."""

    episodes: dict                 # episodes per campaign round, per workload
    bank: tuple                    # (classes, records per class, dim) of bank-evaluate
    companion_bank: tuple          # the bank the other workloads measure I/O on
    theory: dict                   # verify-theory instance counts (defaults at full size)
    gap_instances: int
    companion_theory: dict         # in-process theory run of the campaign workloads
    tim: dict                      # solver overrides, as TimConfig fields

    def tim_flags(self) -> list[str]:
        return [arg for k, v in self.tim.items()
                for arg in (f"--tim-{k.replace('_', '-')}", str(v))]

    def theory_flags(self) -> list[str]:
        if self is FULL:
            return []  # verify-theory exactly as users run it
        return [arg for k, v in self.theory.items()
                for arg in (f"--{k}-instances", str(v))] + ["--gap-instances", str(self.gap_instances)]


FULL = Scale(
    episodes={"synthetic-compare": 2, "bank-evaluate": 2, "theory-verify": 2},
    bank=(20, 100, 640),
    companion_bank=(20, 100, 64),
    theory=dict(decomposition=1000, kkt=100, lloyd=200, mm=500, sweep=100),
    gap_instances=100,
    companion_theory=dict(decomposition=100, kkt=10, lloyd=20, mm=50, sweep=10),
    tim={},
)
TINY = Scale(
    episodes={"synthetic-compare": 1, "bank-evaluate": 2, "theory-verify": 1},
    bank=(6, 20, 32),
    companion_bank=(6, 20, 8),
    theory=dict(decomposition=20, kkt=4, lloyd=4, mm=5, sweep=4),
    gap_instances=5,
    companion_theory=dict(decomposition=10, kkt=2, lloyd=2, mm=2, sweep=2),
    tim=dict(iterations=20, transform_start=10),
)


@dataclass(frozen=True)
class Workload:
    theory_rounds: int  # verify-theory rounds per slot; none: the campaign is the main round
    command: str       # the campaign's subcommand
    source: str        # "synthetic" or "bank"
    pool: bool         # campaign rounds at nproc workers (else 1)
    groups: int        # campaign rounds cycle over this many groups of episodes
    slot_s: float      # seconds one slot takes on the reference machine (README)
    check_episodes: int  # campaign episodes the traced run re-solves in-process
    # a companion block samples what the main rounds do not give: bank loads
    # and in-process theory runs, interleaved, then one fresh import
    block_loads: int
    block_theory: int


WORKLOADS = {
    "synthetic-compare": Workload(0, "compare", "synthetic", False, 5, 3.9, 2, 4, 6),
    "bank-evaluate": Workload(0, "evaluate", "bank", True, 1, 19.0, 1, 3, 20),
    # its campaign is a companion that supplies the episode metrics
    "theory-verify": Workload(3, "compare", "synthetic", False, 4, 9.9, 2, 4, 0),
}


@dataclass
class ProgramRun:
    seconds: float
    peak_rss_MB: float
    returncode: int
    output: str


def median(values) -> float:
    return float(statistics.median(values))


def lower_quartile(values) -> float:
    """The rate that three samples in four reach. This machine's speed is
    bimodal, a steady slow state with fast bursts of varying share; the
    median jumps between the two, the lower quartile stays in the slow one
    (README, *Noise*)."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[0])


def make_bank(fttim, classes: int, per_class: int, dim: int, seed: int):
    """A bank shaped like a backbone export: well separated Gaussian classes,
    records in shuffled order, no zero row."""
    rng = np.random.default_rng([seed, classes, per_class, dim])
    means = rng.standard_normal((classes, dim))
    ids = np.repeat(np.arange(classes), per_class)
    vectors = means[ids] + 0.5 * rng.standard_normal((ids.size, dim))
    order = rng.permutation(ids.size)
    if np.min(np.linalg.norm(vectors, axis=1)) == 0.0:
        raise RuntimeError("generated bank has a zero row")
    return fttim.FeatureBank(dim=dim, class_ids=ids[order], vectors=vectors[order])


class Run:
    def __init__(self, name: str, seed: int, scale: Scale, work: Path):
        import fttim

        self.fttim = fttim
        self.w, self.seed, self.scale, self.work = WORKLOADS[name], seed, scale, work
        self.nproc = len(os.sched_getaffinity(0))
        self.base_seed = seed * 1000  # campaign episodes base_seed .. base_seed + E - 1
        self.round_episodes = scale.episodes[name]
        self.episodes = self.w.groups * self.round_episodes  # E, the whole campaign
        self.variants = fttim.engine.VARIANTS if self.w.command == "compare" else ("ft_tim",)
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self.writes: list[float] = []
        self.loads: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    # --- the program, as users run it --------------------------------------

    def python(self, argv: list[str], tag: str) -> ProgramRun:
        """Run ``python <argv>``; return its wall time, its exit code, its
        output and the peak RSS of it and of the pool workers it waited for."""
        log = self.work / f"{tag}.out"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=subprocess.STDOUT, cwd=ROOT, env=self.env)
            timer = threading.Timer(PROGRAM_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # a blocking wait4, not Popen.wait's polling, so that short
                # runs are timed to the microsecond
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ProgramRun(seconds, usage.ru_maxrss / 1024, proc.returncode,
                          log.read_text(encoding="utf-8"))

    def program(self, args: list[str], tag: str, spans: Path | None = None) -> ProgramRun:
        """``fttim <args>`` as users run it, or its traced twin."""
        head = [str(HERE / "tracing.py"), str(spans)] if spans else ["-m", "fttim"]
        return self.python([*head, *args], tag)

    def time_import(self) -> float:
        run = self.python(["-c", "import fttim"], "import")
        if run.returncode != 0:
            raise RuntimeError(f"import fttim failed:\n{run.output}")
        return run.seconds

    # --- the bank: written in set-up, loaded in every companion block ---------

    def write_bank(self) -> None:
        """Writes the bank and loads it, then rewrites the loaded copy until
        ``WRITES`` writes are timed; each rewrite must reproduce the first
        file byte for byte."""
        shape = self.scale.bank if self.w.source == "bank" else self.scale.companion_bank
        self.bank = make_bank(self.fttim, *shape, self.seed)
        self.bank_path = self.work / "bank.csv"
        rewrite = self.work / "bank.rewrite.csv"
        for path in [self.bank_path] + [rewrite] * (WRITES - 1):
            start = time.perf_counter()
            self.fttim.write_feature_bank(self.loaded if self.writes else self.bank, path)
            self.writes.append(time.perf_counter() - start)
            self.attempted += 1
            if path == self.bank_path:
                self.load_bank()
            elif path.read_bytes() != self.bank_path.read_bytes():
                self.errors.append("rewriting the loaded bank changed its bytes")
        self.bank_MB = self.bank_path.stat().st_size / 1e6

    def load_bank(self) -> None:
        """One timed load; it must give back the generated array exactly."""
        start = time.perf_counter()
        self.loaded = self.fttim.load_feature_bank(self.bank_path)
        self.loads.append(time.perf_counter() - start)
        self.attempted += 1
        if not (np.array_equal(self.loaded.vectors, self.bank.vectors)
                and np.array_equal(self.loaded.class_ids, self.bank.class_ids)):
            self.errors.append("loaded bank differs from the generated array")

    # --- campaign ------------------------------------------------------------

    def campaign_round(self, workers: int, tag: str, spans: Path | None = None,
                       first: int = 0, episodes: int | None = None):
        """One ``compare``/``evaluate`` run over episodes base_seed + first ...;
        returns the run and its report text, checked."""
        episodes = episodes or self.episodes
        out = self.work / f"{tag}.json"
        source = ["--synthetic"] if self.w.source == "synthetic" else ["--features", str(self.bank_path)]
        run = self.program(
            [self.w.command, *source, "--episodes", str(episodes), "--ways", str(WAYS),
             "--queries", str(QUERIES), "--seed", str(self.base_seed + first),
             "--workers", str(workers), "--out", str(out), *self.scale.tim_flags()], tag, spans)
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        self.check_campaign(run, text, tag, episodes, self.base_seed + first)
        return run, text

    def check_campaign(self, run: ProgramRun, text: str, tag: str, episodes: int,
                       base_seed: int) -> None:
        self.attempted += episodes * len(self.variants)
        try:
            report = checks.strict_json(text)
        except ValueError as exc:
            self.errors.append(f"{tag}: report is not strict JSON: {exc}")
            return
        args = (episodes, base_seed, WAYS, QUERIES, self.errors)
        if self.w.command == "compare":
            failed = checks.check_compare_report(report, self.variants, *args)
        else:
            failed = checks.check_eval_report(report, "ft_tim", *args)
        if run.returncode != (1 if failed else 0):
            self.errors.append(f"{tag}: exit code {run.returncode} with {failed} failed episodes")
        self.failed += failed

    def variant_reports(self, text: str) -> dict:
        report = json.loads(text)
        return report["variants"] if self.w.command == "compare" else {"ft_tim": report}

    def same_report(self, text: str, reference: str, tag: str) -> None:
        if checks.without_wall_time(text) != checks.without_wall_time(reference):
            self.errors.append(f"{tag}: report differs from the first one beyond wall_time_s")

    # --- theory ----------------------------------------------------------------

    def theory_round(self, tag: str, spans: Path | None = None) -> tuple[ProgramRun, str]:
        """One ``verify-theory`` run with its gap trace; returns the run and
        its output (stdout and gap trace), checked."""
        gap = self.work / "gap_trace.csv"
        run = self.program(["verify-theory", "--tau-sweep", ",".join(map(str, TAUS)),
                            "--out", str(gap), *self.scale.theory_flags()], tag, spans)
        if run.returncode != 0:
            self.errors.append(f"{tag}: verify-theory exited {run.returncode}")
        totals = [self.scale.theory[p] for p in layers.THEORY_PROPERTIES]
        instances, failed = checks.parse_theory_lines(run.output, totals, self.errors)
        text = gap.read_text(encoding="utf-8") if gap.exists() else ""
        self.gap_rows = checks.check_gap_trace(text, self.scale.gap_instances, list(TAUS), self.errors)
        self.attempted += instances + self.scale.gap_instances
        self.failed += failed
        return run, run.output + text

    def check_theory_sample(self) -> None:
        sample = np.random.default_rng(self.seed).choice(
            self.scale.gap_instances, size=min(10, self.scale.gap_instances), replace=False)
        checks.check_theory_instances(self.fttim.analysis, 0, sorted(int(i) for i in sample),
                               self.gap_rows, list(TAUS), self.errors)

    def theory_companion(self) -> float:
        """Theory instances per second of one in-process ``run_theory_suite``
        at a tenth of the default counts."""
        counts = {f"{k}_instances": v for k, v in self.scale.companion_theory.items()}
        start = time.perf_counter()
        results = self.fttim.run_theory_suite(**counts)
        seconds = time.perf_counter() - start
        if not all(r.ok for r in results):
            self.errors.append("companion theory run: a property failed")
        self.attempted += sum(r.total for r in results)
        self.failed += sum(r.total - r.passed for r in results)
        return sum(r.total for r in results) / seconds

    # --- the two kinds of run ---------------------------------------------------

    def timed(self, seconds: float) -> dict:
        """Set-up, then a companion block and whole cycles of slots: as many
        cycles over the campaign's groups as take about ``seconds`` on the
        reference machine, at least one. A slot is one main round plus a
        companion block, which samples set-up and every metric the main round
        does not give, so that every metric draws on samples spread over the
        whole run: the machine's speed changes from second to second and
        from minute to minute. Every run of a workload makes the same operations,
        so failures are the same share of attempts in every run."""
        cycles = max(1, round(seconds / (self.w.slot_s * self.w.groups)))
        imports = [self.time_import() for _ in range(REPS)]
        self.write_bank()
        theory_rates, campaign_rates, main_runs = [], [], []
        first_text: dict[int, str] = {}
        theory_output = None

        def block(imports_too: bool = True) -> None:
            loads, theory = self.w.block_loads, self.w.block_theory
            n = max(loads, theory)
            for i in range(n):  # the loads spread evenly among the theory runs
                if i * loads // n != (i + 1) * loads // n:
                    self.load_bank()
                if i * theory // n != (i + 1) * theory // n:
                    theory_rates.append(self.theory_companion())
            if imports_too:
                imports.append(self.time_import())

        def theory_main(tag: str) -> None:
            nonlocal theory_output
            run, output = self.theory_round(tag)
            if theory_output is None:
                theory_output = output
                self.check_theory_sample()
            elif output != theory_output:
                self.errors.append(f"{tag}: output differs from the first round")
            theory_rates.append(
                (sum(self.scale.theory.values()) + self.scale.gap_instances) / run.seconds)
            main_runs.append(run)

        start = time.perf_counter()
        block()
        for slot in range(cycles * self.w.groups):
            for i in range(self.w.theory_rounds):
                theory_main(f"theory{self.w.theory_rounds * slot + i}")
                block(imports_too=False)
            k = slot % self.w.groups
            run, text = self.campaign_round(self.nproc if self.w.pool else 1, f"campaign{slot}",
                                            first=k * self.round_episodes,
                                            episodes=self.round_episodes)
            self.same_report(text, first_text.setdefault(k, text), f"campaign round {slot}")
            campaign_rates.append(self.round_episodes * len(self.variants) / run.seconds)
            if not self.w.theory_rounds:
                main_runs.append(run)
            block()
        (self.work / "samples.json").write_text(json.dumps({
            "imports_s": imports, "bank_writes_s": self.writes, "bank_loads_s": self.loads,
            "theory_instances_per_s": theory_rates, "episodes_per_s": campaign_rates,
            "measured_s": time.perf_counter() - start}, indent=1) + "\n")
        accuracy = [self.variant_reports(t)["ft_tim"]["mean_accuracy"] for t in first_text.values()]
        own_input = self.w.source == "bank"
        return {
            # set-up: interpreter start and import, plus writing the input
            # files where the workload has them (bank-evaluate)
            "setup_s": median(imports) + (median(self.writes) if own_input else 0.0),
            "episodes_per_s": lower_quartile(campaign_rates),
            "ft_tim_accuracy": statistics.fmean(accuracy),
            "bank_load_MB_per_s": lower_quartile(self.bank_MB / s for s in self.loads),
            "theory_instances_per_s": lower_quartile(theory_rates),
            "peak_rss_MB": max(r.peak_rss_MB for r in main_runs),
        }

    def traced(self) -> dict:
        fttim = self.fttim
        spans_dir = self.work / "spans"
        tracer = Tracer(spans_dir)
        metrics = {"cli.import_s": median(self.time_import() for _ in range(REPS))}
        self.write_bank()
        metrics["features.write_feature_bank.MB_per_s"] = self.bank_MB / median(self.writes)

        # the campaign at 1 and at nproc workers, then traced at nproc: all
        # three reports must match byte for byte apart from wall_time_s
        serial, serial_text = self.campaign_round(1, "campaign-serial")
        pool, pool_text = self.campaign_round(self.nproc, "campaign-pool")
        traced, traced_text = self.campaign_round(self.nproc, "campaign-traced", spans_dir)
        self.same_report(pool_text, serial_text, "campaign at nproc workers")
        self.same_report(traced_text, serial_text, "traced campaign")
        variant_episodes = self.episodes * len(self.variants)

        def run_episodes_rate(text: str) -> float:
            report = json.loads(text)
            reports = report["variants"].values() if self.w.command == "compare" else [report]
            return variant_episodes / sum(r["wall_time_s"] for r in reports)

        metrics["bench.run_episodes.serial_episodes_per_s"] = run_episodes_rate(serial_text)
        metrics["bench.run_episodes.pool_episodes_per_s"] = run_episodes_rate(pool_text)
        if not self.w.theory_rounds:
            untraced_s, traced_s = pool.seconds, traced.seconds
        else:
            untraced, untraced_out = self.theory_round("theory-untraced")
            self.check_theory_sample()
            traced, traced_out = self.theory_round("theory-traced", spans_dir)
            if traced_out != untraced_out:
                self.errors.append("traced verify-theory output differs from untraced")
            untraced_s, traced_s = untraced.seconds, traced.seconds
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s

        # how often one campaign parses the bank: a traced evaluate on this
        # run's bank whose episodes keep every worker busy
        parse_spans = self.work / "parse-spans"
        parse = self.program(
            ["evaluate", "--features", str(self.bank_path), "--variant", "tim_baseline",
             "--episodes", str(2 * self.nproc), "--workers", str(self.nproc),
             "--seed", str(self.base_seed), "--out", str(self.work / "parse.json"),
             *self.scale.tim_flags()], "parse", parse_spans)
        if parse.returncode != 0:
            self.errors.append(f"bank parse probe exited {parse.returncode}")
        metrics["features.bank_parses"] = sum(
            s["name"] == "features.load_feature_bank" for s in load_spans(parse_spans))

        # layer probes and solver checks at this workload's shapes
        rng = np.random.default_rng(self.seed)
        if self.w.source == "bank":
            make_episode = lambda s: fttim.sample_episode(self.loaded, WAYS, QUERIES, 0, s)
            dim = self.loaded.dim
        else:
            make_episode = fttim.bench.SyntheticSource().episode
            dim = fttim.bench.STANDARD_SUITE["dim"]
        spec = fttim.SyntheticTaskSpec(**dict(fttim.bench.STANDARD_SUITE, dim=dim))
        seeds = sorted(int(s) for s in rng.choice(
            self.episodes, size=self.w.check_episodes, replace=False) + self.base_seed)
        per_seed = {}
        for variant, rep in self.variant_reports(serial_text).items():
            per_seed.update({(variant, o["seed"]): o["accuracy"] for o in rep["per_episode"]})
        metrics.update(layers.features_probes(fttim, tracer, self.bank_path, (WAYS, QUERIES), spec))
        metrics.update(layers.engine_probes(
            fttim, tracer, [(s, make_episode(s)) for s in seeds],
            lambda v, s: per_seed.get((v, s)), self.scale.tim, self.errors))
        metrics.update(layers.theory_probes(fttim, tracer, self.scale.theory,
                                            self.scale.gap_instances,
                                            self.work / "gap_probe.csv", self.errors))
        metrics.update(layers.analysis_probes(fttim.analysis, tracer, rng))
        checks.check_gradients(fttim, self.errors)
        tracer.flush()

        spans = load_spans(spans_dir)
        by_name = self_times(spans)
        by_layer: dict[str, float] = {}
        for name, s in by_name.items():
            by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + s
        for layer in ("cli", "bench", "features", "transform", "engine", "analysis"):
            metrics[f"trace.self_s.{layer}"] = by_layer.get(layer, 0.0)
        metrics["trace.spans"] = len(spans)
        (self.work / "self_times.json").write_text(
            json.dumps(dict(sorted(by_name.items(), key=lambda kv: -kv[1])), indent=2) + "\n")
        return metrics


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test sizes, not a measurement")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running program is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "fttim" / "__init__.py").is_file():
        print(f"perfbench: no fttim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, FULL if args.scale == "full" else TINY, work)
    metrics = run.traced() if args.trace else run.timed(args.seconds)
    for bank in work.glob("bank*.csv"):
        bank.unlink()
    units = load_units()
    for message in run.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
