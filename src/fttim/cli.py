"""Command-line surface: evaluate, compare, verify-theory, export-embeddings.

Flags may also come from a flat ``key=value`` config file (``--config``);
explicit flags win over file values. ``FTTIM_SEED`` serves as the seed
fallback when neither a flag nor a config entry provides one.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import inspect
import math
import os
import sys
from pathlib import Path

from . import bench
from .engine import EpisodeFailure, TimConfig, UPDATE_RULES, VARIANTS
from .features import DegenerateVectorError, FeatureFormatError, TooFewClassesError

# every solver field has a --tim-* flag; the variant comes from the command
_TIM_FIELDS = tuple(f for f in dataclasses.fields(TimConfig) if f.name != "variant")

# verify-theory's per-property instance counts, with their defaults
_THEORY_COUNTS = {name: p.default for name, p in
                  inspect.signature(bench.run_theory_suite).parameters.items()
                  if name.endswith("_instances")}


# the flags that only --synthetic takes, with their SyntheticSource field
_SYNTHETIC_FLAGS = {
    "--dim": ("dim", int),
    "--relevant-dims": ("relevant_dims", int),
    "--class-separation": ("inter_class_separation", float),
    "--class-stddev": ("intra_class_stddev", float),
}


def _add_source_flags(p: argparse.ArgumentParser, campaign: bool) -> None:
    """The episode source flags, with ``campaign`` also the episode count
    and the worker pool, which a one-episode command has no use for."""
    p.add_argument("--features", metavar="PATH", help="feature bank file to sample from")
    p.add_argument("--synthetic", action="store_true",
                   help="sample tasks from the synthetic generator")
    if campaign:
        p.add_argument("--episodes", type=int, default=600)
    p.add_argument("--ways", type=int, default=5, help="classes per task")
    p.add_argument("--queries", type=int, default=15, help="queries per class")
    p.add_argument("--heldout", type=int, default=0,
                   help="held-out samples per class (semi-supervised protocol)")
    p.add_argument("--seed", type=int, default=None,
                   help="base episode seed (fallback: FTTIM_SEED, then 0)")
    if campaign:
        _add_workers_flag(p)
    p.add_argument("--out", metavar="PATH", help="output path")
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value config file; flags override it")
    for flag, (_, kind) in _SYNTHETIC_FLAGS.items():
        p.add_argument(flag, type=kind, help="--synthetic only (default: the standard suite's)")


def _available_parallelism() -> int:
    """The CPUs this process may run on, or ``os.cpu_count()`` where the OS
    cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=_available_parallelism(),
                   help="worker processes (default: available parallelism)")


def _add_tim_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("solver overrides (defaults from TimConfig)")
    for f in _TIM_FIELDS:
        group.add_argument(f"--tim-{f.name.replace('_', '-')}", type=type(f.default),
                           choices=UPDATE_RULES if f.name == "update_rule" else None,
                           default=None)


# the flags that take a float
_FLOAT_FLAGS = {*(f"--tim-{f.name.replace('_', '-')}" for f in _TIM_FIELDS
                  if isinstance(f.default, float)),
                *(flag for flag, (_, kind) in _SYNTHETIC_FLAGS.items() if kind is float)}


# the spellings of a config file's boolean values
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_defaults(config: str, parser: argparse.ArgumentParser) -> dict:
    """The key=value file's entries as ``parser`` defaults, by destination.
    Every value is converted and checked here, also where a flag on argv
    will override it."""
    path = Path(config)
    if not path.exists():
        parser.error(f"--config file not found: {path}")
    actions = {opt[2:]: action for opt, action in parser._option_string_actions.items()
               if opt.startswith("--") and action.dest not in ("help", "config")}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"--config {path}: {exc.strerror}")
    except UnicodeDecodeError:
        parser.error(f"--config {path}: not UTF-8 text")
    defaults = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"--config {path} line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        action = actions.get(key) or actions.get(key.replace("_", "-"))
        if action is None:
            parser.error(f"--config {path} line {lineno}: unknown key {key!r}")
        try:
            if action.nargs == 0:  # a flag that takes no value: a boolean
                defaults[action.dest] = _BOOLEANS[value.lower()]
            else:
                defaults[action.dest] = value if action.type is None else action.type(value)
        except (KeyError, ValueError):
            parser.error(f"--config {path} line {lineno}: bad value for {key!r}")
    return defaults


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The seed from ``--seed`` or its config entry, else ``FTTIM_SEED``,
    else 0. Seeds start numpy's generators, which take no negative seed, so
    a negative one is a usage error."""
    if args.seed is not None:
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        return args.seed
    env = os.environ.get("FTTIM_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        parser.error(f"FTTIM_SEED is not an integer: {env!r}")
    if seed < 0:
        parser.error(f"FTTIM_SEED must be non-negative: {env!r}")
    return seed


# each source flag's lower bound, and how its message puts it
_LOWER_BOUNDS = {
    "episodes": (1, "a positive integer"),
    "ways": (2, "at least 2"),
    "queries": (1, "at least 1"),
    "heldout": (0, "non-negative"),
    "workers": (1, "at least 1"),
}


def _source(args, parser: argparse.ArgumentParser):
    """The command's episode source, after checking the source flags.
    Synthetic flags that cannot form a task, or that come with
    ``--features``, are a usage error; a bank's load errors are left to
    :func:`main`."""
    if bool(args.features) == bool(args.synthetic):
        parser.error("exactly one of --features or --synthetic is required")
    synthetic = {}  # the flags given; SyntheticSource's defaults are the standard suite
    for flag, (field, _) in _SYNTHETIC_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            if args.features:
                parser.error(f"{flag} applies only to --synthetic")
            synthetic[field] = value
    for name, (low, bound) in _LOWER_BOUNDS.items():
        value = getattr(args, name, None)  # export-embeddings has no campaign flags
        if value is not None and value < low:
            parser.error(f"--{name} must be {bound}")
    shape = dict(num_classes=args.ways, queries_per_class=args.queries,
                 heldout_per_class=args.heldout)
    if not args.synthetic:
        return bench.BankSource(path=args.features, **shape)
    try:
        return bench.SyntheticSource(**synthetic, **shape)
    except ValueError as exc:
        parser.error(str(exc))


def _tim_config(args, parser: argparse.ArgumentParser) -> TimConfig:
    overrides = {"variant": args.variant}
    for f in _TIM_FIELDS:
        value = getattr(args, f"tim_{f.name}")
        if value is not None:
            overrides[f.name] = value
    try:
        return TimConfig(**overrides)
    except ValueError as exc:
        parser.error(str(exc))


def _out_path(out: str) -> str:
    """``out``, once its directory is known to exist, so that a path that
    cannot be written is a usage error before the run, not after it."""
    parent = Path(out).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), out)
    return out


def _cmd_evaluate(args, parser) -> int:
    config = _tim_config(args, parser)
    out = _out_path(args.out or "eval_report.json")
    report = bench.evaluate(_source(args, parser), config, args.episodes, args.seed,
                            args.workers)
    bench.write_json(report.to_json_dict(), out)
    print(report.table())
    print(f"wall_time_s: {report.wall_time_s:.2f}")
    print(f"report written to {out}")
    return 1 if report.failures else 0


def _cmd_compare(args, parser) -> int:
    config = _tim_config(args, parser)
    out = _out_path(args.out or "compare_report.json")
    report = bench.compare(_source(args, parser), config, args.episodes, args.seed,
                           args.workers)
    bench.write_json(report.to_json_dict(), out)
    print(report.table())
    print(f"report written to {out}")
    return 1 if any(r.failures for r in report.reports.values()) else 0


def _cmd_verify_theory(args, parser) -> int:
    counts = {name: getattr(args, name) for name in _THEORY_COUNTS}
    for name, count in {**counts, "workers": args.workers}.items():
        if count < 1:
            parser.error(f"--{name.replace('_', '-')} must be at least 1")
    if args.tau_sweep:
        try:
            taus = tuple(float(t) for t in args.tau_sweep.split(","))
        except ValueError:
            taus = ()
        if not taus or not all(math.isfinite(t) and t > 0 for t in taus):
            parser.error("--tau-sweep must be a comma-separated list of finite floats > 0")
        if args.gap_instances is not None and args.gap_instances < 1:
            parser.error("--gap-instances must be at least 1")
        out = _out_path(args.out or "gap_trace.csv")
    else:
        for name in ("gap_instances", "out"):
            if getattr(args, name) is not None:
                parser.error(f"--{name.replace('_', '-')} applies only with --tau-sweep")
    # the suite and the gap trace share one pool
    with bench.WorkerPool(args.workers) as pool:
        results = bench.run_theory_suite(**counts, base_seed=args.seed, pool=pool)
        lines = [r.line() for r in results]
        if args.tau_sweep:
            bench.write_gap_trace(out, instances=args.gap_instances or 100, taus=taus,
                                  base_seed=args.seed, pool=pool)
            lines.append(f"gap trace written to {out}")
    print("\n".join(lines))
    return 0 if all(r.ok for r in results) else 1


def _cmd_export(args, parser) -> int:
    if not args.out:
        parser.error("--out directory is required for export-embeddings")
    config = _tim_config(args, parser)
    # a failed episode is one usage line, with the reason a campaign flags it with
    try:
        result = bench.export_embeddings(_source(args, parser), config, args.seed, args.out)
    except DegenerateVectorError as exc:
        parser.error(f"seed {args.seed}: episode input: {exc}")
    except EpisodeFailure as exc:
        parser.error(f"seed {args.seed}: {exc}")
    for name, path in result.paths.items():
        print(f"{name}: {path}")
    print(f"class separation before transform: {bench._cell(result.separation_before)}")
    print(f"class separation after transform:  {bench._cell(result.separation_after)}")
    print(f"episode accuracy: {result.accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fttim",
        allow_abbrev=False,
        description="Transductive one-shot inference with a fine-tuned "
                    "norm-induced feature transformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags are spelled in full: an abbreviation is a usage error
    p_eval = sub.add_parser("evaluate", allow_abbrev=False,
                            help="run an episodic campaign")
    _add_source_flags(p_eval, campaign=True)
    _add_tim_flags(p_eval)
    p_eval.add_argument("--variant", choices=VARIANTS, default="ft_tim")
    p_eval.set_defaults(func=_cmd_evaluate, parser=p_eval)

    p_cmp = sub.add_parser("compare", allow_abbrev=False,
                           help="paired comparison across all variants")
    _add_source_flags(p_cmp, campaign=True)
    _add_tim_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare, parser=p_cmp, variant="ft_tim")

    p_ver = sub.add_parser("verify-theory", allow_abbrev=False,
                           help="numeric verification of the clustering-side theory")
    for name, default in _THEORY_COUNTS.items():
        p_ver.add_argument(f"--{name.replace('_', '-')}", type=int, default=default)
    p_ver.add_argument("--gap-instances", type=int, help="--tau-sweep only (default: 100)")
    p_ver.add_argument("--tau-sweep", metavar="T1,T2,...",
                       help="emit a per-instance gap CSV at these temperatures")
    p_ver.add_argument("--seed", type=int, default=None)
    _add_workers_flag(p_ver)
    p_ver.add_argument("--out", metavar="PATH", help="--tau-sweep only (default: gap_trace.csv)")
    p_ver.add_argument("--config", metavar="FILE")
    p_ver.set_defaults(func=_cmd_verify_theory, parser=p_ver)

    p_exp = sub.add_parser("export-embeddings", allow_abbrev=False,
                           help="fit one episode and dump feature tables")
    _add_source_flags(p_exp, campaign=False)
    _add_tim_flags(p_exp)
    p_exp.add_argument("--variant", choices=VARIANTS, default="ft_tim")
    p_exp.set_defaults(func=_cmd_export, parser=p_exp)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, after merging its config file and resolving its
    seed. A file it cannot read, parse, sample from or write, a pool
    worker's included, is a usage error: one line that names the file. A
    verify-theory pool worker that dies is one line and exit code 1. Each
    command writes its files before it prints, so a reader of stdout that
    goes away costs only the printed lines: exit code 1."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a lone "-1e-5" or "-inf" as an option: join it to its float flag
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _FLOAT_FLAGS and argv[i][:1] == "-" and argv[i][1:2] != "-":
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    root = build_parser()
    args = root.parse_args(argv)
    parser = args.parser
    if args.config:
        # the file's entries become defaults, so the flags on argv win
        parser.set_defaults(**_config_defaults(args.config, parser))
        args = root.parse_args(argv)
    args.seed = _resolve_seed(args, parser)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except bench.WorkerDied as exc:
        print(f"{parser.prog}: error: worker died: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python flushes stdout again at exit, so it points at devnull now
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FeatureFormatError as exc:  # names the file and line itself
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"{exc.filename}: {exc.strerror}")
    except TooFewClassesError as exc:
        parser.error(f"{args.features}: {exc}")
