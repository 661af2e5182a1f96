"""Command-line surface: evaluate, compare, verify-theory, export-embeddings.

Flags may also come from a flat ``key=value`` config file (``--config``);
explicit flags win over file values. ``FTTIM_SEED`` serves as the seed
fallback when neither a flag nor a config entry provides one.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import analysis, bench
from .engine import TimConfig, UPDATE_RULES, VARIANTS

# every solver field has a --tim-* flag; the variant comes from the command
_TIM_FIELDS = tuple(f.name for f in dataclasses.fields(TimConfig) if f.name != "variant")


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", metavar="PATH", help="feature bank file to sample from")
    p.add_argument("--synthetic", action="store_true",
                   help="sample tasks from the synthetic generator")
    p.add_argument("--episodes", type=int, default=600)
    p.add_argument("--ways", type=int, default=5, help="classes per task")
    p.add_argument("--queries", type=int, default=15, help="queries per class")
    p.add_argument("--heldout", type=int, default=0,
                   help="held-out samples per class (semi-supervised protocol)")
    p.add_argument("--seed", type=int, default=None,
                   help="base episode seed (fallback: FTTIM_SEED, then 0)")
    p.add_argument("--workers", type=int, default=None,
                   help="episode worker processes (default: available parallelism)")
    p.add_argument("--out", metavar="PATH", help="output path")
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value config file; flags override it")
    p.add_argument("--dim", type=int, default=bench.STANDARD_SUITE["dim"],
                   help="synthetic feature dimension")
    p.add_argument("--relevant-dims", type=int,
                   default=bench.STANDARD_SUITE["relevant_dims"])
    p.add_argument("--class-separation", type=float,
                   default=bench.STANDARD_SUITE["inter_class_separation"])
    p.add_argument("--class-stddev", type=float,
                   default=bench.STANDARD_SUITE["intra_class_stddev"])


def _add_tim_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("solver overrides (defaults from TimConfig)")
    group.add_argument("--tim-tau", type=float, default=None)
    group.add_argument("--tim-lambda-ce", type=float, default=None)
    group.add_argument("--tim-alpha-cond", type=float, default=None)
    group.add_argument("--tim-iterations", type=int, default=None)
    group.add_argument("--tim-transform-start", type=int, default=None)
    group.add_argument("--tim-lr-theta", type=float, default=None)
    group.add_argument("--tim-lr-w", type=float, default=None)
    group.add_argument("--tim-update-rule", choices=UPDATE_RULES, default=None)


def _merge_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser,
                       argv: list[str]) -> None:
    """Fill in values from the key=value file for flags not given on argv."""
    if not args.config:
        return
    path = Path(args.config)
    if not path.exists():
        parser.error(f"--config file not found: {path}")
    actions = {}
    for opt, action in parser._option_string_actions.items():
        if opt.startswith("--"):
            actions[opt[2:]] = action
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
        opt = action.option_strings[0]
        if any(a == opt or a.startswith(opt + "=") for a in argv):
            continue  # explicit flag wins
        if isinstance(action, argparse._StoreTrueAction):
            setattr(args, action.dest, value.lower() in ("1", "true", "yes"))
        elif action.type is not None:
            try:
                setattr(args, action.dest, action.type(value))
            except ValueError:
                parser.error(f"--config {path} line {lineno}: bad value for {key!r}")
        else:
            setattr(args, action.dest, value)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FTTIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"FTTIM_SEED is not an integer: {env!r}")
    return 0


def _validate_campaign(args, parser: argparse.ArgumentParser) -> None:
    if bool(args.features) == bool(args.synthetic):
        parser.error("exactly one of --features or --synthetic is required")
    if args.episodes <= 0:
        parser.error("--episodes must be a positive integer")
    if args.ways < 2:
        parser.error("--ways must be at least 2")
    if args.queries < 1:
        parser.error("--queries must be at least 1")
    if args.heldout < 0:
        parser.error("--heldout must be non-negative")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")


def _source(args):
    if args.synthetic:
        return bench.SyntheticSource(
            num_classes=args.ways,
            dim=args.dim,
            relevant_dims=args.relevant_dims,
            intra_class_stddev=args.class_stddev,
            inter_class_separation=args.class_separation,
            queries_per_class=args.queries,
            heldout_per_class=args.heldout,
        )
    return bench.BankSource(
        path=args.features,
        num_classes=args.ways,
        queries_per_class=args.queries,
        heldout_per_class=args.heldout,
    )


def _tim_config(args, variant: str, parser: argparse.ArgumentParser) -> TimConfig:
    overrides = {"variant": variant}
    for name in _TIM_FIELDS:
        value = getattr(args, f"tim_{name}")
        if value is not None:
            overrides[name] = value
    try:
        return TimConfig(**overrides)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_evaluate(args, parser, argv) -> int:
    _merge_config_file(args, parser, argv)
    _validate_campaign(args, parser)
    seed = _resolve_seed(args)
    config = _tim_config(args, args.variant, parser)
    workers = args.workers or bench.default_workers()
    report = bench.evaluate(_source(args), config, args.episodes, seed, workers)
    print(report.table())
    print(f"wall_time_s: {report.wall_time_s:.2f}")
    out = args.out or "eval_report.json"
    bench.write_json(report.to_json_dict(), out)
    print(f"report written to {out}")
    return 1 if report.failures else 0


def _cmd_compare(args, parser, argv) -> int:
    _merge_config_file(args, parser, argv)
    _validate_campaign(args, parser)
    seed = _resolve_seed(args)
    config = _tim_config(args, "ft_tim", parser)
    workers = args.workers or bench.default_workers()
    report = bench.compare(_source(args), config, args.episodes, seed, workers)
    print(report.table())
    out = args.out or "compare_report.json"
    bench.write_json(report.to_json_dict(), out)
    print(f"report written to {out}")
    return 1 if any(r.failures for r in report.reports.values()) else 0


def _cmd_verify_theory(args, parser, argv) -> int:
    _merge_config_file(args, parser, argv)
    seed = _resolve_seed(args)
    if args.tamper_scale is not None:
        analysis._CLUSTERING_SCALE_OVERRIDE = args.tamper_scale
    try:
        results = bench.run_theory_suite(
            decomposition_instances=args.decomposition_instances,
            kkt_instances=args.kkt_instances,
            lloyd_instances=args.lloyd_instances,
            mm_instances=args.mm_instances,
            sweep_instances=args.sweep_instances,
            base_seed=seed,
        )
    finally:
        analysis._CLUSTERING_SCALE_OVERRIDE = None
    for r in results:
        print(r.line())
    if args.tau_sweep:
        try:
            taus = tuple(float(t) for t in args.tau_sweep.split(","))
        except ValueError:
            parser.error("--tau-sweep must be a comma-separated list of floats")
        out = args.out or "gap_trace.csv"
        bench.write_gap_trace(out, instances=args.gap_instances, taus=taus,
                              base_seed=seed)
        print(f"gap trace written to {out}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_export(args, parser, argv) -> int:
    _merge_config_file(args, parser, argv)
    args.episodes = 1
    _validate_campaign(args, parser)
    if not args.out:
        parser.error("--out directory is required for export-embeddings")
    seed = _resolve_seed(args)
    config = _tim_config(args, args.variant, parser)
    result = bench.export_embeddings(_source(args), config, seed, args.out)
    for name, path in result.paths.items():
        print(f"{name}: {path}")
    print(f"class separation before transform: {result.separation_before:.4f}")
    print(f"class separation after transform:  {result.separation_after:.4f}")
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

    # flags are spelled in full: _merge_config_file finds explicit flags by
    # their full spelling, so an abbreviation would lose to the config file
    p_eval = sub.add_parser("evaluate", allow_abbrev=False,
                            help="run an episodic campaign")
    _add_source_flags(p_eval)
    _add_tim_flags(p_eval)
    p_eval.add_argument("--variant", choices=VARIANTS, default="ft_tim")
    p_eval.set_defaults(func=_cmd_evaluate, parser=p_eval)

    p_cmp = sub.add_parser("compare", allow_abbrev=False,
                           help="paired comparison across all variants")
    _add_source_flags(p_cmp)
    _add_tim_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare, parser=p_cmp)

    p_ver = sub.add_parser("verify-theory", allow_abbrev=False,
                           help="numeric verification of the clustering-side theory")
    p_ver.add_argument("--decomposition-instances", type=int, default=1000)
    p_ver.add_argument("--kkt-instances", type=int, default=100)
    p_ver.add_argument("--lloyd-instances", type=int, default=200)
    p_ver.add_argument("--mm-instances", type=int, default=500)
    p_ver.add_argument("--sweep-instances", type=int, default=100)
    p_ver.add_argument("--gap-instances", type=int, default=100)
    p_ver.add_argument("--tau-sweep", metavar="T1,T2,...",
                       help="emit a per-instance gap CSV at these temperatures")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", metavar="PATH")
    p_ver.add_argument("--config", metavar="FILE")
    p_ver.add_argument("--tamper-scale", type=float, default=None,
                       help=argparse.SUPPRESS)
    p_ver.set_defaults(func=_cmd_verify_theory, parser=p_ver)

    p_exp = sub.add_parser("export-embeddings", allow_abbrev=False,
                           help="fit one episode and dump feature tables")
    _add_source_flags(p_exp)
    _add_tim_flags(p_exp)
    p_exp.add_argument("--variant", choices=VARIANTS, default="ft_tim")
    p_exp.set_defaults(func=_cmd_export, parser=p_exp)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, args.parser, argv)
