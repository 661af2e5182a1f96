"""Campaign runner, report schema, CLI flags, theory harness, export."""

import contextlib
import errno
import importlib
import importlib.util
import inspect
import io
import json
import os
import re
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fttim.bench as bench
from fttim import (
    Episode,
    FeatureBank,
    TimConfig,
    load_feature_bank,
    sample_episode,
    write_feature_bank,
)
from fttim.cli import build_parser, main
from test_reference_bank import _bank_texts


def _fast_args(episodes=12, extra=()):
    return [
        "evaluate", "--synthetic", "--episodes", str(episodes),
        "--queries", "5", "--dim", "16", "--relevant-dims", "5",
        "--tim-iterations", "60", "--tim-transform-start", "20",
        "--workers", "1", "--seed", "7",
        *extra,
    ]


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": X', text)


# --- evaluate ---------------------------------------------------------------

def test_evaluate_report_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(_fast_args(extra=["--out", str(out)]))
    assert code == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["variant", "episodes", "mean_accuracy",
                             "ci95_halfwidth", "per_episode", "config_echo",
                             "wall_time_s"]
    assert payload["variant"] == "ft_tim"
    assert payload["episodes"] == 12
    assert 0.0 <= payload["mean_accuracy"] <= 1.0
    assert payload["ci95_halfwidth"] is None  # fewer than 30 episodes
    assert len(payload["per_episode"]) == 12
    entry = payload["per_episode"][0]
    assert list(entry) == ["seed", "accuracy", "iterations_run", "failure_flag"]
    assert entry["seed"] == 7
    echo = payload["config_echo"]
    assert echo["base_seed"] == 7
    assert echo["tim"]["iterations"] == 60
    table = capsys.readouterr().out
    assert "ft_tim" in table


def test_config_echo_and_paired_key_order(tmp_path):
    # the echo, its source and tim entries, and compare's paired entries are
    # built from dataclass fields, so their key order is pinned here
    config = TimConfig(iterations=4, transform_start=2)
    synthetic = bench.SyntheticSource(dim=8, relevant_dims=3, queries_per_class=2)
    echo = bench.evaluate(synthetic, config, 1, 0).to_json_dict()["config_echo"]
    assert list(echo) == ["source", "protocol", "episodes", "base_seed", "tim"]
    assert list(echo["source"]) == [
        "kind", "num_classes", "dim", "relevant_dims", "intra_class_stddev",
        "inter_class_separation", "queries_per_class", "heldout_per_class"]
    assert list(echo["tim"]) == [
        "tau", "lambda_ce", "alpha_cond", "iterations", "transform_start",
        "lr_theta", "lr_w", "update_rule", "variant"]
    bank_path = tmp_path / "bank.csv"
    rng = np.random.default_rng(0)
    write_feature_bank(FeatureBank(dim=4, class_ids=np.repeat(np.arange(3), 3),
                                   vectors=rng.standard_normal((9, 4))), bank_path)
    bank = bench.BankSource(str(bank_path), num_classes=2, queries_per_class=2)
    echo = bench.evaluate(bank, config, 1, 0).to_json_dict()["config_echo"]
    assert list(echo["source"]) == [
        "kind", "path", "num_classes", "queries_per_class", "heldout_per_class"]
    paired = bench.compare(synthetic, config, 1, 0).to_json_dict()["paired"]
    assert [list(p) for p in paired] == [
        ["pair", "n", "mean_diff", "ci95_halfwidth", "wins", "losses", "ties"]] * 2


def test_every_traced_name_resolves():
    # the benchmark's tracer patches these module attributes by name, so a
    # renamed or removed function would silently lose its span
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(f"fttim.{module}"), attr, None)), \
            (module, attr)


def test_evaluate_deterministic_across_runs_and_workers(tmp_path):
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"{name}.json"
        args = _fast_args(episodes=8)
        args[args.index("--workers") + 1] = workers
        assert main(args + ["--out", str(out)]) == 0
        outs.append(_strip_wall_time(out.read_text()))
    assert outs[0] == outs[1] == outs[2]


def test_config_echo_round_trips_into_identical_run(tmp_path):
    out = tmp_path / "r.json"
    assert main(_fast_args(episodes=6, extra=["--out", str(out)])) == 0
    payload = json.loads(out.read_text())
    echo = payload["config_echo"]
    assert "seed" not in echo["tim"]
    source_args = {k: v for k, v in echo["source"].items() if k != "kind"}
    rebuilt = bench.evaluate(
        bench.SyntheticSource(**source_args),
        TimConfig(**echo["tim"]),
        episodes=echo["episodes"],
        base_seed=echo["base_seed"],
        workers=1,
    )
    original = [e["accuracy"] for e in payload["per_episode"]]
    assert [o.accuracy for o in rebuilt.per_episode] == original
    assert rebuilt.mean_accuracy == payload["mean_accuracy"]


def test_evaluate_reports_ci_at_30_episodes(tmp_path):
    out = tmp_path / "r.json"
    assert main(_fast_args(episodes=30, extra=["--out", str(out)])) == 0
    payload = json.loads(out.read_text())
    assert payload["ci95_halfwidth"] > 0.0


def test_episodes_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(_fast_args(episodes=0))
    assert exc.value.code == 2
    assert "--episodes" in capsys.readouterr().err


def test_source_flags_are_exclusive(tmp_path, capsys):
    bank = tmp_path / "bank.csv"
    bank.write_text("d=2 n=1\n0,1.0,0.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--synthetic", "--features", str(bank)])
    assert exc.value.code == 2
    assert "--features or --synthetic" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["evaluate", "--episodes", "3"])  # neither source


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FTTIM_SEED", "321")
    out = tmp_path / "r.json"
    args = _fast_args(episodes=3, extra=["--out", str(out)])
    del args[args.index("--seed") + 1]
    args.remove("--seed")
    assert main(args) == 0
    assert json.loads(out.read_text())["config_echo"]["base_seed"] == 321


def test_non_integer_seed_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FTTIM_SEED", "seven")
    args = _fast_args(episodes=1)
    del args[args.index("--seed"):args.index("--seed") + 2]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "error: FTTIM_SEED is not an integer: 'seven'" in capsys.readouterr().err


def _unusable_bank(tmp_path, case):
    """(path, reason) of a feature bank that cannot be used."""
    path = tmp_path / f"{case}.csv"
    if case == "malformed":
        path.write_text("d=2 n=2\n0,1.0,2.0\n1,x,2.0\n")
        return path, "line 3: non-numeric feature field"
    if case == "not_utf8":
        path.write_bytes(b"d=2 n=1\n0,1.0,\xff\n")
        return path, "line 2: non-ASCII character in a record"
    if case == "not_utf8_header":
        path.write_bytes(b"d=2 n=1\xff\n0,1.0,2.0\n")
        return path, "line 1: malformed header 'd=2 n=1\ufffd', expected 'd=<int> n=<int>'"
    if case == "impossible_dim":
        path.write_bytes(b"d=1000000000000 n=1\n0,1.0\n")
        return path, "line 2: expected 1000000000001 fields, got 2"
    if case == "class_id_past_int64":
        path.write_bytes(b"d=2 n=1\n9223372036854775808,1.0,2.0\n")
        return path, "line 2: class id does not fit in int64"
    if case == "header_digits":
        path.write_bytes(b"d=1" + b"0" * 5000 + b" n=1\n0,1.0\n")
        return path, "line 1: header count has too many digits"
    if case == "too_few_classes":
        write_feature_bank(FeatureBank(dim=2, class_ids=np.repeat([0, 1], 20),
                                       vectors=np.ones((40, 2))), path)
        return path, "need 5 classes with >= 16 records each, bank has 2 eligible of 2 total"
    return path, "No such file or directory"


@pytest.mark.parametrize("case", ["missing", "malformed", "too_few_classes", "not_utf8",
                                  "not_utf8_header", "impossible_dim", "class_id_past_int64",
                                  "header_digits"])
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["evaluate", "compare", "export-embeddings"])
def test_unusable_bank_is_usage_error(tmp_path, capsys, command, workers, case):
    path, reason = _unusable_bank(tmp_path, case)
    campaign = [] if command == "export-embeddings" else ["--episodes", "4", "--workers", workers]
    with pytest.raises(SystemExit) as exc:
        main([command, "--features", str(path), *campaign, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"fttim {command}: error: {path}: {reason}"


@pytest.mark.parametrize("flags,message", [
    (["--dim", "4"], "relevant_dims (10) exceeds dim (4)"),
    (["--class-stddev", "-0.5"], "stddev and separation must be non-negative"),
], ids=["dim", "stddev"])
@pytest.mark.parametrize("command", ["evaluate", "compare", "export-embeddings"])
def test_synthetic_flags_that_cannot_form_a_task_are_usage_errors(
        tmp_path, capsys, command, flags, message):
    campaign = [] if command == "export-embeddings" else ["--episodes", "2", "--workers", "1"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--synthetic", *campaign, "--out", str(tmp_path / "out"), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"fttim {command}: error: {message}"


@pytest.mark.parametrize("command", ["evaluate", "compare", "verify-theory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out"
    if command == "verify-theory":
        args = [*_SMALL_THEORY, "--tau-sweep", "1,0.1", "--gap-instances", "2"]
    else:
        args = [command, "--synthetic", "--episodes", "1", "--queries", "2", "--dim", "8",
                "--relevant-dims", "3", "--tim-iterations", "4", "--tim-transform-start", "2",
                "--workers", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # checked before the run prints anything
    err = captured.err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"fttim {command}: error: {out}: No such file or directory"


@pytest.mark.parametrize("flags", [["--episodes", "3"], ["--workers", "2"],
                                   ["--config", "run.cfg"]], ids=["episodes", "workers", "config"])
def test_export_takes_no_campaign_flags(tmp_path, monkeypatch, capsys, flags):
    # export-embeddings solves one episode in-process
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("episodes=3\n")
    with pytest.raises(SystemExit) as exc:
        main(["export-embeddings", "--synthetic", "--out", "dump", *flags])
    assert exc.value.code == 2
    assert not Path("dump").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-160])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_bank_row_whose_norm_overflows_or_underflows_is_flagged(tmp_path, capsys,
                                                                workers, scale):
    # six classes of ten records; ways=5 with nine queries uses every record
    # of a chosen class, so the episodes that pick class 0 meet its scaled row
    vecs = np.random.default_rng(0).standard_normal((60, 8))
    vecs[3] *= scale
    bank_path = tmp_path / "bank.csv"
    write_feature_bank(FeatureBank(dim=8, class_ids=np.repeat(np.arange(6), 10),
                                   vectors=vecs), bank_path)
    out = tmp_path / "r.json"
    code = main([
        "evaluate", "--features", str(bank_path), "--episodes", "4", "--queries", "9",
        "--tim-iterations", "10", "--tim-transform-start", "3",
        "--seed", "0", "--workers", workers, "--out", str(out),
    ])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    per_episode = json.loads(out.read_text())["per_episode"]
    assert any(e["failure_flag"] for e in per_episode)
    outcomes = bench.run_episodes(bench.BankSource(str(bank_path), 5, 9, 0),
                                  TimConfig(iterations=10, transform_start=3),
                                  episodes=4, base_seed=0)
    for outcome, entry in zip(outcomes, per_episode):
        assert outcome.failure_flag == entry["failure_flag"]
        if outcome.failure_flag:
            assert entry["iterations_run"] == 0
            assert re.fullmatch(r"episode input: row \d+ has a norm that overflows "
                                r"or underflows float64", outcome.error)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_overflowing_synthetic_draw_is_flagged_at_every_worker_count(tmp_path, capsys,
                                                                     command):
    # at --class-stddev 1e308 the draw overflows to inf in the first support row
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"{workers}.json"
        code = main([command, "--synthetic", "--episodes", "2", "--workers", workers,
                     "--tim-iterations", "5", "--class-stddev", "1e308", "--out", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        reports.append(out.read_text())
    assert _strip_wall_time(reports[0]) == _strip_wall_time(reports[1])

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(reports[0], parse_constant=reject)
    variants = payload["variants"].values() if command == "compare" else [payload]
    for report in variants:
        assert [(e["failure_flag"], e["iterations_run"]) for e in report["per_episode"]] \
            == [(True, 0), (True, 0)]
    outcomes = bench.run_episodes(bench.SyntheticSource(intra_class_stddev=1e308),
                                  TimConfig(iterations=5), episodes=2, base_seed=0)
    assert [o.error for o in outcomes] == ["episode input: row 0 has a non-finite entry"] * 2


@pytest.mark.parametrize("make", [
    lambda path: bench.SyntheticSource(heldout_per_class=-2),
    lambda path: bench.BankSource(str(path), 5, 3, -2),
], ids=["synthetic", "bank"])
def test_sources_reject_a_negative_heldout_count(tmp_path, make):
    path = tmp_path / "bank.csv"
    write_feature_bank(FeatureBank(dim=4, class_ids=np.repeat(np.arange(5), 8),
                                   vectors=np.random.default_rng(0).standard_normal((40, 4))),
                       path)
    with pytest.raises(ValueError, match="heldout_per_class"):
        make(path)


# the flags after --seed/--workers that evaluate, compare and export-embeddings share
_SHARED_TAIL = [
    "--out", "--config", "--dim", "--relevant-dims", "--class-separation", "--class-stddev",
    "--tim-tau", "--tim-lambda-ce", "--tim-alpha-cond", "--tim-iterations",
    "--tim-transform-start", "--tim-lr-theta", "--tim-lr-w", "--tim-update-rule",
]


def test_cli_surface_is_pinned():
    # each flag here changes what a run does; a new one must be added on purpose
    expected = {
        "evaluate": ["-h", "--help", "--features", "--synthetic", "--episodes", "--ways",
                     "--queries", "--heldout", "--seed", "--workers", *_SHARED_TAIL,
                     "--variant"],
        "compare": ["-h", "--help", "--features", "--synthetic", "--episodes", "--ways",
                    "--queries", "--heldout", "--seed", "--workers", *_SHARED_TAIL],
        "verify-theory": ["-h", "--help", "--decomposition-instances", "--kkt-instances",
                          "--lloyd-instances", "--mm-instances", "--sweep-instances",
                          "--gap-instances", "--tau-sweep", "--seed", "--workers", "--out",
                          "--config"],
        "export-embeddings": ["-h", "--help", "--features", "--synthetic", "--ways",
                              "--queries", "--heldout", "--seed", *_SHARED_TAIL,
                              "--variant"],
    }
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    surface = {name: [opt for action in sub._actions for opt in action.option_strings]
               for name, sub in subparsers.choices.items()}
    assert surface == expected


def test_package_surface_is_pinned():
    # the names `import fttim` gives, by the module they come from; a new
    # one must be added here on purpose
    expected = [
        "DegenerateVectorError", "Episode", "FeatureBank", "FeatureFormatError",
        "SyntheticTaskSpec", "TooFewClassesError", "class_separation_ratio",
        "generate_synthetic_episode", "l2_normalize_rows", "load_feature_bank",
        "sample_episode", "write_feature_bank",
        "init_transform", "norm_induced_map",
        "EpisodeFailure", "LossTerms", "RunResult", "SolverState", "TimConfig", "posteriors",
        "predict_features", "run_ft_tim", "tim_gradients", "tim_loss",
        "BankSource", "CompareReport", "EvalReport", "SyntheticSource", "compare", "evaluate",
        "export_embeddings", "run_theory_suite",
    ]
    fttim = importlib.import_module("fttim")
    names = [name for name, value in vars(fttim).items()
             if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(names) == sorted(expected)
    # the analysis toolkit is reached through its module
    assert callable(fttim.analysis.bound_check)


def _small_bank(path, seed):
    write_feature_bank(FeatureBank(dim=4, class_ids=np.repeat(np.arange(3), 4),
                                   vectors=np.random.default_rng(seed).standard_normal((12, 4))),
                       path)


def test_bank_source_reads_a_rewritten_bank_afresh(tmp_path):
    path = tmp_path / "bank.csv"
    _small_bank(path, 0)
    old = bench.BankSource(str(path), 2, 2, 0).episode(5)
    _small_bank(path, 1)
    new = bench.BankSource(str(path), 2, 2, 0).episode(5)
    assert not np.array_equal(old.query_vectors, new.query_vectors)
    assert np.array_equal(new.query_vectors, sample_episode(load_feature_bank(path),
                                                            2, 2, 0, 5).query_vectors)


def test_campaign_parses_the_bank_once_in_the_parent(tmp_path, monkeypatch):
    # pool workers are forked, so they count with the patched loader too
    path, calls = tmp_path / "bank.csv", tmp_path / "calls"
    _small_bank(path, 0)
    real = bench.load_feature_bank

    def counted(*args, **kwargs):
        with open(calls, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "load_feature_bank", counted)
    report = bench.evaluate(bench.BankSource(str(path), 2, 2, 0),
                            TimConfig(iterations=4, transform_start=2), 2, 0, workers=2)
    assert report.failures == 0
    assert calls.read_text().split() == [str(os.getpid())]


def test_bank_heldout_plain_rule_reports_identical_across_workers(tmp_path):
    # seven classes of six records: ways 5 with 3 queries and 2 held out use
    # every record of a chosen class
    bank = tmp_path / "bank.csv"
    write_feature_bank(FeatureBank(dim=12, class_ids=np.repeat(np.arange(7), 6),
                                   vectors=np.random.default_rng(4).standard_normal((42, 12))),
                       bank)
    texts = set()
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.json"
        code = main(["evaluate", "--features", str(bank), "--episodes", "7", "--queries", "3",
                     "--heldout", "2", "--tim-update-rule", "plain_gradient",
                     "--tim-iterations", "60", "--tim-transform-start", "20",
                     "--workers", str(workers), "--seed", "3", "--out", str(out)])
        assert code == 0
        texts.add(_strip_wall_time(out.read_text()))
    assert len(texts) == 1
    echo = json.loads(out.read_text())["config_echo"]
    assert echo["protocol"] == "semi_supervised"
    assert echo["source"]["heldout_per_class"] == 2


def test_config_file_merging_and_flag_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "episodes=5\n"
        "tim-iterations=40\n"
        "seed=99\n"
        "# comment line\n"
        "tim_transform_start=10\n"
    )
    out = tmp_path / "r.json"
    code = main([
        "evaluate", "--synthetic", "--queries", "4", "--dim", "12",
        "--relevant-dims", "4", "--workers", "1",
        "--config", str(cfg), "--episodes", "6", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["episodes"] == 6  # explicit flag beats the file
    assert payload["config_echo"]["tim"]["iterations"] == 40
    assert payload["config_echo"]["tim"]["transform_start"] == 10
    assert payload["config_echo"]["base_seed"] == 99


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, case):
    cfg = tmp_path / "run.cfg"
    if case == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"episodes=3\n# caf\xe9\n")
    with pytest.raises(SystemExit) as exc:
        main(_fast_args(extra=["--config", str(cfg)]))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    reason = "Is a directory" if case == "directory" else "not UTF-8 text"
    assert err.splitlines()[-1] == f"fttim evaluate: error: --config {cfg}: {reason}"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus-key=3\n")
    with pytest.raises(SystemExit) as exc:
        main(_fast_args(extra=["--config", str(cfg)]))
    assert exc.value.code == 2
    assert "bogus-key" in capsys.readouterr().err


def test_tim_seed_is_not_an_option(tmp_path, capsys):
    # the solver's initialization is deterministic, so no solver seed exists
    with pytest.raises(SystemExit) as exc:
        main(_fast_args(extra=["--tim-seed", "1"]))
    assert exc.value.code == 2
    assert "--tim-seed" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# solver\ntim_seed=1\n")
    with pytest.raises(SystemExit) as exc:
        main(_fast_args(extra=["--config", str(cfg)]))
    assert exc.value.code == 2
    assert "line 2: unknown key 'tim_seed'" in capsys.readouterr().err


def _forbid_runs(monkeypatch):
    """Make every command's work raise, so a usage error must come first."""
    def ran(*args, **kwargs):
        raise AssertionError("the command ran before its arguments were checked")
    for name in ("evaluate", "compare", "run_theory_suite", "export_embeddings"):
        monkeypatch.setattr(bench, name, ran)


_COMMANDS = {
    "evaluate": ["evaluate", "--synthetic", "--episodes", "2", "--workers", "1"],
    "compare": ["compare", "--synthetic", "--episodes", "2", "--workers", "1"],
    "verify-theory": ["verify-theory"],
    "export-embeddings": ["export-embeddings", "--synthetic"],
}


def _usage_error(tmp_path, capsys, command, flag, value, spelling, commands=_COMMANDS):
    """The last stderr line of ``command`` (its arguments from ``commands``)
    given ``flag value`` as a flag, as one ``flag=value`` argument, a config
    entry or (for --seed) FTTIM_SEED, after checking that it is an exit-2
    usage error without a traceback or any output."""
    args = [*commands[command], "--out", str(tmp_path / "out")]
    if spelling == "flag":
        args += [flag, value]
    elif spelling == "equals":
        args.append(f"{flag}={value}")
    elif spelling == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        args += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize("spelling", ["flag", "config", "env"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, command, spelling):
    _forbid_runs(monkeypatch)
    if spelling == "env":
        monkeypatch.setenv("FTTIM_SEED", "-7")
        message = "FTTIM_SEED must be non-negative: '-7'"
    else:
        monkeypatch.delenv("FTTIM_SEED", raising=False)
        message = "--seed must be non-negative"
    assert _usage_error(tmp_path, capsys, command, "--seed", "-1", spelling) == \
        f"fttim {command}: error: {message}"


@pytest.mark.parametrize("key", ["help", "config"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_and_config_are_not_config_keys(tmp_path, monkeypatch, capsys, command, key):
    _forbid_runs(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={'yes' if key == 'help' else 'x.cfg'}\n")
    with pytest.raises(SystemExit) as exc:
        main([*_COMMANDS[command], "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"fttim {command}: error: --config {cfg} line 1: unknown key {key!r}"


@pytest.mark.parametrize("flag,value,message", [
    ("--tim-tau", "nan", "tau must be finite"),
    ("--tim-tau", "inf", "tau must be finite"),
    ("--tim-lambda-ce", "inf", "lambda_ce must be finite"),
    ("--tim-alpha-cond", "nan", "alpha_cond must be finite"),
    ("--tim-lr-theta", "inf", "lr_theta must be finite"),
    ("--tim-lr-w", "nan", "lr_w must be finite"),
    ("--class-stddev", "nan", "stddev and separation must be finite"),
    ("--class-separation", "inf", "stddev and separation must be finite"),
])
@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize("command", ["evaluate", "compare", "export-embeddings"])
def test_non_finite_float_is_usage_error(tmp_path, monkeypatch, capsys, command, spelling,
                                         flag, value, message):
    _forbid_runs(monkeypatch)
    assert _usage_error(tmp_path, capsys, command, flag, value, spelling) == \
        f"fttim {command}: error: {message}"


# each float flag's message for a negative value
_NEGATIVE_FLOAT_MESSAGES = {
    "--tim-tau": "tau must be positive",
    "--tim-lr-theta": "learning rates must be positive",
    "--tim-lr-w": "learning rates must be positive",
    "--tim-lambda-ce": "loss weights must be non-negative",
    "--tim-alpha-cond": "loss weights must be non-negative",
    "--class-stddev": "stddev and separation must be non-negative",
    "--class-separation": "stddev and separation must be non-negative",
}


@pytest.mark.parametrize("command", ["evaluate", "compare", "export-embeddings"])
def test_negative_float_in_exponent_form_is_checked_as_flag_equals_value(
        tmp_path, monkeypatch, capsys, command):
    # argparse alone would take a separate "-1e-5" for an option; given
    # either way, the value reaches the program's own check
    _forbid_runs(monkeypatch)
    assert sorted(_NEGATIVE_FLOAT_MESSAGES) == sorted(_FLOAT_FLAGS)
    for flag, message in _NEGATIVE_FLOAT_MESSAGES.items():
        for spelling in ("equals", "flag"):
            assert _usage_error(tmp_path, capsys, command, flag, "-1e-5", spelling) == \
                f"fttim {command}: error: {message}"


@pytest.mark.parametrize("flag,value", [("--dim", "999"), ("--relevant-dims", "500"),
                                        ("--class-separation", "2.0"), ("--class-stddev", "7")])
@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize("command", ["evaluate", "compare", "export-embeddings"])
def test_synthetic_flag_with_a_bank_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                                   spelling, flag, value):
    # the bank does not exist: the flags are refused before it is read
    _forbid_runs(monkeypatch)
    commands = {command: [command, "--features", str(tmp_path / "bank.csv"),
                          *_COMMANDS[command][2:]]}
    assert _usage_error(tmp_path, capsys, command, flag, value, spelling, commands) == \
        f"fttim {command}: error: {flag} applies only to --synthetic"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if spelling == "config"
                                                          else [])


@pytest.mark.parametrize("value", ["ture", "2", "on", ""])
@pytest.mark.parametrize("on_argv", [False, True])
@pytest.mark.parametrize("command", ["evaluate", "compare", "export-embeddings"])
def test_config_boolean_that_is_not_a_boolean_is_usage_error(tmp_path, monkeypatch, capsys,
                                                             command, on_argv, value):
    # a bad file value is an error also when --synthetic on argv overrides it
    _forbid_runs(monkeypatch)
    args = _COMMANDS[command][2:] + (["--synthetic"] if on_argv else [])
    assert _usage_error(tmp_path, capsys, command, "--synthetic", value, "config",
                        {command: [command, *args]}) == \
        f"fttim {command}: error: --config {tmp_path / 'run.cfg'} line 1: bad value for 'synthetic'"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("value,synthetic", [("1", True), ("TRUE", True), ("Yes", True),
                                             ("0", False), ("False", False), ("NO", False)])
def test_config_booleans_take_either_case(tmp_path, monkeypatch, capsys, value, synthetic):
    _forbid_runs(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"synthetic={value}\n")
    args = ["evaluate", "--episodes", "2", "--workers", "1", "--config", str(cfg)]
    if synthetic:
        with pytest.raises(AssertionError, match="the command ran"):
            main(args)
    else:
        with pytest.raises(SystemExit):
            main(args)
        assert capsys.readouterr().err.splitlines()[-1] == \
            "fttim evaluate: error: exactly one of --features or --synthetic is required"


def test_bad_config_value_is_usage_error_when_the_flag_overrides_it(tmp_path, monkeypatch,
                                                                     capsys):
    _forbid_runs(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("episodes=3\nqueries=x\n")
    with pytest.raises(SystemExit) as exc:
        main(_fast_args(extra=["--config", str(cfg), "--queries", "4"]))
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"fttim evaluate: error: --config {cfg} line 2: bad value for 'queries'"


# --- failure propagation -----------------------------------------------------

@dataclass(frozen=True)
class _FixedSource:
    episode_obj: Episode

    def episode(self, seed):
        return self.episode_obj

    def echo(self):
        return {"kind": "fixed"}


def _degenerate_episode():
    eye = np.eye(6)
    return Episode(
        num_classes=5,
        dim=6,
        support_labels=np.arange(5),
        support_vectors=eye[:5],
        query_vectors=eye[5:6],
        query_hidden_labels=np.array([0]),
    )


def test_failed_episode_is_flagged_not_swallowed():
    cfg = TimConfig(variant="linear_transform", iterations=10, transform_start=3)
    report = bench.evaluate(_FixedSource(_degenerate_episode()), cfg,
                            episodes=2, base_seed=0, workers=1)
    assert report.failures == 2
    assert report.mean_accuracy is None
    for entry in report.per_episode:
        assert entry.failure_flag
        assert entry.accuracy is None
        assert entry.iterations_run == 3


def test_cli_exit_nonzero_on_failed_episode(tmp_path):
    # class 0 holds a vector orthogonal to every support: whenever it lands
    # in the query split, the linear variant maps it to zero at activation
    eye = np.eye(6)
    ids = [0, 0] + [c for c in range(1, 5) for _ in range(2)]
    vecs = np.vstack([eye[0], eye[5]] + [eye[c] for c in range(1, 5)
                                         for _ in range(2)])
    bank_path = tmp_path / "bank.csv"
    write_feature_bank(FeatureBank(dim=6, class_ids=np.array(ids), vectors=vecs),
                       bank_path)
    source = bench.BankSource(str(bank_path), 5, 1, 0)
    seed = next(s for s in range(50)
                if np.array_equal(source.episode(s).support_vectors[0], eye[0]))
    out = tmp_path / "r.json"
    code = main([
        "evaluate", "--features", str(bank_path), "--episodes", "1",
        "--queries", "1", "--variant", "linear_transform",
        "--tim-iterations", "10", "--tim-transform-start", "3",
        "--seed", str(seed), "--workers", "1", "--out", str(out),
    ])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["per_episode"][0]["failure_flag"] is True


def test_dead_pool_worker_flags_its_part_and_the_report_is_written(tmp_path, monkeypatch):
    # pool workers are forked, so they build episodes with the patched
    # generator; the worker of the second part (seeds 9, 10) dies at seed 10
    real = bench.generate_synthetic_episode

    def dying(spec):
        if spec.seed == 10:
            os._exit(3)
        return real(spec)

    monkeypatch.setattr(bench, "generate_synthetic_episode", dying)
    out = tmp_path / "r.json"
    code = main(_fast_args(episodes=4, extra=["--workers", "2", "--out", str(out)]))
    assert code == 1
    payload = json.loads(out.read_text())
    died = payload["per_episode"][2:]
    assert [(e["seed"], e["failure_flag"], e["iterations_run"]) for e in died] \
        == [(9, True, 0), (10, True, 0)]
    report = bench.evaluate(bench.SyntheticSource(dim=16, relevant_dims=5, queries_per_class=5),
                            TimConfig(iterations=60, transform_start=20),
                            episodes=4, base_seed=7, workers=2)
    assert all(o.error.startswith("worker died: ") for o in report.per_episode[2:])
    # the first part either finished before the pool broke or went down with it
    assert all(o.error == "" or o.error.startswith("worker died: ")
               for o in report.per_episode[:2])


class _RecordingPool:
    """A process pool that records its sizes and start methods and runs its
    jobs in process."""

    sizes: list = []
    start_methods: list = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)
        self.start_methods.append(mp_context and mp_context.get_start_method())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        import concurrent.futures
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    """Makes every process pool a _RecordingPool; returns the list of their sizes."""
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "start_methods", [])
    return _RecordingPool.sizes


@pytest.mark.parametrize("episodes,workers,processes", [(2, 64, 2), (5, 3, 3)])
def test_pool_has_one_process_per_part(recording_pool, episodes, workers, processes):
    # a fork pool starts all max_workers processes at its first submit, so
    # the pool is sized to its parts; the fake pool runs them in-process
    source = bench.SyntheticSource(dim=8, relevant_dims=3, queries_per_class=2)
    outcomes, _ = bench._run_campaign(source, TimConfig(iterations=4, transform_start=2),
                                      ("ft_tim",), episodes, 0, workers)
    assert recording_pool == [processes]
    assert [o.seed for o in outcomes["ft_tim"]] == list(range(episodes))
    assert not any(o.failure_flag for o in outcomes["ft_tim"])


def test_report_tables_format_missing_values_as_na():
    outcome = bench.EpisodeOutcome(0, None, None, 0, True, "x")
    ft = bench.EvalReport("ft_tim", 1, None, None, [outcome], {}, 0.0)
    base = bench.EvalReport("tim_baseline", 1, 0.123456, 0.05, [], {}, 0.0)
    assert ft.table() == (
        "variant            episodes  mean_acc    ci95  failures\n"
        "ft_tim                    1       n/a     n/a         1")
    report = bench.CompareReport(1, {"ft_tim": ft, "tim_baseline": base}, [
        bench.PairedStats("ft_tim-tim_baseline", 0, None, None, 0, 0, 0),
        bench.PairedStats("ft_tim-linear_transform", 3, 0.0125, 0.25, 2, 1, 0),
    ])
    assert report.table() == (
        "variant               mean_acc    ci95  failures\n"
        "ft_tim                     n/a     n/a         1\n"
        "tim_baseline            0.1235  0.0500         0\n"
        "\n"
        "pair                               mean_diff    ci95  wins  losses  ties\n"
        "ft_tim-tim_baseline                      n/a     n/a     0       0     0\n"
        "ft_tim-linear_transform              +0.0125  0.2500     2       1     0")


def test_zero_row_in_bank_is_flagged_not_a_crash(tmp_path, capsys):
    # six classes of three records; ways=5 with two queries uses every record
    # of a chosen class, so exactly the episodes that pick class 0 meet its
    # all-zero row and cannot normalize it
    rng = np.random.default_rng(3)
    ids = np.repeat(np.arange(6), 3)
    vecs = rng.standard_normal((18, 6))
    vecs[0] = 0.0
    bank_path = tmp_path / "bank.csv"
    write_feature_bank(FeatureBank(dim=6, class_ids=ids, vectors=vecs), bank_path)
    out = tmp_path / "r.json"
    code = main([
        "evaluate", "--features", str(bank_path), "--episodes", "6",
        "--queries", "2", "--tim-iterations", "10", "--tim-transform-start", "3",
        "--seed", "0", "--workers", "1", "--out", str(out),
    ])
    assert code == 1
    flags = [e["failure_flag"] for e in json.loads(out.read_text())["per_episode"]]
    assert any(flags) and not all(flags)
    outcomes = bench.run_episodes(bench.BankSource(str(bank_path), 5, 2, 0),
                                  TimConfig(iterations=10, transform_start=3),
                                  episodes=6, base_seed=0)
    for outcome, flag in zip(outcomes, flags):
        assert outcome.failure_flag == flag
        if flag:
            assert outcome.iterations_run == 0
            assert outcome.error == "episode input: row 0 has zero norm"
    assert "failures" in capsys.readouterr().out


def test_heldout_scoring_failure_is_flagged():
    # the held-out vector is orthogonal to every support and query vector,
    # so the fitted linear map sends it to zero
    eye = np.eye(7)
    episode = Episode(
        num_classes=5,
        dim=7,
        support_labels=np.arange(5),
        support_vectors=eye[:5],
        query_vectors=np.vstack([eye[:5], (eye[0] + eye[1]) / np.sqrt(2.0)]),
        query_hidden_labels=np.array([0, 1, 2, 3, 4, 0]),
        heldout_vectors=eye[6:7],
        heldout_hidden_labels=np.array([0]),
    )
    cfg = TimConfig(variant="linear_transform", iterations=10, transform_start=3)
    (outcome,) = bench.run_episodes(_FixedSource(episode), cfg, episodes=1, base_seed=0)
    assert outcome.failure_flag
    assert outcome.accuracy is None and outcome.heldout_accuracy is None
    assert outcome.iterations_run == 10
    assert outcome.error == "held-out scoring: transformed feature 0 is the zero vector"


def test_heldout_posteriors_that_overflow_are_flagged_without_a_warning():
    # at the largest tau, a logit overflows to -inf once its squared distance
    # passes 2: the held-out vector is farther than that from both prototypes,
    # so its posterior row is NaN, while each query sits on its own prototype
    eye = np.eye(3)
    episode = Episode(
        num_classes=2,
        dim=3,
        support_labels=np.arange(2),
        support_vectors=eye[:2],
        query_vectors=eye[:2],
        query_hidden_labels=np.arange(2),
        heldout_vectors=-(eye[:1] + eye[1:2]) / np.sqrt(2.0),
        heldout_hidden_labels=np.array([0]),
    )
    cfg = TimConfig(tau=np.finfo(np.float64).max, iterations=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (outcome,) = bench.run_episodes(_FixedSource(episode), cfg, episodes=1, base_seed=0)
    assert outcome.failure_flag
    assert outcome.accuracy is None and outcome.heldout_accuracy is None
    assert outcome.error == "held-out scoring: non-finite posteriors"


def test_abbreviated_flag_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("episodes=3\n")
    args = _fast_args(episodes=7, extra=["--config", str(cfg)])
    args[args.index("--episodes")] = "--epi"
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--epi" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify-theory", "--decomp", "10"])
    assert exc.value.code == 2


_FLOAT_FLAGS = ("--tim-tau", "--tim-lr-theta", "--tim-lr-w", "--tim-lambda-ce",
                "--tim-alpha-cond", "--class-stddev", "--class-separation")
_FINITE = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-8, 1.0, 15.0, 1e8,
                     1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


_EXPORT_TABLES = ["predicted_labels.csv", "prototypes.csv", "raw_features.csv",
                  "transformed_features.csv"]


_TINY_SYNTHETIC = ("--synthetic", "--dim", "8", "--relevant-dims", "3")


def _check_cli_outcome(command: str, flags: list[str], source=_TINY_SYNTHETIC) -> None:
    """Runs a tiny ``command`` on the episode ``source`` flags with ``flags``
    on top, every warning an error. It must end in one usage line and no
    file (exit 2), or else in a strict-JSON report whose exit code says
    whether an episode was flagged, or, for export-embeddings, four tables
    that load back (exit 0)."""
    campaign = command != "export-embeddings"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / ("report.json" if campaign else "tables")
        args = [command, *source, "--queries", "2",
                "--tim-iterations", "6", "--tim-transform-start", "2", "--out", str(out)]
        if campaign:
            args += ["--episodes", "2", "--workers", "1"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            try:
                code = main(args + flags)
            except SystemExit as exc:
                code = exc.code
        if code == 2:
            assert [p for p in Path(tmp).rglob("*") if p.is_file()] == []
            assert stdout.getvalue() == ""
            assert stderr.getvalue().splitlines()[-1].startswith(f"fttim {command}: error: ")
            assert "Traceback" not in stderr.getvalue()
            return
        assert stderr.getvalue() == ""
        if not campaign:
            assert code == 0 and sorted(p.name for p in out.iterdir()) == _EXPORT_TABLES
            for name in _EXPORT_TABLES:
                load_feature_bank(out / name)
            return
        assert code in (0, 1)
        payload = _strict_json(out.read_text())
    reports = payload["variants"].values() if command == "compare" else [payload]
    failures = 0
    for report in reports:
        flagged = [e for e in report["per_episode"] if e["failure_flag"]]
        assert all(e["accuracy"] is None for e in flagged)
        assert all(e["accuracy"] is not None for e in report["per_episode"]
                   if not e["failure_flag"])
        failures += len(flagged)
    assert code == (1 if failures else 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(command=st.sampled_from(["evaluate", "compare", "export-embeddings"]),
       floats=st.dictionaries(st.sampled_from(_FLOAT_FLAGS), _FINITE))
@example(command="export-embeddings", floats={"--tim-lr-w": 2.7037360873739725e+50})
def test_every_finite_float_ends_in_a_report_or_a_usage_line(command, floats):
    _check_cli_outcome(command, [f"{flag}={value!r}" for flag, value in floats.items()])


# the count flags; --workers is left out, as a large value starts that many processes
_INT_FLAGS = ("--ways", "--queries", "--heldout", "--dim", "--relevant-dims",
              "--tim-iterations", "--tim-transform-start", "--episodes")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(command=st.sampled_from(["evaluate", "compare", "export-embeddings"]),
       ints=st.dictionaries(st.sampled_from(_INT_FLAGS), st.integers(-3, 12)))
def test_every_small_count_ends_in_a_report_or_a_usage_line(command, ints):
    if command == "export-embeddings":
        ints.pop("--episodes", None)  # a one-episode command has no such flag
    _check_cli_outcome(command, [f"{flag}={value}" for flag, value in ints.items()])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(["evaluate", "compare", "export-embeddings"]),
       text=_bank_texts())
def test_every_bank_ends_in_a_report_or_a_usage_line(command, text):
    # canonical banks of extreme finite values, subnormals and signed zeros;
    # two ways of two queries take three records from each of two classes
    with tempfile.TemporaryDirectory() as tmp:
        bank = Path(tmp) / "bank.csv"
        bank.write_text(text, encoding="utf-8")
        _check_cli_outcome(command, ["--ways=2"], source=("--features", str(bank)))


# --- compare ------------------------------------------------------------------

def test_compare_pairs_identical_seeds_and_orders_variants(tmp_path):
    report = bench.compare(bench.SyntheticSource(), TimConfig(),
                           episodes=24, base_seed=0, workers=2)
    seeds = {v: [o.seed for o in r.per_episode] for v, r in report.reports.items()}
    assert seeds["ft_tim"] == seeds["tim_baseline"] == seeds["linear_transform"]
    ft = report.reports["ft_tim"].mean_accuracy
    base = report.reports["tim_baseline"].mean_accuracy
    lin = report.reports["linear_transform"].mean_accuracy
    assert ft > base
    assert ft > lin
    diff = {p.pair: p for p in report.paired}
    assert diff["ft_tim-tim_baseline"].mean_diff > 0
    assert (diff["ft_tim-tim_baseline"].wins
            > diff["ft_tim-tim_baseline"].losses)
    payload = report.to_json_dict()
    assert list(payload) == ["episodes", "variants", "paired"]


def test_compare_linear_worst_under_high_noise_dim_ratio():
    # overfitting mirror: with many noise dimensions the unconstrained linear
    # map falls below even the no-transform baseline
    source = bench.SyntheticSource(dim=128, relevant_dims=6)
    report = bench.compare(source, TimConfig(), episodes=24, base_seed=0,
                           workers=2)
    accs = {v: r.mean_accuracy for v, r in report.reports.items()}
    assert accs["linear_transform"] < accs["tim_baseline"]
    assert accs["linear_transform"] < accs["ft_tim"]


def test_compare_cli_writes_report(tmp_path):
    out = tmp_path / "cmp.json"
    code = main([
        "compare", "--synthetic", "--episodes", "4", "--queries", "4",
        "--dim", "16", "--relevant-dims", "5", "--tim-iterations", "40",
        "--tim-transform-start", "10", "--workers", "1", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["variants"]) == {"ft_tim", "tim_baseline",
                                        "linear_transform"}


def test_compare_with_every_pair_failed_writes_strict_json(tmp_path, capsys):
    # an enormous transform rate makes every ft_tim episode fail, so no pair
    # has two successes and the paired means do not exist
    out = tmp_path / "cmp.json"
    code = main([
        "compare", "--synthetic", "--episodes", "2", "--tim-lr-w", "1e300",
        "--tim-transform-start", "0", "--tim-iterations", "3",
        "--workers", "1", "--out", str(out),
    ])
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["variants"]["ft_tim"]["per_episode"][0]["failure_flag"]
    for pair in payload["paired"]:
        assert pair["n"] == 0
        assert pair["mean_diff"] is None
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("ft_tim-")]
    assert len(rows) == 2 and all(row.split()[1] == "n/a" for row in rows)


def test_overflowing_final_pass_is_a_failure_not_a_score(tmp_path):
    # the update at iteration 0 overflows the map, so the final scoring pass
    # is non-finite: the episode fails there instead of scoring argmax of NaN
    out = tmp_path / "r.json"
    code = main([
        "evaluate", "--synthetic", "--episodes", "2", "--workers", "1",
        "--tim-lr-w", "1e300", "--tim-transform-start", "0",
        "--tim-iterations", "1", "--out", str(out),
    ])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["mean_accuracy"] is None
    assert [(e["failure_flag"], e["iterations_run"]) for e in payload["per_episode"]] \
        == [(True, 1), (True, 1)]


# --- verify-theory ------------------------------------------------------------

_SMALL_THEORY = [
    "verify-theory", "--decomposition-instances", "20", "--kkt-instances", "4",
    "--lloyd-instances", "6", "--mm-instances", "10", "--sweep-instances", "6",
    "--seed", "0",
]


def test_verify_theory_small_run_passes(capsys):
    assert main(list(_SMALL_THEORY)) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "decomposition identity" in out
    # every property reports its worst-case value
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert all(re.fullmatch(r"PASS  .+: \d+/\d+  \(.+ [-+]?\d\.\d\de[-+]\d+\)", line)
               for line in lines), lines


@pytest.mark.parametrize("flag,value,message", [
    ("--decomposition-instances", "-3", "--decomposition-instances must be at least 1"),
    ("--kkt-instances", "0", "--kkt-instances must be at least 1"),
    ("--lloyd-instances", "0", "--lloyd-instances must be at least 1"),
    ("--mm-instances", "-1", "--mm-instances must be at least 1"),
    ("--sweep-instances", "0", "--sweep-instances must be at least 1"),
    ("--workers", "0", "--workers must be at least 1"),
    *[("--tau-sweep", taus, "--tau-sweep must be a comma-separated list of finite floats > 0")
      for taus in ("1,x", "1,,0.1", "1,0", "1,-0.1", "nan", "1,inf")],
])
def test_verify_theory_rejects_bad_arguments_before_running(
        monkeypatch, capsys, flag, value, message):
    def run_theory_suite(**kwargs):
        raise AssertionError("the suite ran before its arguments were checked")
    monkeypatch.setattr(bench, "run_theory_suite", run_theory_suite)
    with pytest.raises(SystemExit) as exc:
        main(list(_SMALL_THEORY) + [flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"fttim verify-theory: error: {message}"


def test_verify_theory_gap_instances_checked_only_with_a_sweep(capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(_SMALL_THEORY) + ["--tau-sweep", "1,0.1", "--gap-instances", "0"])
    assert exc.value.code == 2
    assert "--gap-instances must be at least 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(list(_SMALL_THEORY) + ["--gap-instances", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "fttim verify-theory: error: --gap-instances applies only with --tau-sweep"


# --gap-instances as a flag is the test above
@pytest.mark.parametrize("flag,value,spelling", [
    ("--out", "missing/x.csv", "flag"),
    ("--out", "missing/x.csv", "config"),
    ("--gap-instances", "0", "config"),
])
def test_verify_theory_sweep_flags_without_a_sweep_are_usage_errors(
        tmp_path, monkeypatch, capsys, flag, value, spelling):
    _forbid_runs(monkeypatch)
    args = list(_SMALL_THEORY)
    if spelling == "flag":
        args += [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        args += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == \
        f"fttim verify-theory: error: {flag} applies only with --tau-sweep"


@pytest.mark.parametrize("prop", ["decomposition", "kkt", "lloyd", "mm", "sweep"])
def test_theory_suite_with_one_property_reports_the_others_empty(prop):
    names = ["decomposition", "kkt", "lloyd", "mm", "sweep"]
    results = bench.run_theory_suite(
        **{f"{p}_instances": (3 if p == prop else 0) for p in names})
    assert len(results) == 5
    for name, r in zip(names, results):
        assert (r.passed, r.total) == ((3, 3) if name == prop else (0, 0)), r.line()
        assert r.ok and r.line().startswith("PASS  ")
        if name != prop:
            assert f": 0/0  (" in r.line()


def test_verify_theory_tamper_canary_fails(capsys, misscaled_decomposition):
    assert main(list(_SMALL_THEORY)) == 1
    assert "FAIL" in capsys.readouterr().out


def _verify_theory_run(tmp_path, capsys, seed, workers, name):
    """verify-theory at default counts with a gap trace: (exit code, stdout
    with the CSV path masked, CSV bytes)."""
    out = tmp_path / f"{name}.csv"
    code = main(["verify-theory", "--tau-sweep", "1,0.1,0.01,0.001", "--seed", str(seed),
                 "--workers", str(workers), "--out", str(out)])
    return code, capsys.readouterr().out.replace(str(out), "CSV"), out.read_bytes()


@pytest.mark.parametrize("seed", [0, 600_000])
def test_verify_theory_bytes_do_not_depend_on_workers_or_stacks(
        tmp_path, capsys, monkeypatch, seed):
    runs = [_verify_theory_run(tmp_path, capsys, seed, w, f"w{w}") for w in (1, 2, 3)]
    # stacks of three default-shape instances: new stack boundaries in every run
    monkeypatch.setattr(bench, "_THEORY_STACK_BYTES", 3 * 8 * 5 * 5 * 4 * 8)
    runs += [_verify_theory_run(tmp_path, capsys, seed, w, f"small{w}") for w in (1, 2)]
    assert all(run == runs[0] for run in runs[1:])
    code, out, _ = runs[0]
    lloyd = "Lloyd monotone + brute-force optimum on micro instances: "
    assert (code, lloyd + ("200/200" if seed == 0 else "199/200") in out) == (int(seed > 0), True)


def test_verify_theory_tamper_canary_fails_through_a_pool(capsys, misscaled_decomposition):
    assert main([*_SMALL_THEORY, "--workers", "2"]) == 1
    assert "FAIL  decomposition identity" in capsys.readouterr().out


def test_pool_forks_its_workers_on_linux(recording_pool):
    with bench.WorkerPool(2) as pool:
        assert pool.map(abs, [-1, -2]) == [1, 2]
    assert _RecordingPool.start_methods == ["fork" if sys.platform == "linux" else None]


def test_verify_theory_suite_and_gap_trace_share_one_pool(tmp_path, capsys, recording_pool):
    assert main([*_SMALL_THEORY, "--workers", "3", "--tau-sweep", "1,0.1",
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert recording_pool == [3]


def test_dead_theory_worker_is_one_line_and_no_gap_file(tmp_path, capsys, monkeypatch):
    real, parent = bench.analysis.make_random_instances, os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(bench.analysis, "make_random_instances", dying)
    out = tmp_path / "g.csv"
    assert main([*_SMALL_THEORY, "--workers", "2", "--tau-sweep", "1,0.1",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("fttim verify-theory: error: worker died: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "verify-theory"])
def test_one_available_cpu_starts_no_pool(tmp_path, capsys, monkeypatch, command):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    if command == "verify-theory":
        args = [*_SMALL_THEORY, "--tau-sweep", "1,0.1"]
    else:
        args = _fast_args(episodes=4)
        del args[args.index("--workers"):args.index("--workers") + 2]
    assert main([*args, "--out", str(tmp_path / "out")]) == 0


def test_available_parallelism_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for command in ("evaluate", "compare", "verify-theory"):
        assert build_parser().parse_args([command]).workers == 3


@contextlib.contextmanager
def _full_disk(path, mode):
    """``open`` for writing on a disk that fills up halfway through a write."""
    with open(path, mode) as f:
        class HalfWriter:
            def write(self, data):
                f.write(data[:len(data) // 2])
                f.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        yield HalfWriter()


@pytest.mark.parametrize("writer", ["json", "gap_trace", "feature_bank"])
def test_failed_write_keeps_the_old_file_and_leaves_no_stray(tmp_path, monkeypatch, writer):
    import fttim.features as features
    target = tmp_path / "target"
    target.write_bytes(b"old bytes\n")
    write = {
        "json": lambda: bench.write_json({"a": 1}, target),
        "gap_trace": lambda: bench.write_gap_trace(target, instances=3),
        "feature_bank": lambda: write_feature_bank(
            FeatureBank(dim=2, class_ids=np.arange(3), vectors=np.ones((3, 2))), target),
    }[writer]
    monkeypatch.setattr(features, "open", _full_disk, raising=False)
    with pytest.raises(OSError) as exc:
        write()
    assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, str(target))
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["target"]
    monkeypatch.undo()
    write()
    assert target.read_bytes() != b"old bytes\n"
    assert os.listdir(tmp_path) == ["target"]


class _GoneReader(io.TextIOBase):
    """A stdout whose reader has gone away, on a file descriptor of its own."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("command", ["evaluate", "compare", "verify-theory"])
def test_stdout_reader_gone_is_exit_1_after_the_file_is_written(tmp_path, capsys, command):
    if command == "verify-theory":
        args = [*_SMALL_THEORY, "--tau-sweep", "1,0.1", "--gap-instances", "2"]
    else:
        args = [command, *_fast_args(episodes=3)[1:]]
    assert main([*args, "--out", str(tmp_path / "normal")]) == 0
    capsys.readouterr()
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    stdout, sys.stdout = sys.stdout, _GoneReader(fd)
    try:
        code = main([*args, "--out", str(tmp_path / "piped")])
    finally:
        sys.stdout = stdout
        os.close(fd)
    assert code == 1
    assert not any(line.startswith("usage:") for line in capsys.readouterr().err.splitlines())
    assert _strip_wall_time((tmp_path / "piped").read_text()) \
        == _strip_wall_time((tmp_path / "normal").read_text())


def test_verify_theory_gap_csv(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    code = main(list(_SMALL_THEORY) + [
        "--tau-sweep", "1,0.1,0.01,0.001", "--gap-instances", "5",
        "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "instance_id,tau,H,bound,gap"
    assert len(lines) == 1 + 5 * 4 + 1  # header + rows + trailing LF
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    # gap column equals bound minus clustering term
    for row in lines[1:-1]:
        _, _, H, bound, gap = row.split(",")
        assert float(gap) == pytest.approx(float(bound) - float(H), abs=1e-12)


# --- export-embeddings ---------------------------------------------------------

def test_export_embeddings_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "dump"
    code = main([
        "export-embeddings", "--synthetic", "--queries", "8",
        "--tim-iterations", "400", "--tim-transform-start", "100",
        "--seed", "3", "--out", str(out_dir),
    ])
    assert code == 0
    raw = load_feature_bank(out_dir / "raw_features.csv")
    transformed = load_feature_bank(out_dir / "transformed_features.csv")
    prototypes = load_feature_bank(out_dir / "prototypes.csv")
    predicted = load_feature_bank(out_dir / "predicted_labels.csv")
    assert raw.num_records == transformed.num_records == 5 + 40
    assert prototypes.num_records == 5
    assert predicted.num_records == 40
    np.testing.assert_allclose(
        np.linalg.norm(transformed.vectors, axis=1), 1.0, atol=1e-9
    )
    out = capsys.readouterr().out
    before = float(re.search(r"before transform: ([0-9.]+)", out).group(1))
    after = float(re.search(r"after transform:  ([0-9.]+)", out).group(1))
    assert after > before


def _export_failure(tmp_path, case):
    """(flags, source, config, reason) of an export whose one episode fails."""
    if case == "zero_row":
        # five classes of three records: the one episode uses every record
        vecs = np.random.default_rng(3).standard_normal((15, 6))
        vecs[0] = 0.0
        path = tmp_path / "bank.csv"
        write_feature_bank(FeatureBank(dim=6, class_ids=np.repeat(np.arange(5), 3),
                                       vectors=vecs), path)
        return (["--features", str(path), "--queries", "2"],
                bench.BankSource(str(path), 5, 2, 0), TimConfig(),
                "episode input: row 0 has zero norm")
    if case == "overflowing_draw":
        return (["--synthetic", "--class-stddev", "1e308"],
                bench.SyntheticSource(intra_class_stddev=1e308), TimConfig(),
                "episode input: row 0 has a non-finite entry")
    return (["--synthetic", "--tim-iterations", "30", "--tim-transform-start", "5",
             "--tim-lr-w", "1e300"],
            bench.SyntheticSource(), TimConfig(iterations=30, transform_start=5, lr_w=1e300),
            "iteration 6: non-finite loss")


@pytest.mark.parametrize("case", ["zero_row", "overflowing_draw", "diverging_fit"])
def test_export_failed_episode_is_one_line_usage_error(tmp_path, capsys, case):
    flags, source, config, reason = _export_failure(tmp_path, case)
    out = tmp_path / "dump"
    with pytest.raises(SystemExit) as exc:
        main(["export-embeddings", *flags, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == f"fttim export-embeddings: error: seed 0: {reason}"
    assert not out.exists()
    # the reason a campaign gives the same episode
    (outcome,) = bench.run_episodes(source, config, episodes=1, base_seed=0)
    assert outcome.error == reason


@pytest.mark.parametrize("flags", [["--class-stddev", "0"], ["--queries", "1"]],
                         ids=["no_spread", "no_same_class_pair"])
def test_export_prints_na_for_an_undefined_separation(tmp_path, capsys, flags):
    code = main(["export-embeddings", "--synthetic", "--tim-iterations", "20",
                 "--tim-transform-start", "5", *flags, "--out", str(tmp_path / "dump")])
    assert code == 0
    out = capsys.readouterr().out
    assert "class separation before transform: n/a\n" in out
    assert "class separation after transform:  n/a\n" in out


def test_export_separation_improves_on_standard_suite(tmp_path):
    res = bench.export_embeddings(bench.SyntheticSource(), TimConfig(),
                                  seed=11, out_dir=tmp_path)
    assert res.separation_after > res.separation_before
