"""CLI subcommands, exit codes, output files, and the package's public names."""

import argparse
import csv
import importlib
import json
import os
import pkgutil
import re
import socket
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hopctx
from hopctx import cli, experiments
from hopctx.cli import cli_main

SRC = str(Path(hopctx.__file__).resolve().parents[1])


def _run_cli(argv, warnings_as_errors=False):
    """``python -m hopctx.cli argv`` in a fresh interpreter that imports this
    hopctx, with ``RuntimeWarning`` an error if asked."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if warnings_as_errors:
        env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run([sys.executable, "-m", "hopctx.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)


def _sets(settings):
    return [arg for s in settings for arg in ("--set", s)]


@pytest.fixture
def no_runner(monkeypatch):
    """Every experiment runner fails the test if it is called."""
    def not_called(config):
        raise AssertionError("the runner was called")

    for name in ("run_k_study", "run_bound_sweep", "run_strategy_comparison"):
        monkeypatch.setattr(experiments, name, not_called)


@pytest.fixture
def small_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "task.kind = key-value-association\n"
        "task.d = 16\n"
        "task.prototypes = 5\n"
        "task.noise_sigma = 0.1\n"
        "pool.size = 30\n"
        "queries.size = 10\n"
        "trials = 3\n"
        "k_values = 1,2\n"
        "subsample = 10\n"
        "seed = 5\n"
        "bound.instances = 5\n"
    )
    return path


def test_selftest_exits_zero(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all selftest suites passed" in out
    assert "task.kind = " in out  # defaults printed


def test_unknown_subcommand_is_usage_error():
    assert cli_main(["frobnicate"]) == 1


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert cli_main(["k-study", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_bad_config_key_is_usage_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("task.shape = round\n")
    assert cli_main(["bound-sweep", "--config", str(path)]) == 1


@pytest.mark.parametrize("argv", [
    ["k-study", "--set", "trials=1", "--set", "pool.size=20", "--set", "queries.size=5", "--set", "subsample=5"],
    ["bound-sweep", "--set", "bound.instances=1"],
], ids=["k-study", "bound-sweep"])
def test_output_to_a_directory_is_usage_error(tmp_path, capsys, argv):
    # The output path is checked before the run: a directory fails with an OSError.
    assert cli_main([*argv, "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(tmp_path) in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command, suffix", [
    ("k-study", ""), ("bound-sweep", ""), ("compare", ""), ("compare", ".json"),
])
def test_output_directory_is_found_before_the_run(tmp_path, capsys, no_runner, command, suffix):
    out = tmp_path / "out.csv"
    directory = Path(f"{out}{suffix}")
    directory.mkdir()
    assert cli_main([command, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(directory) in err
    assert list(tmp_path.iterdir()) == [directory]  # compare wrote no CSV either


@pytest.mark.parametrize("command", ["k-study", "compare"])
def test_output_under_a_file_is_found_before_the_run(tmp_path, capsys, no_runner, command):
    # An output whose ancestor is a regular file cannot be made: one error
    # line naming both, exit 1, before the runner is called.
    blocker = tmp_path / "notes.txt"
    blocker.write_text("kept\n")
    out = blocker / "sub" / "out.csv"
    assert cli_main([command, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output path {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n" and list(tmp_path.iterdir()) == [blocker]


def test_runtime_error_is_one_stderr_line(capsys):
    assert cli_main(["k-study", "--set", "bogus=1"]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'bogus'\n"


def test_key_error_is_a_bug_with_a_traceback(monkeypatch):
    def broken(config):
        raise KeyError("strategy")

    monkeypatch.setattr(experiments, "run_k_study", broken)
    with pytest.raises(KeyError, match="strategy"):
        cli_main(["k-study"])


_IDENTITY_MODEL = {"xi_q": [[1.0, 0.0], [0.0, 1.0]], "xi_k": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("instance, lines", [
    ({"gamma": 1.0, "sigma": [1.0, 0.0], "contexts": [[1.0, 0.0], [0.0, 1.0]]},
     ["weights: 0.7310585786300049 0.2689414213699951"]),
    # One context pattern takes the softmax formula like any other M: a huge
    # gamma still gives weight 1.0, and u_new holds no -0.0 (the projection
    # V = lam^T xi_k already sums the context's -0.0 to +0.0).
    ({"gamma": 1e300, "sigma": [1.0, -0.0], "contexts": [[-0.0, 2.0]]},
     ["weights: 1.0", "u_new: 0.0 2.0"]),
], ids=["frozen-example", "one-pattern-huge-gamma"])
def test_retrieve_prints_weights_and_outputs(tmp_path, capsys, instance, lines):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**_IDENTITY_MODEL, **instance}))
    assert cli_main(["retrieve", str(path)]) == 0
    captured = capsys.readouterr()
    assert set(lines) <= set(captured.out.splitlines()) and captured.err == ""


@pytest.mark.parametrize("contexts", [[[1e200, 1e200], [-1e200, 1e200]], [[1e200, 1e200]]], ids=["M=2", "M=1"])
def test_retrieve_overflowing_scores_is_usage_error(tmp_path, capsys, contexts):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**_IDENTITY_MODEL, "gamma": 1.0, "sigma": [1e200, 1e200], "contexts": contexts}))
    assert cli_main(["retrieve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scores u z are not finite") and captured.err.count("error:") == 1


@pytest.mark.parametrize("settings, message", [
    # The built-in oracle's scores u z overflow.
    (["task.noise_sigma=1e200", "trials=1", "k_values=2"], "error: scores u z are not finite"),
    # The metric ranking's closeness overflows before any prediction is made.
    (["task.noise_sigma=1e160", "strategies=metric", "trials=1", "k_values=2"],
     "error: euclidean closeness is not finite"),
    # One-exemplar contexts skip the softmax mix but still form the scores
    # u z: through random, over the default trials,
    (["task.noise_sigma=1e200", "k_values=1", "strategies=random"], "error: scores u z are not finite"),
    # and through the instance-best and pool score matrices, which predict
    # each one-exemplar context once and repeat it over the targets.
    (["task.noise_sigma=1e200", "k_values=1", "strategies=active,instance-best", "trials=1"],
     "error: scores u z are not finite"),
], ids=["oracle-scores", "metric-closeness", "one-exemplar-random", "one-exemplar-matrices"])
@pytest.mark.filterwarnings("ignore:min prototype distance:UserWarning")
def test_k_study_overflowing_scores_is_usage_error(tmp_path, capsys, settings, message):
    # RuntimeWarning is an error here (pyproject.toml), so numpy must not
    # warn first; no record may be written with the overflow scored as 0.
    out = tmp_path / "out.csv"
    assert cli_main(["k-study", *_sets(settings), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("score", ["cosine-score", "exact-match", "negative-error"])
def test_k_study_of_every_score_runs_without_warnings(tmp_path, score):
    # Every strategy's scores, and their rounding, must not warn.
    out = tmp_path / "out.csv"
    settings = ["task.kind=prototype-completion", f"score={score}",
                "strategies=random,metric,active,instance-best", "trials=3"]
    proc = _run_cli(["k-study", *_sets(settings), "--output", out], warnings_as_errors=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert out.read_text().startswith("# hopctx k-study v1\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("instance, product", [
    # sigma xi_q and xi_k^T lam overflow before any score is formed.
    ({"xi_q": [[1e200, 0.0], [0.0, 1.0]], "xi_k": [[1e200, 0.0], [0.0, 1.0]],
      "sigma": [1e200, 0.0], "contexts": [[1e200, 0.0]]}, "u = sigma xi_q"),
    # The retrieval is finite; attention's value rows K w_v overflow.
    ({"xi_q": [[1.0, 0.0], [0.0, 1.0]], "xi_k": [[1.0, 0.0], [0.0, 1.0]], "w_v": [[1e200, 0.0], [0.0, 1.0]],
      "sigma": [1.0, 0.0], "contexts": [[1e200, 0.0]]}, "V = K w_v"),
], ids=["projections", "attention-values"])
def test_retrieve_overflowing_product_is_usage_error(tmp_path, capsys, instance, product):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert cli_main(["retrieve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: entries of {product} are not finite")
    assert captured.err.count("error:") == 1


_IDENTITY_INSTANCE = {"xi_q": [[1.0, 0.0], [0.0, 1.0]], "xi_k": [[1.0, 0.0], [0.0, 1.0]],
                      "sigma": [1.0, 0.0], "contexts": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("payload, field", [
    ({**_IDENTITY_INSTANCE, "gamma": None}, "gamma"),
    ({**_IDENTITY_INSTANCE, "contexts": 5}, "contexts"),
    ({**_IDENTITY_INSTANCE, "sigma": {"a": 1}}, "sigma"),
    ([_IDENTITY_INSTANCE], "JSON object"),
    ({k: v for k, v in _IDENTITY_INSTANCE.items() if k != "xi_q"}, "xi_q"),
    ({**_IDENTITY_INSTANCE, "contexts": []}, "contexts"),
    ({**_IDENTITY_INSTANCE, "contexts": [[1.0, 0.0], [1.0]]}, "contexts"),
    ({**_IDENTITY_INSTANCE, "gamma": True}, "gamma"),
    ({**_IDENTITY_INSTANCE, "sigma": [True, 0]}, "sigma"),
    ({**_IDENTITY_INSTANCE, "contexts": [[1.0, 0.0], [0.0, False]]}, "contexts"),
    ({**_IDENTITY_INSTANCE, "gamma": "2"}, "gamma"),
    ({**_IDENTITY_INSTANCE, "sigma": ["1", 0]}, "sigma"),
    ({**_IDENTITY_INSTANCE, "xi_k": [[1.0, "0"], [0.0, 1.0]]}, "xi_k"),
    ({**_IDENTITY_INSTANCE, "contexts": [[1.0, 0.0], ["0", 1.0]]}, "contexts"),
    ({**_IDENTITY_INSTANCE, "w_v": None}, "w_v"),
    ({**_IDENTITY_INSTANCE, "gamma": 10**400}, "gamma"),
    ({**_IDENTITY_INSTANCE, "xi_q": [[10**400, 0.0], [0.0, 1.0]]}, "xi_q"),
], ids=["null-gamma", "scalar-contexts", "object-sigma", "top-level-array", "missing-xi_q", "empty-contexts",
        "ragged-contexts", "bool-gamma", "bool-sigma", "bool-contexts", "string-gamma", "string-sigma",
        "string-xi_k", "string-contexts", "null-w_v", "overflowing-gamma", "overflowing-xi_q"])
def test_retrieve_mistyped_field_is_usage_error(tmp_path, payload, field):
    # Run as a process: a TypeError escaping cli_main would print a traceback.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    proc = _run_cli(["retrieve", path])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("error:") == 1
    assert len(proc.stderr.splitlines()) == 1 and field in proc.stderr


def test_retrieve_missing_file_is_usage_error(tmp_path):
    assert cli_main(["retrieve", str(tmp_path / "gone.json")]) == 1


def test_bound_sweep_writes_csv(small_config_file, tmp_path, capsys):
    out_path = tmp_path / "bounds.csv"
    code = cli_main([
        "bound-sweep", "--config", str(small_config_file), "--output", str(out_path)
    ])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# hopctx bound-sweep v1\n")
    assert "violations=0" in capsys.readouterr().out


def _csv_rows(path):
    return list(csv.DictReader(line for line in path.read_text().splitlines() if not line.startswith("#")))


def test_default_bound_sweep_runs_without_warnings(tmp_path, capsys):
    # Its grid has a row whose beta * ||z_max|| overflows to inf: a valid,
    # infinite bound, which must not warn.
    assert cli_main(["bound-sweep", "--output", str(tmp_path / "sweep.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert len(_csv_rows(tmp_path / "sweep.csv")) == 2700


def test_edge_bound_sweep_writes_empty_delta_min_and_infinite_c(tmp_path, capsys):
    # M = 1 gives t = M rows (no delta_min, c = 0); gamma 1e4 gives rows with
    # c = inf and an infinite bound.  Neither may warn.
    out = tmp_path / "edge.csv"
    settings = ["bound.m_grid=1,3", "bound.gamma_grid=0.5,10000", "bound.instances=20"]
    assert cli_main(["bound-sweep", *_sets(settings), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = _csv_rows(out)
    assert any(r["M"] == r["t"] and r["delta_min"] == "" for r in rows)
    assert any(r["c"] == "inf" for r in rows)


def test_bound_violation_is_invariant_error(monkeypatch, capsys):
    # Finite input cannot make the retrieval return NaN; sabotage it so the
    # NaN reaches the bound check, which must end the sweep with exit 2.
    import hopctx.bounds as bounds_module

    monkeypatch.setattr(bounds_module, "retrieval_update", lambda u, z, v, gamma: (None, u * np.nan))
    assert cli_main(["bound-sweep", "--set", "bound.instances=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violation: retrieval error exceeds its upper bound")
    assert len(captured.err.splitlines()) == 1


def test_non_finite_bound_input_is_usage_error(monkeypatch, capsys):
    # A NaN in the drawn ground truth is bad input (exit 1), not a violation.
    import hopctx.experiments as experiments_module

    draw_row = experiments_module._draw_row

    def nan_ground_truth(config, gi, mi):
        for pos, u, z, v, u_star in draw_row(config, gi, mi):
            yield pos, u, z, v, np.full_like(u_star, np.nan)

    monkeypatch.setattr(experiments_module, "_draw_row", nan_ground_truth)
    assert cli_main(["bound-sweep", "--set", "bound.instances=1"]) == 1
    assert capsys.readouterr().err.startswith("error: u_star not finite")


def test_one_dimensional_prototypes_are_usage_error(tmp_path, capsys):
    out_path = tmp_path / "k.csv"
    code = cli_main(["k-study", "--set", "task.kind=prototype-completion", "--set", "task.d=1",
                     "--set", "task.prototypes=3", "--output", str(out_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out_path.exists()
    assert captured.err.startswith("error: task.d must be >= 2")


def test_k_study_writes_csv_and_reruns_identically(small_config_file, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["k-study", "--config", str(small_config_file), "--output", str(out_a)]) == 0
    assert cli_main(["k-study", "--config", str(small_config_file), "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_compare_writes_csv_and_json(small_config_file, tmp_path):
    out_path = tmp_path / "cmp.csv"
    code = cli_main([
        "compare", "--config", str(small_config_file),
        "--set", "strategies=random,active",
        "--output", str(out_path),
    ])
    assert code == 0
    assert out_path.exists()
    summary = json.loads((tmp_path / "cmp.csv.json").read_text())
    assert set(summary["strategies"]) == {"random", "active"}


def test_set_flag_overrides_config(small_config_file, tmp_path):
    out_path = tmp_path / "s.csv"
    code = cli_main([
        "k-study", "--config", str(small_config_file),
        "--set", "trials=1", "--set", "strategies=random",
        "--output", str(out_path),
    ])
    assert code == 0
    lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    # header + 1 trial x 1 strategy x 2 k values
    assert len(lines) == 1 + 2


def test_seed_flag_changes_output(small_config_file, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cli_main(["k-study", "--config", str(small_config_file), "--output", str(out_a)])
    cli_main(["k-study", "--config", str(small_config_file), "--seed", "99",
              "--output", str(out_b)])
    assert out_a.read_text() != out_b.read_text()


def test_refused_remote_oracle_is_oracle_error(small_config_file, tmp_path, capsys):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    code = cli_main([
        "k-study", "--config", str(small_config_file),
        "--set", "oracle.kind=remote", "--set", f"oracle.endpoint=http://127.0.0.1:{port}/predict",
        "--output", str(tmp_path / "r.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("oracle failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("setting", [
    "oracle.endpoint=localhost:1/predict", "k_values=1,1", "strategies=random,random",
])
def test_bad_remote_or_repeated_setting_is_usage_error(small_config_file, tmp_path, capsys, setting):
    code = cli_main([
        "k-study", "--config", str(small_config_file), "--set", "oracle.kind=remote",
        "--set", setting, "--output", str(tmp_path / "r.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {setting.partition('=')[0]} must")
    assert not (tmp_path / "r.csv").exists()


def test_local_commands_do_not_import_http_stack(small_config_file, tmp_path):
    # A fresh interpreter: this process may already have the HTTP stack loaded.
    code = (
        "import sys\n"
        "from hopctx.cli import cli_main\n"
        f"cfg, out = {str(small_config_file)!r}, {str(tmp_path)!r}\n"
        "assert cli_main(['bound-sweep', '--config', cfg, '--output', out + '/b.csv']) == 0\n"
        "assert cli_main(['k-study', '--config', cfg, '--set', 'trials=1',\n"
        "                 '--output', out + '/k.csv']) == 0\n"
        # numpy.ma too: it is loaded by np.unique, for one, and raises every run's peak memory.
        "print(sorted(m for m in ('http.client', 'requests', 'urllib3', 'numpy.ma') if m in sys.modules))\n"
    )
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(hopctx.__path__)))
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"hopctx.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_top_level_names_are_the_modules_all():
    # hopctx states its API once: each module's __all__, star-imported.
    modules = ("classic", "retrieval", "bounds", "selection", "tasks", "experiments")
    public = {n for n, v in vars(hopctx).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == {n for m in modules for n in importlib.import_module(f"hopctx.{m}").__all__}


def test_readme_matches_the_code():
    # The manual's config keys, exit codes, subcommands and module names are the code's.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = text.split("Keys (defaults printed by `hopctx selftest`):")[1].split("```")[1].split()
    assert keys == list(experiments.ExperimentConfig().as_mapping())
    codes = {0: "success", cli.USAGE_ERROR: "usage error", cli.INVARIANT_ERROR: "invariant violation",
             cli.ORACLE_ERROR: "oracle failure"}
    assert sorted(codes) == [0, 1, 2, 3]
    assert all(f"\n- `{code}`: {name}" in text for code, name in codes.items())
    block = text.split("## CLI\n\n```sh\n")[1].split("```")[0]
    documented = {line.split()[1] for line in block.splitlines()}
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(subcommands.choices)
    # Each backticked name in "## Modules" (`verify_patterns`, `retrieval_update(u, ...)`, `compare`,
    # `hopctx.bounds`) is a public hopctx name, a CLI subcommand or a hopctx module.
    section = text.split("\n## Modules\n")[1].split("\n## ")[0]
    spans = re.findall(r"`([^`]+)`", section)
    names = [m.group(1) for span in spans if (m := re.fullmatch(r"([A-Za-z_][\w.-]*)(\(.*\))?", span))]
    modules = {f"hopctx.{m.name}" for m in pkgutil.iter_modules(hopctx.__path__)}
    public = {n for n in vars(hopctx) if not n.startswith("_")} | set(subcommands.choices) | modules
    assert len(names) >= 10 and [n for n in names if n not in public] == []
