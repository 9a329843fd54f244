"""CLI subcommands, exit codes, output files, and the package's public names."""

import importlib
import json
import os
import pkgutil
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hopctx
from hopctx import experiments
from hopctx.cli import cli_main


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
def test_output_directory_is_found_before_the_run(tmp_path, capsys, monkeypatch, command, suffix):
    def not_called(config):
        raise AssertionError("the runner was called")

    for name in ("run_k_study", "run_bound_sweep", "run_strategy_comparison"):
        monkeypatch.setattr(experiments, name, not_called)
    out = tmp_path / "out.csv"
    directory = Path(f"{out}{suffix}")
    directory.mkdir()
    assert cli_main([command, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(directory) in err
    assert list(tmp_path.iterdir()) == [directory]  # compare wrote no CSV either


@pytest.mark.parametrize("command", ["k-study", "compare"])
def test_output_under_a_file_is_found_before_the_run(tmp_path, command):
    # An output whose ancestor is a regular file cannot be made: one error
    # line naming both, exit 1, before the runner is called.
    blocker = tmp_path / "notes.txt"
    blocker.write_text("kept\n")
    out = blocker / "sub" / "out.csv"
    script = (
        "import sys\n"
        "from hopctx import cli, experiments\n"
        "def not_called(config):\n"
        "    sys.exit('the runner was called')\n"
        "for name in ('run_k_study', 'run_bound_sweep', 'run_strategy_comparison'):\n"
        "    setattr(experiments, name, not_called)\n"
        "sys.exit(cli.cli_main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hopctx.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, command, "--output", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"error: output path {out}: {blocker} is not a directory\n"
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


def test_retrieve_prints_frozen_example(tmp_path, capsys):
    instance = {
        "xi_q": [[1.0, 0.0], [0.0, 1.0]],
        "xi_k": [[1.0, 0.0], [0.0, 1.0]],
        "gamma": 1.0,
        "sigma": [1.0, 0.0],
        "contexts": [[1.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert cli_main(["retrieve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0.7310585786300049" in out
    assert "0.2689414213699951" in out


def test_retrieve_overflowing_scores_is_usage_error(tmp_path, capsys):
    instance = {
        "xi_q": [[1.0, 0.0], [0.0, 1.0]],
        "xi_k": [[1.0, 0.0], [0.0, 1.0]],
        "gamma": 1.0,
        "sigma": [1e200, 1e200],
        "contexts": [[1e200, 1e200], [-1e200, 1e200]],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert cli_main(["retrieve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scores u z are not finite")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("settings, message", [
    # The built-in oracle's scores u z overflow.
    (["task.noise_sigma=1e200"], "error: scores u z are not finite"),
    # The metric ranking's closeness overflows before any prediction is made.
    (["task.noise_sigma=1e160", "strategies=metric"], "error: euclidean closeness is not finite"),
], ids=["oracle-scores", "metric-closeness"])
def test_k_study_overflowing_scores_is_usage_error(tmp_path, settings, message):
    # Run as a process with RuntimeWarning as an error: numpy must not warn
    # first, and no record may be written with the overflow scored as 0.
    env = dict(os.environ, PYTHONPATH=str(Path(hopctx.__file__).resolve().parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    out = tmp_path / "out.csv"
    sets = [arg for s in settings + ["trials=1", "k_values=2"] for arg in ("--set", s)]
    proc = subprocess.run([sys.executable, "-m", "hopctx.cli", "k-study", *sets, "--output", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1 and message in proc.stderr
    assert not out.exists()


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
], ids=["null-gamma", "scalar-contexts", "object-sigma", "top-level-array", "missing-xi_q", "empty-contexts",
        "ragged-contexts"])
def test_retrieve_mistyped_field_is_usage_error(tmp_path, payload, field):
    # Run as a process: a TypeError escaping cli_main would print a traceback.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=str(Path(hopctx.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hopctx.cli", "retrieve", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("error:") == 1
    assert field in proc.stderr.splitlines()[0]


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


def test_bound_violation_is_invariant_error(monkeypatch, capsys):
    # Finite input cannot make the retrieval return NaN; sabotage it so the
    # NaN reaches the bound check, which must end the sweep with exit 2.
    import hopctx.bounds as bounds_module

    monkeypatch.setattr(bounds_module, "retrieval_update", lambda u, z, v, gamma: (None, u * np.nan))
    assert cli_main(["bound-sweep", "--set", "bound.instances=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violation: retrieval error exceeds its upper bound")


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
        "print(sorted(m for m in ('http.client', 'requests', 'urllib3') if m in sys.modules))\n"
    )
    path = [str(Path(hopctx.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
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
