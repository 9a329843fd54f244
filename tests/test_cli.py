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
