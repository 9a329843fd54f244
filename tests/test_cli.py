"""CLI subcommands, exit codes, and output files."""

import json
import socket

import pytest

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
