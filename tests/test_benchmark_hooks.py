"""The hopctx names that the benchmark under ``perfbench/`` reaches into.

The benchmark builds what it runs from this checkout's ``src/`` but changes
only with the benchmark itself, so a name it dereferences must outlive any
change to ``src/`` alone.  ``spans.Tracer.install`` reads five classes as the
owners of the methods it wraps, and ``run.py --trace 1`` does not catch the
``AttributeError`` a missing owner raises: the traced run exits 1 while
``--trace 0`` stays green.  ``loopback.py`` answers each remote request with
``AssociativeOracle.predict`` on ``Exemplar`` pairs, and ``run.py`` patches
``AssociativeOracle.predict_many`` and reads the config through
``experiments``.  These names leave ``src/`` only with ROADMAP item 2, which
moves the benchmark off them first.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``import_module`` for the benchmark's own modules, as run.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def _attribute(owner, attr):
    # A class attribute as stored (a classmethod object, not its bound form).
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_restores_every_span(perfbench):
    pytest.importorskip("requests")
    from hopctx import AssociativeOracle, Exemplar

    tracer = perfbench("spans").Tracer()
    try:
        tracer.install()
        patched = list(tracer._originals)
        assert all(_attribute(owner, attr) is not original for owner, attr, original in patched)
        # The predict span reads the context, the query rows and the result's shape.
        oracle = AssociativeOracle(gamma=2.0)
        context = [Exemplar(id=i, x=np.full(3, i + 1.0), y=np.full(2, -i - 1.0)) for i in range(4)]
        oracle.predict(context, np.ones(3))
        oracle.predict_many(context, np.ones((5, 3)))
    finally:
        tracer.uninstall()
    assert {(owner.__name__, attr) for owner, attr, _ in patched} >= {
        ("AssociativeOracle", "predict"), ("AssociativeOracle", "predict_many"),
        ("ContextualHopfield", "__init__"), ("ContextSet", "__init__"), ("QueryState", "from_sigma"),
        ("hopctx.experiments", "run_k_study"), ("hopctx.tasks", "generate_pool"),
    }
    assert all(_attribute(owner, attr) is original for owner, attr, original in patched)
    assert tracer.counts["tasks.predict.calls"] == 2
    assert tracer.counts["tasks.predict.rows"] == 6


def test_loopback_and_run_names_exist(perfbench, tmp_path):
    from hopctx import AssociativeOracle, Exemplar, ExemplarPool, cli, experiments

    loopback, run = perfbench("loopback"), perfbench("run")
    assert loopback.AssociativeOracle is AssociativeOracle and loopback.Exemplar is Exemplar
    assert callable(cli.cli_main)
    # loopback.py's request handler: one Exemplar per JSON pair, one predict per request.
    oracle = AssociativeOracle(gamma=2.0, y_dim=2)
    exemplars = [Exemplar(id=i, x=np.asarray(x, dtype=np.float64), y=np.asarray(y, dtype=np.float64))
                 for i, (x, y) in enumerate([([1.0, 0.0, 0.5], [2.0, -1.0]), ([0.0, 1.0, 0.5], [0.5, 3.0])])]
    assert oracle.predict(exemplars, np.array([1.0, 0.0, 0.0])).tolist() == oracle.predict_pool(
        ExemplarPool([e.x for e in exemplars], [e.y for e in exemplars]), [0, 1], [1.0, 0.0, 0.0]
    ).tolist()
    # run.py and probe.py: the remote workload's config, read as they read it.
    path = tmp_path / "workload.cfg"
    run.write_config(run.WORKLOADS["remote-oracle"], 0, path)
    config = experiments.ExperimentConfig.from_mapping(experiments.parse_config_text(path.read_text()))
    assert (config.oracle_kind, config.task_kind, config.task_d, config.oracle_gamma) == (
        "remote", "key-value-association", 16, 2.0)
    # run.py's builtin reference run swaps predict_many and puts it back.
    batched = AssociativeOracle.predict_many
    with run.one_query_per_prediction():
        assert AssociativeOracle.predict_many is not batched
        rows = oracle.predict_many(exemplars, np.eye(3))
    assert AssociativeOracle.predict_many is batched
    assert rows.tobytes() == oracle.predict_many(exemplars, np.eye(3)).tobytes()
