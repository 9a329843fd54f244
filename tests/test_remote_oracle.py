"""HTTP oracle adapter against a local loopback stub."""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopctx
from hopctx import (
    AssociativeOracle,
    Exemplar,
    ExemplarPool,
    OracleFailure,
    RemoteOracle,
    cosine_score,
    generate_pool,
    make_benchmark_task,
)


# Bodies that Python's json module parses, to a NaN or an infinite entry.
NON_FINITE_BODIES = {
    "/nan": b'{"prediction": [NaN, 1.0]}',
    "/neginf": b'{"prediction": [-Infinity, 1.0]}',
    "/overflow": b'{"prediction": [1e400, 1.0]}',
}


class StubHandler(BaseHTTPRequestHandler):
    """Routes: /echo fixed prediction, /predict builtin-backed (through
    ``predict`` on ``Exemplar`` pairs, as a Python server may), /record a
    zero prediction of the context's y length, /malformed, /error 500, /notjson, /huge (an integer beyond float64), /nan, /neginf and
    /overflow (a NaN, -Infinity or 1e400 prediction entry), /drop and /garbage (on every
    odd-numbered attempt close the connection unanswered, or after a line that
    is no HTTP status line; echo on the others).  ``seen`` lists the path of
    every POST received, ``recorded`` the raw body of every POST to /record."""

    oracle = AssociativeOracle(gamma=2.0, y_dim=4)
    seen = []
    recorded = []

    def do_POST(self):
        self.seen.append(self.path)
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        if self.path == "/record":
            self.recorded.append(raw)
        body = json.loads(raw) if raw else {}
        if self.path in ("/drop", "/garbage") and self.seen.count(self.path) % 2 == 1:
            if self.path == "/garbage":
                self.wfile.write(b"garbage\r\n")
            self.close_connection = True
        elif self.path in ("/echo", "/drop", "/garbage"):
            self._reply(200, {"prediction": [1.0, 2.0, 3.0]})
        elif self.path == "/record":
            self._reply(200, {"prediction": [0.0] * len(body["exemplars"][0]["y"])})
        elif self.path == "/predict":
            exemplars = [
                Exemplar(id=i, x=np.array(e["x"]), y=np.array(e["y"]))
                for i, e in enumerate(body["exemplars"])
            ]
            pred = self.oracle.predict(exemplars, np.array(body["query"]))
            self._reply(200, {"prediction": pred.tolist()})
        elif self.path == "/huge":
            self._reply(200, {"prediction": [10**400, 0]})
        elif self.path in NON_FINITE_BODIES:
            self._reply(200, raw=NON_FINITE_BODIES[self.path])
        elif self.path == "/malformed":
            self._reply(200, {"result": "oops"})
        elif self.path == "/notjson":
            payload = b"not json at all"
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        else:
            self._reply(500, {"error": "boom"})

    def _reply(self, status, payload=None, raw=None):
        body = json.dumps(payload).encode() if raw is None else raw
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    # A short poll interval lets shutdown() return within 0.05 s, not 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def predict_one(oracle, context_xs, context_ys, query):
    """One request: the context of the given x and y rows, asked on one query."""
    context_xs, context_ys = np.atleast_2d(context_xs), np.atleast_2d(context_ys)
    return oracle.predict_pool(ExemplarPool(context_xs, context_ys), np.arange(len(context_xs)), query)


def test_echo_stub(stub_server):
    oracle = RemoteOracle(stub_server + "/echo")
    got = predict_one(oracle, np.zeros(2), np.zeros(3), np.zeros(2))
    np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])


def test_malformed_body_raises(stub_server):
    oracle = RemoteOracle(stub_server + "/malformed")
    with pytest.raises(OracleFailure) as excinfo:
        predict_one(oracle, np.zeros(2), np.zeros(3), np.zeros(2))
    assert "request" in str(excinfo.value)


def test_non_json_body_raises(stub_server):
    oracle = RemoteOracle(stub_server + "/notjson")
    with pytest.raises(OracleFailure):
        predict_one(oracle, np.zeros(2), np.zeros(3), np.zeros(2))


def test_server_error_raises_after_retries(stub_server, monkeypatch):
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 1)
    oracle = RemoteOracle(stub_server + "/error")
    with pytest.raises(OracleFailure) as excinfo:
        predict_one(oracle, np.zeros(2), np.zeros(3), np.zeros(2))
    assert "500" in str(excinfo.value)


def test_unreachable_endpoint_raises(monkeypatch):
    monkeypatch.setattr(hopctx.tasks, "REMOTE_TIMEOUT_S", 0.2)
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 0)
    oracle = RemoteOracle("http://127.0.0.1:1/predict")
    with pytest.raises(OracleFailure):
        predict_one(oracle, np.zeros(2), np.zeros(3), np.zeros(2))


def test_wrong_length_prediction_raises(stub_server):
    # /echo answers with 3 values; the context's y has 2.
    oracle = RemoteOracle(stub_server + "/echo")
    with pytest.raises(OracleFailure) as excinfo:
        predict_one(oracle, np.zeros(2), np.zeros(2), np.zeros(2))
    assert "length 3" in str(excinfo.value)


def test_prediction_beyond_float64_raises(stub_server):
    oracle = RemoteOracle(stub_server + "/huge")
    with pytest.raises(OracleFailure, match=r"^request 1: 'prediction' does not fit float64"):
        predict_one(oracle, np.zeros(2), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("route", sorted(NON_FINITE_BODIES))
def test_non_finite_prediction_raises(stub_server, route):
    # A non-finite prediction would score 0 unnoticed: it is a failed call.
    oracle = RemoteOracle(stub_server + route)
    with pytest.raises(OracleFailure, match=r"^request 1: 'prediction' is not finite"):
        predict_one(oracle, np.zeros(2), np.zeros(2), np.zeros(2))


def test_loopback_matches_builtin(stub_server):
    spec = make_benchmark_task(p=3, d=8, noise_sigma=0.1)
    pool, queries = generate_pool(spec, 12, seed=9, n_queries=6)
    local = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
    remote = RemoteOracle(stub_server + "/predict")
    context = np.arange(4)
    s_local = cosine_score(local.predict_pool(pool, context, queries.xs), queries.ys)
    s_remote = cosine_score(remote.predict_pool(pool, context, queries.xs), queries.ys)
    assert s_local.shape == s_remote.shape == (6,)
    assert np.all(np.abs(s_local - s_remote) <= 1e-9)


@pytest.mark.parametrize("route", ["/drop", "/garbage"])
def test_failed_attempt_is_retried(stub_server, route, monkeypatch):
    StubHandler.seen.clear()
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 1)
    oracle = RemoteOracle(stub_server + route)
    np.testing.assert_array_equal(predict_one(oracle, np.zeros(2), np.zeros(3), np.zeros(2)), [1.0, 2.0, 3.0])
    assert StubHandler.seen == [route, route]


@pytest.mark.parametrize("where", ["query", "x", "y"])
def test_non_finite_input_raises_without_request(stub_server, where):
    StubHandler.seen.clear()
    values = {"query": np.zeros(2), "x": np.zeros(2), "y": np.zeros(3)}
    values[where] = values[where].copy()
    values[where][1] = np.nan
    oracle = RemoteOracle(stub_server + "/echo")
    with pytest.raises(OracleFailure, match=r"^request 1: input is not finite"):
        predict_one(oracle, values["x"], values["y"], values["query"])
    assert StubHandler.seen == []


@pytest.mark.parametrize("endpoint", ["localhost:1/predict", "ftp://127.0.0.1/x", "http:///predict"])
def test_bad_endpoint_rejected(endpoint):
    with pytest.raises(ValueError, match=r"^oracle.endpoint must"):
        RemoteOracle(endpoint)


def test_remote_predict_does_not_import_requests(stub_server):
    # A fresh interpreter: this process may have requests loaded by a plugin.
    # numpy.ma (which np.unique imports) would add to a remote run's peak RSS.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hopctx import ExemplarPool, RemoteOracle\n"
        f"oracle = RemoteOracle({stub_server + '/echo'!r})\n"
        "pool = ExemplarPool(np.zeros((2, 2)), np.zeros((2, 3)))\n"
        "got = oracle.predict_pool(pool, [[0, 1], [1, 1]], np.zeros(2))\n"
        "assert got.tolist() == [[1.0, 2.0, 3.0]] * 2, got\n"
        "print(sorted(m for m in ('http.client', 'numpy.ma', 'requests', 'urllib3') if m in sys.modules))\n"
    )
    src = str(Path(hopctx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['http.client']"


def _pool_and_queries():
    spec = make_benchmark_task(p=3, d=8, noise_sigma=0.1)
    return generate_pool(spec, 12, seed=9, n_queries=4)


@pytest.mark.parametrize("per_target", [False, True], ids=["(B,1,K)", "(B,T,K)"])
def test_predict_pool_equals_predict_row_by_row(stub_server, per_target):
    pool, queries = _pool_and_queries()
    xs = queries.xs
    t = len(xs) if per_target else 1
    rng = np.random.default_rng(3)
    ids = np.stack([rng.permutation(pool.size)[:3] for _ in range(5 * t)]).reshape(5, t, 3)
    oracle = RemoteOracle(stub_server + "/predict")
    got = oracle.predict_pool(pool, ids, xs)
    assert got.shape == (5, len(xs), 4)
    one_at_a_time = RemoteOracle(stub_server + "/predict")
    for b in range(5):
        for q, x in enumerate(xs):
            context = ids[b, q if per_target else 0]
            np.testing.assert_array_equal(got[b, q], one_at_a_time.predict_pool(pool, context, x))
    # The batch used request ids 1..n, so the next request is n + 1.
    n = 5 * len(xs)
    with pytest.raises(OracleFailure, match=rf"^request {n + 1}: input is not finite"):
        oracle.predict_pool(pool, [0], np.full(pool.xs.shape[1], np.nan))


def test_predict_pool_sends_nothing_after_a_stalled_row(monkeypatch):
    monkeypatch.setattr(hopctx.tasks, "REMOTE_TIMEOUT_S", 0.2)
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 0)
    pool, _ = _pool_and_queries()
    ids = np.arange(20)[:, None, None] % pool.size
    threads = threading.active_count()
    with socket.socket() as stalled:
        stalled.bind(("127.0.0.1", 0))
        stalled.listen(32)  # the kernel completes connections; nothing answers
        oracle = RemoteOracle(f"http://127.0.0.1:{stalled.getsockname()[1]}/predict")
        t0 = time.perf_counter()
        with pytest.raises(OracleFailure, match=r"^request 1: no successful response"):
            oracle.predict_pool(pool, ids, pool.xs[:1])
        elapsed = time.perf_counter() - t0
    # One row's budget is 0.2 s.  Sending every row, REMOTE_IN_FLIGHT at a
    # time, would take 20 / REMOTE_IN_FLIGHT = 5 budgets.
    assert elapsed < 2 * 0.2
    assert threading.active_count() == threads


def test_predict_pool_stops_sending_after_a_failed_row(stub_server, monkeypatch):
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 1)
    StubHandler.seen.clear()
    pool, _ = _pool_and_queries()
    oracle = RemoteOracle(stub_server + "/error")
    with pytest.raises(OracleFailure, match=r"^request 1: .*status 500"):
        oracle.predict_pool(pool, np.arange(20)[:, None, None] % pool.size, pool.xs[:1])
    assert 0 < len(StubHandler.seen) <= hopctx.tasks.REMOTE_IN_FLIGHT * (hopctx.tasks.REMOTE_MAX_RETRIES + 1)


# Floats whose JSON text is easy to get wrong: signed zero, the smallest
# subnormal, the largest finite float, integral floats and a short repr.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 3.0, -2.0, 1e16, 0.1]


@st.composite
def record_batches(draw):
    """A small pool, ids of shape (B, 1 or T, K) over few positions (so rows
    and contexts repeat positions), and T query rows."""
    value = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    n, d_x, d_y = (draw(st.integers(1, hi)) for hi in (4, 3, 3))
    b, t, k = (draw(st.integers(1, hi)) for hi in (3, 3, 4))
    rows = lambda m, d: np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=m, max_size=m)))
    xs, ys, queries = rows(n, d_x), rows(n, d_y), rows(t, d_x)
    per_target = draw(st.booleans())
    ids = np.array(draw(st.lists(st.integers(0, n - 1), min_size=b * (t if per_target else 1) * k,
                                 max_size=b * (t if per_target else 1) * k))).reshape(b, -1, k)
    return ExemplarPool(xs, ys), ids, queries


@settings(max_examples=40, deadline=None)
@given(batch=record_batches())
def test_predict_pool_sends_the_bytes_of_predict(stub_server, batch):
    # Each body is its row's own json.dumps of the documented request.  Rows
    # arrive in any order (several are in flight), so the bodies are compared
    # sorted; each holds its context and query, so equal sorted lists are the
    # same body per row.
    pool, ids, queries = batch
    StubHandler.recorded.clear()
    got = RemoteOracle(stub_server + "/record").predict_pool(pool, ids, queries)
    assert got.shape == (len(ids), len(queries), pool.ys.shape[1])
    documented = [
        json.dumps({
            "exemplars": [{"x": pool.xs[i].tolist(), "y": pool.ys[i].tolist()} for i in ids[b, t % ids.shape[1]]],
            "query": x.tolist(),
        }).encode()
        for b in range(len(ids)) for t, x in enumerate(queries)
    ]
    assert sorted(StubHandler.recorded) == sorted(documented)


def _pool_with_non_finite_row(where):
    """Rows 0-3 finite, row 4 holding a NaN in its x or y and the marker 7.25."""
    xs, ys = np.arange(10.0).reshape(5, 2), np.arange(15.0).reshape(5, 3) / 4
    xs[4], ys[4] = [7.25, 7.25], [7.25, 7.25, 7.25]
    (xs if where == "x" else ys)[4, 1] = np.nan
    return ExemplarPool(xs, ys)


@pytest.mark.parametrize("where", ["x", "y"])
def test_unused_non_finite_pool_row_leaves_the_batch_answered(stub_server, where):
    StubHandler.recorded.clear()
    pool = _pool_with_non_finite_row(where)
    got = RemoteOracle(stub_server + "/record").predict_pool(pool, [[[0, 1]], [[3, 3]], [[2, 0]]], np.ones((2, 2)))
    np.testing.assert_array_equal(got, np.zeros((3, 2, 3)))
    assert len(StubHandler.recorded) == 6


@pytest.mark.parametrize("where", ["x", "y"])
def test_non_finite_pool_row_fails_the_first_row_that_uses_it(stub_server, where):
    pool = _pool_with_non_finite_row(where)
    oracle = RemoteOracle(stub_server + "/record")
    oracle.predict_pool(pool, [0], np.ones(2))  # request 1, so the batch starts at first = 1
    StubHandler.recorded.clear()
    # Batch row r = 2 is the first to use row 4: request first + r + 1 = 4.
    with pytest.raises(OracleFailure, match=r"^request 4: input is not finite"):
        oracle.predict_pool(pool, [[[0, 1]], [[2, 3]], [[1, 4]], [[4, 0]], [[3, 2]]], np.ones(2))
    # Rows 0 and 1 may or may not have been sent; none sent holds row 4.
    assert not any(b"NaN" in body or b"7.25" in body for body in StubHandler.recorded)


def test_each_distinct_position_is_encoded_once_per_batch(stub_server, monkeypatch):
    encoded = []

    def counting(x, y):
        encoded.append((x, y))
        return exemplar_json(x, y)

    exemplar_json = hopctx.tasks._exemplar_json
    monkeypatch.setattr(hopctx.tasks, "_exemplar_json", counting)
    pool, queries = _pool_and_queries()
    ids = np.array([[[0, 5, 0], [2, 5, 5]], [[5, 2, 0], [0, 0, 0]], [[7, 5, 2], [2, 2, 2]]])  # (B, T, K)
    oracle = RemoteOracle(stub_server + "/record")
    distinct = sorted((pool.xs[i].tolist(), pool.ys[i].tolist()) for i in (0, 2, 5, 7))
    for batches in (1, 2):  # nothing is kept from one batch to the next
        oracle.predict_pool(pool, ids, queries.xs[:2])
        assert sorted(encoded) == sorted(distinct * batches)


@pytest.mark.parametrize("oracle", [AssociativeOracle(gamma=2.0), RemoteOracle("http://127.0.0.1:1/predict")],
                         ids=["builtin", "remote"])
def test_empty_context_is_rejected_before_any_request(oracle):
    # The remote oracle once failed inside numpy's reshape instead; neither
    # oracle has anything to retrieve from, and the remote one sends nothing.
    pool, queries = _pool_and_queries()
    with pytest.raises(ValueError, match=r"^ids must hold at least one pool position per context, got shape \(1, 0\)$"):
        oracle.predict_pool(pool, np.zeros((1, 0), int), queries.xs[0])
