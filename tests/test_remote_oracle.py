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

import hopctx
from hopctx import (
    AssociativeOracle,
    Exemplar,
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
    """Routes: /echo fixed prediction, /predict builtin-backed, /record as
    /predict, /malformed, /error 500, /notjson, /huge (an integer beyond float64), /nan, /neginf and
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
        elif self.path in ("/predict", "/record"):
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


def test_echo_stub(stub_server):
    oracle = RemoteOracle(stub_server + "/echo")
    e = Exemplar(id=0, x=np.zeros(2), y=np.zeros(3))
    got = oracle.predict([e], np.zeros(2))
    np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])


def test_malformed_body_raises(stub_server):
    oracle = RemoteOracle(stub_server + "/malformed")
    with pytest.raises(OracleFailure) as excinfo:
        oracle.predict([], np.zeros(2))
    assert "request" in str(excinfo.value)


def test_non_json_body_raises(stub_server):
    oracle = RemoteOracle(stub_server + "/notjson")
    with pytest.raises(OracleFailure):
        oracle.predict([], np.zeros(2))


def test_server_error_raises_after_retries(stub_server, monkeypatch):
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 1)
    oracle = RemoteOracle(stub_server + "/error")
    with pytest.raises(OracleFailure) as excinfo:
        oracle.predict([], np.zeros(2))
    assert "500" in str(excinfo.value)


def test_unreachable_endpoint_raises(monkeypatch):
    monkeypatch.setattr(hopctx.tasks, "REMOTE_TIMEOUT_S", 0.2)
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 0)
    oracle = RemoteOracle("http://127.0.0.1:1/predict")
    with pytest.raises(OracleFailure):
        oracle.predict([], np.zeros(2))


def test_wrong_length_prediction_raises(stub_server):
    # /echo answers with 3 values; the context's y has 2.
    oracle = RemoteOracle(stub_server + "/echo")
    e = Exemplar(id=0, x=np.zeros(2), y=np.zeros(2))
    with pytest.raises(OracleFailure) as excinfo:
        oracle.predict([e], np.zeros(2))
    assert "length 3" in str(excinfo.value)


def test_prediction_beyond_float64_raises(stub_server):
    oracle = RemoteOracle(stub_server + "/huge")
    with pytest.raises(OracleFailure, match=r"^request 1: 'prediction' does not fit float64"):
        oracle.predict([], np.zeros(2))


@pytest.mark.parametrize("route", sorted(NON_FINITE_BODIES))
def test_non_finite_prediction_raises(stub_server, route):
    # A non-finite prediction would score 0 unnoticed: it is a failed call.
    oracle = RemoteOracle(stub_server + route)
    e = Exemplar(id=0, x=np.zeros(2), y=np.zeros(2))
    with pytest.raises(OracleFailure, match=r"^request 1: 'prediction' is not finite"):
        oracle.predict([e], np.zeros(2))


def test_loopback_matches_builtin(stub_server):
    spec = make_benchmark_task(p=3, d=8, noise_sigma=0.1)
    pool, queries = generate_pool(spec, 12, seed=9, n_queries=6)
    local = AssociativeOracle(gamma=2.0, y_dim=spec.y_dim)
    remote = RemoteOracle(stub_server + "/predict")
    context = list(pool)[:4]
    for q in queries:
        s_local = cosine_score(local.predict(context, q.x), q.y)
        s_remote = cosine_score(remote.predict(context, q.x), q.y)
        assert abs(s_local - s_remote) <= 1e-9


@pytest.mark.parametrize("route", ["/drop", "/garbage"])
def test_failed_attempt_is_retried(stub_server, route, monkeypatch):
    StubHandler.seen.clear()
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 1)
    oracle = RemoteOracle(stub_server + route)
    e = Exemplar(id=0, x=np.zeros(2), y=np.zeros(3))
    np.testing.assert_array_equal(oracle.predict([e], np.zeros(2)), [1.0, 2.0, 3.0])
    assert StubHandler.seen == [route, route]


@pytest.mark.parametrize("where", ["query", "x", "y"])
def test_non_finite_input_raises_without_request(stub_server, where):
    StubHandler.seen.clear()
    values = {"query": np.zeros(2), "x": np.zeros(2), "y": np.zeros(3)}
    values[where] = values[where].copy()
    values[where][1] = np.nan
    oracle = RemoteOracle(stub_server + "/echo")
    with pytest.raises(OracleFailure, match=r"^request 1: input is not finite"):
        oracle.predict([Exemplar(id=0, x=values["x"], y=values["y"])], values["query"])
    assert StubHandler.seen == []


@pytest.mark.parametrize("endpoint", ["localhost:1/predict", "ftp://127.0.0.1/x", "http:///predict"])
def test_bad_endpoint_rejected(endpoint):
    with pytest.raises(ValueError, match=r"^oracle.endpoint must"):
        RemoteOracle(endpoint)


def test_remote_predict_does_not_import_requests(stub_server):
    # A fresh interpreter: this process may have requests loaded by a plugin.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hopctx import Exemplar, RemoteOracle\n"
        f"oracle = RemoteOracle({stub_server + '/echo'!r})\n"
        "got = oracle.predict([Exemplar(id=0, x=np.zeros(2), y=np.zeros(3))], np.zeros(2))\n"
        "assert got.tolist() == [1.0, 2.0, 3.0], got\n"
        "print(sorted(m for m in ('http.client', 'requests', 'urllib3') if m in sys.modules))\n"
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
    xs = np.stack([q.x for q in queries])
    t = len(xs) if per_target else 1
    rng = np.random.default_rng(3)
    ids = np.stack([rng.permutation(pool.size)[:3] for _ in range(5 * t)]).reshape(5, t, 3)
    oracle = RemoteOracle(stub_server + "/predict")
    got = oracle.predict_pool(pool, ids, xs)
    assert got.shape == (5, len(xs), 4)
    one_at_a_time = RemoteOracle(stub_server + "/predict")
    for b in range(5):
        for q, x in enumerate(xs):
            context = [pool[i] for i in ids[b, q if per_target else 0]]
            np.testing.assert_array_equal(got[b, q], one_at_a_time.predict(context, x))
    # The batch used request ids 1..n, so the next request is n + 1.
    n = 5 * len(xs)
    with pytest.raises(OracleFailure, match=rf"^request {n + 1}: input is not finite"):
        oracle.predict([pool[0]], np.full(pool.xs.shape[1], np.nan))


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


def test_predict_pool_sends_the_bytes_of_predict(stub_server):
    # Rows arrive in any order (several are in flight), so the bodies are
    # compared sorted; each holds its context and query, so equal sorted
    # lists are the same body per row.
    pool, queries = _pool_and_queries()
    rng = np.random.default_rng(5)
    ids = np.stack([rng.permutation(pool.size)[:3] for _ in range(3)])[:, None]  # (3, 1, K)
    StubHandler.recorded.clear()
    RemoteOracle(stub_server + "/record").predict_pool(pool, ids, queries.xs)
    batch = sorted(StubHandler.recorded)
    StubHandler.recorded.clear()
    one_at_a_time = RemoteOracle(stub_server + "/record")
    documented = []
    for row in ids[:, 0]:
        for x in queries.xs:
            context = [pool[i] for i in row]
            one_at_a_time.predict(context, x)
            documented.append(json.dumps({
                "exemplars": [{"x": e.x.tolist(), "y": e.y.tolist()} for e in context], "query": x.tolist(),
            }).encode())
    assert len(batch) == len(ids) * len(queries)
    assert batch == sorted(StubHandler.recorded) == sorted(documented)
