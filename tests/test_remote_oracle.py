"""HTTP oracle adapter against a local loopback stub."""

import json
import os
import subprocess
import sys
import threading
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


class StubHandler(BaseHTTPRequestHandler):
    """Routes: /echo fixed prediction, /predict builtin-backed, /malformed,
    /error 500, /notjson, /drop and /garbage (on every odd-numbered attempt
    close the connection unanswered, or after a line that is no HTTP status
    line; echo on the others).  ``seen`` lists the path of every POST
    received."""

    oracle = AssociativeOracle(gamma=2.0, y_dim=4)
    seen = []

    def do_POST(self):
        self.seen.append(self.path)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        if self.path in ("/drop", "/garbage") and self.seen.count(self.path) % 2 == 1:
            if self.path == "/garbage":
                self.wfile.write(b"garbage\r\n")
            self.close_connection = True
        elif self.path in ("/echo", "/drop", "/garbage"):
            self._reply(200, {"prediction": [1.0, 2.0, 3.0]})
        elif self.path == "/predict":
            exemplars = [
                Exemplar(id=i, x=np.array(e["x"]), y=np.array(e["y"]))
                for i, e in enumerate(body["exemplars"])
            ]
            pred = self.oracle.predict(exemplars, np.array(body["query"]))
            self._reply(200, {"prediction": pred.tolist()})
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

    def _reply(self, status, payload):
        body = json.dumps(payload).encode()
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
