"""HTTP oracle adapter against a local loopback stub."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

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
    /error 500, /notjson."""

    oracle = AssociativeOracle(gamma=2.0, y_dim=4)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        if self.path == "/echo":
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


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


def test_server_error_raises_after_retries(stub_server):
    oracle = RemoteOracle(stub_server + "/error", max_retries=1)
    with pytest.raises(OracleFailure) as excinfo:
        oracle.predict([], np.zeros(2))
    assert "500" in str(excinfo.value)


def test_unreachable_endpoint_raises():
    oracle = RemoteOracle("http://127.0.0.1:1/predict", timeout=0.2, max_retries=0)
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
