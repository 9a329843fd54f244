"""HTTP oracle adapter against a local loopback stub."""

import itertools
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
    every POST received and ``carriers`` the number of the connection that
    carried it, ``recorded`` the raw body of every POST to /record or /hangup.
    Each reply writes its headers and its body in two sends, Nagle on."""

    oracle = AssociativeOracle(gamma=2.0, y_dim=4)
    connection_numbers = itertools.count()
    seen = []
    carriers = []
    recorded = []

    def setup(self):
        super().setup()
        self.number = next(self.connection_numbers)

    def do_POST(self):
        self.seen.append(self.path)
        self.carriers.append(self.number)
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        if self.path in ("/record", "/hangup"):
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
        elif self.path in ("/predict", "/hangup"):
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


class KeepAliveHandler(StubHandler):
    """StubHandler's routes over HTTP/1.1 keep-alive, one connection at a time.
    /hangup answers as /predict, but its arrivals numbered in ``HANGUPS``
    (from 1) are closed unanswered, lingering: FIN goes after the responses
    already written, and the requests pipelined behind are read until the
    client closes, so no reset loses a response.  ``drained`` gets the number
    of requests read that way at each."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # an idle connection holds the one serving thread at most this long
    HANGUPS = (4, 6)
    drained = []

    def do_POST(self):
        if self.path != "/hangup" or self.seen.count("/hangup") + 1 not in self.HANGUPS:
            return super().do_POST()
        self.seen.append(self.path)
        self.carriers.append(self.number)
        self.recorded.append(self.rfile.read(int(self.headers["Content-Length"])))
        self.connection.shutdown(socket.SHUT_WR)
        self.drained.append(self.rfile.read().count(b"POST "))
        self.close_connection = True


def serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    # A short poll interval lets shutdown() return within 0.05 s, not 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def stub_server():
    yield from serve(StubHandler)


@pytest.fixture(scope="module")
def keep_alive_server():
    yield from serve(KeepAliveHandler)


def clear_stub():
    for log in (StubHandler.seen, StubHandler.carriers, StubHandler.recorded, KeepAliveHandler.drained):
        log.clear()


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
    # One row's budget is 0.2 s.  The first request on a connection goes
    # alone, so row 0's timeout ends the batch; going on to row 1 would take
    # a second budget.
    assert elapsed < 2 * 0.2
    assert threading.active_count() == threads


def test_predict_pool_stops_sending_after_a_failed_row(stub_server, monkeypatch):
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 1)
    StubHandler.seen.clear()
    pool, _ = _pool_and_queries()
    oracle = RemoteOracle(stub_server + "/error")
    with pytest.raises(OracleFailure, match=r"^request 1: .*status 500"):
        oracle.predict_pool(pool, np.arange(20)[:, None, None] % pool.size, pool.xs[:1])
    # Row 0 goes alone on each of its connections, and row 1 is never sent.
    assert StubHandler.seen == ["/error"] * (hopctx.tasks.REMOTE_MAX_RETRIES + 1)


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
    # Each body is its row's own json.dumps of the documented request, and
    # the bodies leave in row order.
    pool, ids, queries = batch
    StubHandler.recorded.clear()
    got = RemoteOracle(stub_server + "/record").predict_pool(pool, ids, queries)
    assert got.shape == (len(ids), len(queries), pool.ys.shape[1])
    assert StubHandler.recorded == documented_bodies(pool, ids, queries)


def documented_bodies(pool, ids, queries):
    """The body of each row of a (B, 1 or T, K) batch, in row order: the
    ``json.dumps`` of the documented request."""
    return [
        json.dumps({
            "exemplars": [{"x": pool.xs[i].tolist(), "y": pool.ys[i].tolist()} for i in ids[b, t % ids.shape[1]]],
            "query": x.tolist(),
        }).encode()
        for b in range(len(ids)) for t, x in enumerate(queries)
    ]


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
    # Rows 0 and 1 are sent and answered first; no body holding row 4 is sent.
    assert len(StubHandler.recorded) == 2
    assert not any(b"NaN" in body or b"7.25" in body for body in StubHandler.recorded)


def test_each_distinct_position_is_encoded_once_per_batch(stub_server, monkeypatch):
    encoded = []

    def counting(value):
        if isinstance(value, dict):  # an exemplar, not a query
            encoded.append((value["x"], value["y"]))
        return encode(value)

    encode = hopctx.tasks._json
    monkeypatch.setattr(hopctx.tasks, "_json", counting)
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


@pytest.mark.parametrize("ids, message", [
    ([[0, -1]], "pool position -1 is outside [0, 12)"),
    ([[3, 12]], "pool position 12 is outside [0, 12)"),
    ([[1.7]], "ids must be integer pool positions, got float64 such as 1.7"),
    (np.array([[True]]), "ids must be integer pool positions, got bool such as True"),
], ids=["negative", "past-the-end", "float", "bool"])
@pytest.mark.parametrize("kind", ["builtin", "remote"])
def test_bad_pool_position_is_rejected_before_any_request(stub_server, kind, ids, message):
    # numpy would read -1 as the last row, 1.7 and True as row 1, and raise
    # its own IndexError at 12; the remote oracle would send such a row.
    pool, queries = _pool_and_queries()
    oracle = AssociativeOracle(gamma=2.0) if kind == "builtin" else RemoteOracle(stub_server + "/record")
    StubHandler.seen.clear()
    with pytest.raises(ValueError) as info:
        oracle.predict_pool(pool, ids, queries.xs[0])
    assert str(info.value) == message
    assert StubHandler.seen == []


def _rows_batch(rows):
    """A (rows, 1, 2) batch of distinct contexts over the test pool, on one query."""
    pool, queries = _pool_and_queries()
    ids = np.array(list(itertools.permutations(range(pool.size), 2))[:rows])
    return pool, ids[:, None, :], queries.xs[:1]


def test_keep_alive_batch_uses_one_connection_in_row_order(keep_alive_server):
    clear_stub()
    pool, ids, query = _rows_batch(20)
    got = RemoteOracle(keep_alive_server + "/record").predict_pool(pool, ids, query)
    np.testing.assert_array_equal(got, np.zeros((20, 1, 4)))
    assert StubHandler.recorded == documented_bodies(pool, ids, query)
    assert len(set(StubHandler.carriers)) == 1


def test_http10_server_gets_one_request_per_connection(stub_server):
    # Its responses never keep the connection open, so nothing is pipelined.
    clear_stub()
    pool, ids, query = _rows_batch(20)
    got = RemoteOracle(stub_server + "/record").predict_pool(pool, ids, query)
    np.testing.assert_array_equal(got, np.zeros((20, 1, 4)))
    assert StubHandler.recorded == documented_bodies(pool, ids, query)
    assert len(set(StubHandler.carriers)) == 20


def test_row_dropped_mid_pipeline_is_the_only_row_charged(keep_alive_server, monkeypatch):
    # Arrival 4 (row 3) is dropped with rows 4-6 pipelined behind it: row 3
    # uses its one retry, and rows 4-6 are sent again without using theirs.
    # Arrival 6 (row 4, behind row 3's retry) is dropped too: had row 4 been
    # charged for the first drop, it would now fail the batch.
    monkeypatch.setattr(hopctx.tasks, "REMOTE_MAX_RETRIES", 1)
    clear_stub()
    pool, ids, query = _rows_batch(20)
    got = RemoteOracle(keep_alive_server + "/hangup").predict_pool(pool, ids, query)
    np.testing.assert_array_equal(got, AssociativeOracle(gamma=2.0).predict_pool(pool, ids, query))
    assert got.shape == (20, 1, 4)
    bodies = documented_bodies(pool, ids, query)
    assert StubHandler.recorded == bodies[:4] + bodies[3:5] + bodies[4:]
    assert KeepAliveHandler.drained == [3, 3]
    # Connections: rows 0-3, then row 3 again and row 4, then row 4 onwards.
    assert StubHandler.carriers == sorted(StubHandler.carriers)
    assert [StubHandler.carriers.count(c) for c in dict.fromkeys(StubHandler.carriers)] == [4, 2, 16]


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                    reason="no TCP_QUICKACK here: a body sent after its headers may wait for the "
                           "client's delayed ACK, so the time bound does not hold")
def test_pipelined_responses_do_not_wait_for_delayed_acks(keep_alive_server):
    # The stub writes each response's headers and body in two sends with
    # Nagle on.  Were the client to delay its ACK of the headers, each body
    # would wait for it (about 40 ms on Linux): 100 rows would take seconds.
    clear_stub()
    pool, ids, query = _rows_batch(100)
    t0 = time.perf_counter()
    RemoteOracle(keep_alive_server + "/record").predict_pool(pool, ids, query)
    assert time.perf_counter() - t0 < 0.5
    assert len(set(StubHandler.carriers)) == 1
