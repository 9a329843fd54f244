"""Loopback predictor for the ``remote-oracle`` workload.

Run as a script, this file is the server: it serves ``POST /predict`` in the
request format of ``hopctx.RemoteOracle`` and answers with
``hopctx.AssociativeOracle`` at the given gamma, so a remote run produces the
same bytes as the builtin oracle.  ``GET /stats`` returns counters: predict
requests, connections that carried at least one predict request, and seconds
spent in the predict handler.  The first stdout line is the bound port.

One thread serves one connection at a time (``HTTPServer``, not the threading
variant).  HTTP/1.1 keep-alive is honoured, so a client that reuses its
connection shows fewer connections.

Imported, it provides ``LoopbackServer``, which runs the script as a child
process and stops it on ``close``.

    PYTHONPATH=src python3 perfbench/loopback.py --gamma 2.0 --y-dim 8
"""

import argparse
import json
import os
import select
import subprocess
import sys
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np

from hopctx import AssociativeOracle, Exemplar

SRC = Path(__file__).resolve().parent.parent / "src"
# An idle keep-alive connection blocks the single serving thread; this bounds
# how long it can do so.
IDLE_TIMEOUT_S = 5.0
# Start-up and control requests must fail rather than hang the benchmark.
START_TIMEOUT_S = 20.0
CONTROL_TIMEOUT_S = 10.0


class PredictHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S

    def handle(self):
        self.predicts = 0
        super().handle()
        if self.predicts:
            self.server.stats["connections"] += 1

    def do_POST(self):
        t0 = time.perf_counter()
        if self.path != "/predict":
            self._reply(404, {"error": f"no route {self.path}"})
            return
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        exemplars = [
            Exemplar(id=i, x=np.asarray(e["x"], dtype=np.float64), y=np.asarray(e["y"], dtype=np.float64))
            for i, e in enumerate(body["exemplars"])
        ]
        prediction = self.server.oracle.predict(exemplars, np.asarray(body["query"], dtype=np.float64))
        self._reply(200, {"prediction": prediction.tolist()})
        self.predicts += 1
        self.server.stats["requests"] += 1
        self.server.stats["busy_s"] += time.perf_counter() - t0

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, self.server.stats)
        else:
            self._reply(404, {"error": f"no route {self.path}"})

    def _reply(self, status, payload):
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def child_env() -> dict:
    """Environment for a child interpreter that imports hopctx from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class LoopbackServer:
    """This file's server in a child process for an ``ExperimentConfig``,
    ready once it has answered one predict request."""

    def __init__(self, config):
        x_dim = config.task_d
        y_dim = config.task_d // 2 if config.task_kind == "key-value-association" else config.task_d
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--gamma", repr(config.oracle_gamma), "--y-dim", str(y_dim)],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.strip().isdigit():
                raise RuntimeError(f"loopback server did not report a port within {START_TIMEOUT_S} s")
            self.base = f"http://127.0.0.1:{int(line)}"
            self.endpoint = self.base + "/predict"
            first = {"exemplars": [{"x": [1.0] * x_dim, "y": [1.0] * y_dim}], "query": [1.0] * x_dim}
            reply = self._request(self.endpoint, json.dumps(first).encode())
            if len(reply["prediction"]) != y_dim:
                raise RuntimeError(f"loopback server answered {reply!r}")
        except BaseException:
            self.close()
            raise

    def _request(self, url, data=None) -> dict:
        req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=CONTROL_TIMEOUT_S) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._request(self.base + "/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopback predictor for the remote-oracle workload")
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--y-dim", type=int, required=True)
    args = parser.parse_args(argv)
    server = HTTPServer(("127.0.0.1", 0), PredictHandler)
    server.oracle = AssociativeOracle(gamma=args.gamma, y_dim=args.y_dim)
    server.stats = {"requests": 0, "connections": 0, "busy_s": 0.0}
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
