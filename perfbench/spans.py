"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces public hopctx functions with timing wrappers,
each at the place its caller looks the name up (``bounds.hnc_retrieve`` is
patched in ``bounds`` because ``verify_bound`` reads it there), and
``uninstall`` puts the originals back.  A span's busy time is its inclusive
duration; its self time is the busy time minus the part covered by spans
opened inside it.  Nothing under ``src/`` changes.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import requests

from hopctx import bounds, experiments, retrieval, selection, tasks


def _predict_cost(args, result) -> dict:
    """Rows and computed flops of one ``AssociativeOracle.predict*`` call.

    Counts 2 flops per multiply-add of the five matrix products (query and
    key projections, scores, value projection, weighted sum) plus 4 per
    softmax entry (scale, shift, exp, divide), from the array shapes alone.
    """
    context, shape = args[1], np.shape(args[2])
    n = 1 if len(shape) == 1 else shape[0]
    m = len(context)
    d_m = shape[-1] + result.shape[-1]
    flops = 0 if m == 0 else 2 * (n * d_m * d_m + 2 * d_m * d_m * m + 2 * n * d_m * m) + 4 * n * m
    return {"rows": n, "flops": flops}


def _retrieve_cost(args, result) -> dict:
    """Computed flops of one ``hnc_retrieve``: Z = xi_k^T lam, u Z, softmax,
    lam^T xi_k and the weighted sum."""
    model, ctx = args[0], args[1]
    d_m, d_q = model.xi_q.shape
    m = ctx.lam.shape[1]
    return {"flops": 2 * (2 * d_q * d_m * m + 2 * d_q * m) + 4 * m}


def _score_cost(args, result) -> dict:
    return {"failures": 0 if result[1] else 1}


class Tracer:
    """Aggregated spans and counters for one traced experiment call."""

    # Spans whose single durations are kept, for percentiles.
    KEEP_DURATIONS = {"tasks.remote"}

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.durations = defaultdict(list)
        self._stack = []
        self._originals = []

    def reset(self) -> None:
        self.busy.clear()
        self.self_time.clear()
        self.counts.clear()
        self.durations.clear()

    def wrap(self, name, fn, cost=None, nested=True):
        """Time ``fn`` as span ``name``.  ``cost(args, result)`` returns extra
        counts to add; ``nested=False`` folds a call made directly inside a
        span of the same name into that span."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not nested and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.counts[name + ".calls"] += 1
                if name in self.KEEP_DURATIONS:
                    self.durations[name].append(elapsed)
                if stack:
                    stack[-1][1] += elapsed
            if cost is not None:
                for key, value in cost(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def count(self, name, fn):
        """Count calls of ``fn`` without timing them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            # The caller no longer looks the name up there; its layer reads 0.
            print(f"not traced: {owner.__name__}.{attr} does not exist", file=sys.stderr)
            return
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._originals.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self) -> None:
        spans = [
            # experiments: the runners, as cli and run_strategy_comparison call them
            (experiments, "run_k_study", "experiments", None, False),
            (experiments, "run_strategy_comparison", "experiments", None, False),
            (experiments, "run_bound_sweep", "experiments", None, False),
            # selection
            (selection, "estimate_pool_values", "selection.estimate_pool_values", None, True),
            (selection, "metric_select", "selection.metric_select", None, True),
            (selection, "random_select", "selection.random_select", None, True),
            (selection, "sample_prefix", "selection.sample_prefix", None, True),
            # tasks: every score goes through safe_score
            (selection, "safe_score", "tasks.score", _score_cost, True),
            (tasks.AssociativeOracle, "predict", "tasks.predict", _predict_cost, False),
            (tasks.AssociativeOracle, "predict_many", "tasks.predict", _predict_cost, False),
            (tasks, "generate_pool", "tasks.generate_pool", None, True),
            (tasks.RemoteOracle, "predict", "tasks.remote", None, True),
            # retrieval
            (bounds, "hnc_retrieve", "retrieval.hnc_retrieve", _retrieve_cost, True),
            (retrieval, "hnc_retrieve", "retrieval.hnc_retrieve", _retrieve_cost, True),
            (retrieval.ContextualHopfield, "__init__", "retrieval.build", None, False),
            (retrieval.ContextSet, "__init__", "retrieval.build", None, False),
            (retrieval.QueryState, "from_sigma", "retrieval.build", None, False),
            # bounds
            (bounds, "verify_bound", "bounds.verify_bound", None, True),
            (bounds, "separation", "bounds.separation", None, True),
        ]
        for owner, attr, name, cost, nested in spans:
            self._patch(owner, attr, lambda fn, n=name, c=cost, k=nested: self.wrap(n, fn, c, k))
        # Every HTTP attempt of requests, with or without a session, ends here.
        self._patch(requests.Session, "request", lambda fn: self.count("tasks.remote.attempts", fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, server_delta: dict | None) -> dict:
        """Per-layer numbers of the spans recorded since the last ``reset``."""
        c, busy = self.counts, self.busy
        out = {}

        def per_call(name, scale):
            calls = c[name + ".calls"]
            return busy[name] / calls * scale if calls else 0.0

        for name in ("selection.estimate_pool_values", "selection.metric_select",
                     "selection.random_select", "selection.sample_prefix",
                     "tasks.score", "tasks.predict", "retrieval.hnc_retrieve",
                     "retrieval.build", "bounds.verify_bound"):
            out[name + ".calls"] = c[name + ".calls"]
            out[name + ".busy_s"] = busy[name]
        for name in ("selection.estimate_pool_values", "bounds.verify_bound"):
            out[name + ".self_s"] = self.self_time[name]
        out["selection.metric_select.us_per_call"] = per_call("selection.metric_select", 1e6)
        out["tasks.score.us_per_call"] = per_call("tasks.score", 1e6)
        out["tasks.score.failures"] = c["tasks.score.failures"]
        out["tasks.predict.rows"] = c["tasks.predict.rows"]
        calls = c["tasks.predict.calls"]
        out["tasks.predict.rows_per_call"] = c["tasks.predict.rows"] / calls if calls else 0.0
        out["tasks.predict.flops"] = c["tasks.predict.flops"]
        out["tasks.generate_pool.busy_s"] = busy["tasks.generate_pool"]
        out["retrieval.hnc_retrieve.flops"] = c["retrieval.hnc_retrieve.flops"]
        out["bounds.separation.busy_s"] = busy["bounds.separation"]
        out["experiments.self_s"] = self.self_time["experiments"]

        n_requests = c["tasks.remote.calls"]
        ms = self.durations["tasks.remote"]
        pct = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
        server = server_delta or {"connections": 0, "busy_s": 0.0}
        out["tasks.remote.requests"] = n_requests
        out["tasks.remote.busy_s"] = busy["tasks.remote"]
        out["tasks.remote.ms_p50"] = 1e3 * pct[49] if pct else 0.0
        out["tasks.remote.ms_p99"] = 1e3 * pct[98] if pct else 0.0
        out["tasks.remote.retries"] = c["tasks.remote.attempts"] - n_requests
        out["tasks.remote.failures"] = c["tasks.remote.raised"]
        out["tasks.remote.connections"] = server["connections"]
        out["tasks.remote.server_busy_s"] = server["busy_s"]
        out["tasks.remote.wire_s"] = busy["tasks.remote"] - server["busy_s"]
        return out
