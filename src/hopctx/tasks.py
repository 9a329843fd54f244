"""Synthetic completion tasks, score functions, and completion oracles.

A task draws labelled (x, y) pairs from a small set of latent prototype
vectors: the prototype is chosen uniformly, isotropic Gaussian noise is added
to x, and y stays the clean completion of the chosen prototype.  Predictors
are "completion oracles": anything with ``predict(context_exemplars, x)``,
optionally with a batched ``predict_pool(pool, ids, xs)`` that takes each
context as pool positions (``selection.score_contexts`` uses it when present).
Each built-in score is a scalar function with a bare batched ``rows``
kernel; ``selection.score_rows`` applies the safe-score rule to either form.
The built-in oracle answers by associative retrieval over the context (x, y)
pairs themselves (one exemplar gets weight 1, so it skips the softmax), so
every experiment runs fully locally; an HTTP adapter lets a remote predictor
stand in behind the same interface, ``predict_pool`` included: it sends one
request per row, up to ``REMOTE_IN_FLIGHT`` at once.
"""

import json
import math
import urllib.parse
import warnings
from dataclasses import dataclass

import numpy as np

from .retrieval import _finite_product, _row_dot, retrieval_update
from .selection import ExemplarPool, _broadcast_rows

__all__ = [
    "TaskSpec",
    "AssociativeOracle",
    "RemoteOracle",
    "OracleFailure",
    "SCORE_TAGS",
    "cosine_score",
    "exact_match",
    "negative_error",
    "get_score_fn",
    "make_task",
    "make_benchmark_task",
    "generate_pool",
]


TASK_KINDS = ("prototype-completion", "key-value-association")

# ``RemoteOracle``: seconds allowed per connect or read, and retries after a failed attempt.
REMOTE_TIMEOUT_S = 10.0
REMOTE_MAX_RETRIES = 2
# Most ``RemoteOracle.predict_pool`` requests in flight at once.  Each waits
# in the server's listen backlog until accepted: at most 4 fits the default
# backlog of 5 of a one-thread ``http.server``, where a full queue drops the
# connection attempt and costs a 1 s retransmit.
REMOTE_IN_FLIGHT = 4


@dataclass(frozen=True)
class TaskSpec:
    """Generative law of a task: latent prototypes plus an x-noise level.

    ``prototype-completion``: x = prototype + noise, y = prototype.
    ``key-value-association``: each prototype is a concatenated (key, value)
    pair split at d//2; x = (key + noise, zero block), y = the value block.
    """

    kind: str
    d: int
    prototypes: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        protos = np.asarray(self.prototypes, dtype=np.float64)
        if protos.ndim != 2 or protos.shape[0] < 1 or not np.isfinite(protos).all():
            raise ValueError("prototypes must be a finite (P, d) matrix with P >= 1")
        if protos.shape[1] != self.d:
            raise ValueError(f"prototype dimension {protos.shape[1]} != d={self.d}")
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "key-value-association" and self.d % 2 != 0:
            raise ValueError("key-value-association needs an even d (split at d//2)")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma!r}")
        object.__setattr__(self, "prototypes", protos)
        if protos.shape[0] > 1:
            dists = [
                float(np.linalg.norm(protos[i] - protos[j]))
                for i in range(protos.shape[0])
                for j in range(i + 1, protos.shape[0])
            ]
            if min(dists) == 0.0:
                raise ValueError("prototypes must be pairwise distinct")
            if min(dists) <= 4 * self.noise_sigma:
                warnings.warn(
                    f"min prototype distance {min(dists):.4g} <= 4*noise_sigma (noise_sigma={self.noise_sigma!r}); "
                    "latent patterns may be hard to tell apart",
                    stacklevel=3,  # the code that built the TaskSpec, past the generated __init__
                )

    @property
    def p(self) -> int:
        return self.prototypes.shape[0]

    @property
    def y_dim(self) -> int:
        return self.d if self.kind == "prototype-completion" else self.d // 2


# ---------------------------------------------------------------------------
# Score functions (higher is better)
# ---------------------------------------------------------------------------


def _as_pair(y_hat, y):
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ValueError(f"prediction shape {y_hat.shape} != target shape {y.shape}")
    return y_hat, y


def cosine_score(y_hat, y) -> float:
    """(1 + cos(y_hat, y)) / 2, in [0, 1].  Undefined for zero vectors."""
    y_hat, y = _as_pair(y_hat, y)
    nh, ny = np.linalg.norm(y_hat), np.linalg.norm(y)
    if nh == 0.0 or ny == 0.0:
        raise ValueError("cosine score undefined for zero vectors")
    cos = float(y_hat @ y) / (nh * ny)
    return (1.0 + cos) / 2.0


def _cosine_rows(y_hats, ys):
    # A zero-norm row divides by 0 or NaN, so its score is never finite.
    nh, ny = np.sqrt(_row_dot(y_hats, y_hats)), np.sqrt(_row_dot(ys, ys))
    return (1.0 + _row_dot(y_hats, ys) / (nh * ny)) / 2.0


def exact_match(y_hat, y) -> float:
    """1 if the prediction equals the target exactly, else 0."""
    y_hat, y = _as_pair(y_hat, y)
    return 1.0 if np.array_equal(y_hat, y) else 0.0


def _exact_match_rows(y_hats, ys):
    return (y_hats == ys).all(axis=-1).astype(np.float64)


def negative_error(y_hat, y) -> float:
    """-||y_hat - y||: negated Euclidean error, 0 at a perfect prediction."""
    y_hat, y = _as_pair(y_hat, y)
    return float(-np.linalg.norm(y_hat - y))


def _negative_error_rows(y_hats, ys):
    diff = y_hats - ys
    return -np.sqrt(_row_dot(diff, diff))


# Rows kernel of each score, run by ``selection.score_rows``: float64
# predictions and targets (..., d) in, their leading axes broadcast, and one
# score per broadcast row out, non-finite where undefined.
cosine_score.rows = _cosine_rows
exact_match.rows = _exact_match_rows
negative_error.rows = _negative_error_rows

SCORE_TAGS = {
    "cosine-score": cosine_score,
    "exact-match": exact_match,
    "negative-error": negative_error,
}


def get_score_fn(tag: str):
    if tag not in SCORE_TAGS:
        raise ValueError(f"unknown score function {tag!r}; known: {sorted(SCORE_TAGS)}")
    return SCORE_TAGS[tag]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class OracleFailure(RuntimeError):
    """A completion oracle could not produce a usable prediction."""


class AssociativeOracle:
    """Completion by associative retrieval over the context pairs.

    Each context exemplar is embedded as the pattern (x_i, y_i); the query is
    embedded as (x, 0).  Retrieval at inverse temperature gamma with identity
    projections (pure associative completion) produces an updated pattern
    whose trailing block is the prediction.  With no context there is nothing
    to retrieve and the prediction is the zero vector (``y_dim`` must be set
    for that case).

    ``predict_pool`` is the batched form: every context is a set of pool
    positions, gathered from the pool's x and y rows.  ``predict_many`` (one
    context, many queries) and ``predict`` (one of each) are front-ends over
    the same ``_retrieve``, which skips the softmax for a one-exemplar
    context, and every row of any of them has the same bits.
    """

    def __init__(self, gamma: float = 1.0, y_dim: int | None = None):
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {gamma}")
        self.gamma = float(gamma)
        self.y_dim = y_dim

    def predict(self, context_exemplars, x) -> np.ndarray:
        return self.predict_many(context_exemplars, np.asarray(x, dtype=np.float64)[None, :])[0]

    def predict_many(self, context_exemplars, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ValueError(f"expected a (n, d_x) batch, got shape {xs.shape}")
        context_exemplars = list(context_exemplars)
        if not context_exemplars:
            if self.y_dim is None:
                raise OracleFailure("zero-context prediction needs y_dim to be configured")
            return np.zeros((xs.shape[0], self.y_dim))
        d_y = context_exemplars[0].y.shape[0]
        for e in context_exemplars:
            if e.x.shape != xs.shape[1:] or e.y.shape != (d_y,):
                raise ValueError("context exemplar dimensions do not match the query")
        cxs, cys = np.stack([e.x for e in context_exemplars]), np.stack([e.y for e in context_exemplars])
        return self._retrieve(cxs, cys, np.arange(len(cxs)), xs).copy()

    def predict_pool(self, pool: ExemplarPool, ids, xs) -> np.ndarray:
        """Predictions of the contexts ``ids[..., :K]`` (pool positions) on
        the query rows ``xs[..., :d_x]``, their leading axes broadcast: shape
        (*batch, d_y), a read-only view for one-exemplar contexts.  Row r
        equals ``predict([pool[i] for i in ids[r]], xs[r])`` bit for bit."""
        ids = np.asarray(ids, dtype=np.intp)
        xs = np.asarray(xs, dtype=np.float64)
        if ids.ndim < 1 or ids.shape[-1] < 1:
            raise ValueError(f"ids must hold at least one pool position per context, got shape {ids.shape}")
        if xs.ndim < 1 or pool.xs.shape[1:] != xs.shape[-1:]:
            raise ValueError("context exemplar dimensions do not match the query")
        return self._retrieve(pool.xs, pool.ys, ids, xs)

    def _retrieve(self, cxs, cys, ids, xs) -> np.ndarray:
        """y-blocks of the retrieval over the contexts ``ids[..., :K]``: the
        patterns v are the (x, y) rows of ``cxs`` and ``cys``, the queries the
        (x, 0) rows, and each row's v and z = v^T are C-contiguous, so each row
        makes the same BLAS call however the batch is shaped.  With K = 1 the
        weight is exp(gamma * 0) / 1 = 1.0 exactly for every finite score
        (still formed, so an overflowing u z raises): the prediction is y plus
        0.0, the bits of 1.0 * y (BLAS sums from 0, so -0.0 gives +0.0),
        formed once and repeated over the query rows as a read-only view."""
        v = np.hstack([cxs, cys])[ids]
        z = np.ascontiguousarray(np.swapaxes(v, -1, -2))
        sigmas = np.concatenate([xs, np.zeros(xs.shape[:-1] + cys.shape[-1:])], axis=-1)
        if ids.shape[-1] > 1:
            return retrieval_update(sigmas, z, v, self.gamma)[1][..., xs.shape[-1]:]
        scores = _finite_product(sigmas[..., None, :], z, "scores u z")[..., 0, :]
        return np.broadcast_to(cys[ids[..., 0]] + 0.0, scores.shape[:-1] + cys.shape[-1:])


def split_endpoint(endpoint: str) -> tuple[str, str, int | None, str]:
    """(scheme, host, port, path with query) of an http:// or https:// URL;
    ``ValueError`` naming ``oracle.endpoint`` for anything else."""
    try:
        # Percent-encoding is the caller's job: http.client sends the URL as is.
        if not endpoint.isascii() or not endpoint.isprintable() or " " in endpoint:
            raise ValueError
        parts = urllib.parse.urlsplit(endpoint)
        port = parts.port  # raises on a non-numeric or out-of-range port
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError
    except ValueError:
        raise ValueError(
            "oracle.endpoint must be an http:// or https:// URL of printable ASCII "
            f"with a host and a valid port, got {endpoint!r}"
        ) from None
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    return parts.scheme, parts.hostname, port, path


class RemoteOracle:
    """HTTP adapter: POST one JSON request per prediction.

    Request body:  {"exemplars": [{"x": [...], "y": [...]}, ...], "query": [...]}
    Response body: {"prediction": [...]}
    Each attempt opens one connection and asks the server to close it
    (``Connection: close``).  A transport error or a non-2xx status is retried
    up to ``REMOTE_MAX_RETRIES`` times; a non-finite input, a malformed body, a
    prediction whose length differs from the context's y or that is not finite
    in float64, or exhausted retries raise ``OracleFailure``.

    ``predict`` sends one request.  ``predict_pool`` sends one per broadcast
    row of a batch of pool-indexed contexts, with up to ``REMOTE_IN_FLIGHT``
    in flight, and returns them in row order.  Requests are numbered from 1
    per oracle, in row order within a batch, and a failure names its number.
    """

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self._scheme, self._host, self._port, self._path = split_endpoint(endpoint)
        self._request_counter = 0

    def predict(self, context_exemplars, x) -> np.ndarray:
        context = list(context_exemplars)
        self._request_counter += 1
        return self._post([e.x for e in context], [e.y for e in context], x, self._request_counter)

    def predict_pool(self, pool: ExemplarPool, ids, xs) -> np.ndarray:
        """Predictions of the contexts ``ids[..., :K]`` (pool positions) on
        the query rows ``xs[..., :d_x]``, their leading axes broadcast: shape
        (*batch, d_y).  Row r is ``predict([pool[i] for i in ids[r]], xs[r])``
        as request r + 1 of the batch.  The first failing row in row order
        raises its ``OracleFailure``; once any row has failed, no row not yet
        sent is sent."""
        # Imported here, as http.client is: only a remote batch needs them.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        ids, xs, batch = _broadcast_rows(ids, xs)
        first = self._request_counter
        self._request_counter += len(ids)
        stop = threading.Event()

        def post(r):
            if stop.is_set():
                return None  # a row has failed; its error is raised instead
            try:
                return self._post(pool.xs[ids[r]], pool.ys[ids[r]], xs[r], first + r + 1)
            except BaseException:
                stop.set()
                raise

        executor = ThreadPoolExecutor(max_workers=REMOTE_IN_FLIGHT)
        try:
            predictions = list(executor.map(post, range(len(ids))))
        finally:
            # Also when the caller is interrupted: rows not yet sent stay unsent.
            stop.set()
            executor.shutdown(cancel_futures=True)
        return np.array(predictions, dtype=np.float64).reshape(batch + pool.ys.shape[1:])

    def _post(self, context_xs, context_ys, x, request_id) -> np.ndarray:
        # Imported here, not at module level, so that runs with a local oracle
        # never load the HTTP stack (http.client, ssl, email, ...).
        import http.client

        body = {
            "exemplars": [
                {"x": np.asarray(cx, dtype=float).tolist(), "y": np.asarray(cy, dtype=float).tolist()}
                for cx, cy in zip(context_xs, context_ys)
            ],
            "query": np.asarray(x, dtype=float).tolist(),
        }
        try:
            data = json.dumps(body, allow_nan=False).encode()
        except ValueError as exc:
            raise OracleFailure(f"request {request_id}: input is not finite ({exc})") from exc
        headers = {"Content-Type": "application/json", "Connection": "close"}
        connection_class = (
            http.client.HTTPSConnection if self._scheme == "https" else http.client.HTTPConnection
        )
        last_error = None
        for _ in range(REMOTE_MAX_RETRIES + 1):
            conn = connection_class(self._host, self._port, timeout=REMOTE_TIMEOUT_S)
            try:
                conn.request("POST", self._path, body=data, headers=headers)
                resp = conn.getresponse()
                status, raw = resp.status, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            finally:
                conn.close()
            if not 200 <= status < 300:
                last_error = OracleFailure(f"request {request_id}: status {status} from {self.endpoint}")
                continue
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise OracleFailure(f"request {request_id}: response is not JSON ({exc})") from exc
            if not isinstance(payload, dict) or "prediction" not in payload:
                raise OracleFailure(f"request {request_id}: response missing 'prediction'")
            prediction = payload["prediction"]
            if not isinstance(prediction, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in prediction
            ):
                raise OracleFailure(f"request {request_id}: 'prediction' is not a numeric list")
            if len(context_ys) and len(prediction) != len(context_ys[0]):
                raise OracleFailure(
                    f"request {request_id}: prediction has length {len(prediction)}, "
                    f"context y has length {len(context_ys[0])}"
                )
            try:
                prediction = np.asarray(prediction, dtype=np.float64)
            except OverflowError as exc:  # an integer beyond the float64 range
                raise OracleFailure(f"request {request_id}: 'prediction' does not fit float64 ({exc})") from exc
            if not np.isfinite(prediction).all():  # NaN, Infinity or a float literal such as 1e400
                raise OracleFailure(f"request {request_id}: 'prediction' is not finite")
            return prediction
        raise OracleFailure(f"request {request_id}: no successful response ({last_error})")


# ---------------------------------------------------------------------------
# Task construction and sampling
# ---------------------------------------------------------------------------


def _simplex_directions(m: int) -> np.ndarray:
    """m unit vectors in R^m with constant pairwise cosine -1/(m-1), summing to 0."""
    if m == 1:
        return np.ones((1, 1))
    basis = np.eye(m) - 1.0 / m
    return basis / np.linalg.norm(basis, axis=1, keepdims=True)


# Key norm of the benchmark's hub association, and the weight of the shared
# value component in every rare value.
HUB_GAIN = 60.0
SHARED_WEIGHT = 0.4


def make_benchmark_task(p: int = 5, d: int = 16, noise_sigma: float = 0.1) -> TaskSpec:
    """Key-value benchmark with one dominant association and p-1 rare ones.

    The first association ("hub") has a key of norm ``HUB_GAIN`` along the
    common key direction, so any context containing it captures the retrieval
    regardless of the query, and its value is the component all other values
    share.  The remaining associations sit on the same unit key (queries
    cannot tell them apart through x) and carry values
    SHARED_WEIGHT * g + sqrt(1 - SHARED_WEIGHT^2) * s_j with s_j simplex
    directions, so the hub value is each rare value's best non-exact answer.
    """
    if p < 2:
        raise ValueError("benchmark needs at least 2 associations")
    if d % 2 != 0:
        raise ValueError("benchmark task needs an even d")
    half = d // 2
    if half < p:
        raise ValueError(f"d={d} too small for p={p}: needs d/2 >= p")
    key_dir = np.zeros(half)
    key_dir[0] = 1.0
    g = np.zeros(half)
    g[0] = 1.0
    tilts = _simplex_directions(p - 1)
    beta = math.sqrt(max(0.0, 1.0 - SHARED_WEIGHT**2))
    prototypes = np.zeros((p, d))
    prototypes[0, :half] = HUB_GAIN * key_dir
    prototypes[0, half:] = g
    for j in range(p - 1):
        prototypes[j + 1, :half] = key_dir
        value = SHARED_WEIGHT * g
        value[1 : 1 + (p - 1)] += beta * tilts[j]
        prototypes[j + 1, half:] = value
    return TaskSpec(kind="key-value-association", d=d, prototypes=prototypes, noise_sigma=noise_sigma)


def make_task(kind: str, d: int, prototypes: int, noise_sigma: float, seed: int = 0) -> TaskSpec:
    """Build a task spec with generated prototypes.

    ``prototype-completion`` draws unit-norm Gaussian prototypes from the
    seed; ``key-value-association`` builds the hub benchmark geometry (the
    seed then only affects sampling, not the prototypes).
    """
    if kind == "prototype-completion":
        rng = np.random.default_rng(seed)
        protos = rng.standard_normal((prototypes, d))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        return TaskSpec(kind=kind, d=d, prototypes=protos, noise_sigma=noise_sigma)
    if kind == "key-value-association":
        return make_benchmark_task(p=prototypes, d=d, noise_sigma=noise_sigma)
    raise ValueError(f"unknown task kind {kind!r}")


def generate_pool(
    spec: TaskSpec,
    n: int,
    seed: int,
    n_queries: int = 0,
) -> tuple[ExemplarPool, ExemplarPool]:
    """Draw a training pool and test queries i.i.d. from the task law.

    Prototypes are chosen uniformly; the pool is drawn first, then the
    queries, from one stream seeded by ``seed``.  Each draw takes
    ``rng.integers(spec.p)`` for its prototype, then
    ``rng.standard_normal(w)`` for its x-noise, w = d/2 for
    ``key-value-association`` and d otherwise (a buffered 32-bit integer draw
    sits between the normals, so the draws are not merged).  The arithmetic,
    elementwise and so the same bits as one draw at a time, is then done once
    for all rows.  Returns the pool and the queries as two pools of those
    arrays, each numbered from 0 (the query pool is empty when n_queries is
    0); ``pool[i]`` builds an ``Exemplar`` with its ``latent_id``.
    """
    if n < 2:
        raise ValueError("pool size must be at least 2")
    if n_queries < 0:
        raise ValueError("n_queries must be nonnegative")
    rng = np.random.default_rng(seed)
    half = spec.d // 2
    w = half if spec.kind == "key-value-association" else spec.d
    latents, noise = np.empty(n + n_queries, dtype=np.intp), np.empty((n + n_queries, w))
    for i in range(n + n_queries):
        latents[i] = rng.integers(spec.p)
        rng.standard_normal(out=noise[i])
    protos = spec.prototypes[latents]
    if spec.kind == "prototype-completion":
        xs, ys = protos + spec.noise_sigma * noise, protos
    else:
        xs = np.concatenate([protos[:, :half] + spec.noise_sigma * noise, np.zeros((n + n_queries, half))], axis=1)
        ys = protos[:, half:]
    pool_rows, query_rows = slice(n), slice(n, None)
    return tuple(ExemplarPool._of_rows(xs[s], ys[s], latents[s].tolist()) for s in (pool_rows, query_rows))
