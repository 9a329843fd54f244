"""Synthetic completion tasks, score functions, and completion oracles.

A task draws labelled (x, y) pairs from a small set of latent prototype
vectors: the prototype is chosen uniformly, isotropic Gaussian noise is added
to x, and y stays the clean completion of the chosen prototype.  Predictors
are "completion oracles": an oracle defines ``predict_pool(pool, ids, xs)``,
the predictions of contexts given as pool positions on query rows, or
serves the remote wire format of ``RemoteOracle``.  A score maps (..., d)
predictions and targets to one score per row, non-finite where undefined;
``selection.score_rows`` applies the safe-score rule to it.  The built-in
oracle answers by associative retrieval over the context (x, y) pairs
themselves (one exemplar gets weight 1, so it skips the softmax), so every
experiment runs fully locally; an HTTP adapter lets a remote predictor
stand in behind the same ``predict_pool``: it sends one request per row, up
to ``REMOTE_IN_FLIGHT`` at once.
"""

import json
import math
import urllib.parse
import warnings
from dataclasses import dataclass

import numpy as np

from .retrieval import _finite_product, _row_dot, retrieval_update
from .selection import ExemplarPool

__all__ = [
    "TaskSpec",
    "Exemplar",
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
# Score functions (higher is better): float64 predictions and targets
# (..., d) in, their leading axes broadcast, and one score per broadcast row
# out, non-finite where undefined.
# ---------------------------------------------------------------------------


def cosine_score(y_hats, ys):
    """(1 + cos(y_hat, y)) / 2 per row, in [0, 1]; never finite for a zero row
    (it divides by 0 or NaN)."""
    nh, ny = np.sqrt(_row_dot(y_hats, y_hats)), np.sqrt(_row_dot(ys, ys))
    return (1.0 + _row_dot(y_hats, ys) / (nh * ny)) / 2.0


def exact_match(y_hats, ys):
    """1 per row where the prediction equals the target exactly, else 0."""
    return (y_hats == ys).all(axis=-1).astype(np.float64)


def negative_error(y_hats, ys):
    """-||y_hat - y|| per row: negated Euclidean error, 0 at a perfect prediction."""
    diff = y_hats - ys
    return -np.sqrt(_row_dot(diff, diff))


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


@dataclass(frozen=True)
class Exemplar:
    """A labelled (x, y) pair, the context element of
    ``AssociativeOracle.predict`` and ``predict_many``."""

    id: int
    x: np.ndarray
    y: np.ndarray


def _pool_query(pool: ExemplarPool, ids, xs) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` as pool positions and ``xs`` as float64 query rows, checked
    for every oracle's ``predict_pool``: each context holds at least one
    position, every position is an integer in [0, N), and each query row
    has the pool's x width.  Nothing is cast or wrapped: a float or bool
    array, or a negative position, is an error, not another row."""
    ids, xs = np.asarray(ids), np.asarray(xs, dtype=np.float64)
    if ids.ndim < 1 or ids.shape[-1] < 1:
        raise ValueError(f"ids must hold at least one pool position per context, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"ids must be integer pool positions, got {ids.dtype} such as {ids.flat[0]}")
    if ids.size:
        lo, hi = ids.min(), ids.max()
        if lo < 0 or hi >= len(pool):
            raise ValueError(f"pool position {lo if lo < 0 else hi} is outside [0, {len(pool)})")
    ids = ids.astype(np.intp, copy=False)
    if xs.ndim < 1 or pool.xs.shape[1:] != xs.shape[-1:]:
        raise ValueError("context exemplar dimensions do not match the query")
    return ids, xs


class AssociativeOracle:
    """Completion by associative retrieval over the context pairs.

    Each context exemplar is embedded as the pattern (x_i, y_i); the query is
    embedded as (x, 0).  Retrieval at inverse temperature gamma with identity
    projections (pure associative completion) produces an updated pattern
    whose trailing block is the prediction.

    ``predict_pool`` is the oracle: every context is a set of pool
    positions, gathered from the pool's x and y rows.  ``predict_many`` (one
    context of ``Exemplar`` pairs, many queries) and ``predict`` (one of
    each) are front-ends over it, with its checks and its bits, and return
    writable arrays of their own.  With no context they have nothing to
    retrieve and the prediction is the zero vector (``y_dim`` must be set
    for that case).
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
        context = list(context_exemplars)
        if not context:
            if self.y_dim is None:
                raise OracleFailure("zero-context prediction needs y_dim to be configured")
            return np.zeros((xs.shape[0], self.y_dim))
        try:
            cxs, cys = np.stack([e.x for e in context]), np.stack([e.y for e in context])
        except ValueError:  # ragged rows
            raise ValueError("context exemplar dimensions do not match the query") from None
        pool = ExemplarPool(cxs, cys)
        return self.predict_pool(pool, np.arange(len(context)), xs).copy()

    def predict_pool(self, pool: ExemplarPool, ids, xs) -> np.ndarray:
        """Predictions of the contexts ``ids[..., :K]`` (pool positions) on
        the query rows ``xs[..., :d_x]``, their leading axes broadcast: shape
        (*batch, d_y), a read-only view for one-exemplar contexts.

        The patterns v are the (x, y) rows of the pool, the queries the (x, 0)
        rows, and each row's v and z = v^T are C-contiguous, so each row makes
        the same BLAS call however the batch is shaped.  With K = 1 the
        weight is exp(gamma * 0) / 1 = 1.0 exactly for every finite score
        (still formed, so an overflowing u z raises): the prediction is y
        plus 0.0, the bits of 1.0 * y (BLAS sums from 0, so -0.0 gives
        +0.0), formed once and repeated over the query rows as a read-only
        view."""
        ids, xs = _pool_query(pool, ids, xs)
        v = np.hstack([pool.xs, pool.ys])[ids]
        z = np.ascontiguousarray(np.swapaxes(v, -1, -2))
        sigmas = np.concatenate([xs, np.zeros(xs.shape[:-1] + pool.ys.shape[-1:])], axis=-1)
        if ids.shape[-1] > 1:
            return retrieval_update(sigmas, z, v, self.gamma)[1][..., xs.shape[-1]:]
        scores = _finite_product(sigmas[..., None, :], z, "scores u z")[..., 0, :]
        return np.broadcast_to(pool.ys[ids[..., 0]] + 0.0, scores.shape[:-1] + pool.ys.shape[-1:])


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


def _exemplar_json(x: list, y: list):
    """The object {"x": [...], "y": [...]} of one exemplar, as ``json.dumps``
    writes it inside a request body, or the ``ValueError`` of a non-finite
    entry."""
    try:
        return json.dumps({"x": x, "y": y}, allow_nan=False)
    except ValueError as exc:
        return exc


class RemoteOracle:
    """HTTP adapter: POST one JSON request per context row of ``predict_pool``.

    Request body:  {"exemplars": [{"x": [...], "y": [...]}, ...], "query": [...]}
    Response body: {"prediction": [...]}
    Each attempt opens one connection and asks the server to close it
    (``Connection: close``).  A transport error or a non-2xx status is retried
    up to ``REMOTE_MAX_RETRIES`` times; a non-finite input, a malformed body, a
    prediction whose length differs from the context's y or that is not finite
    in float64, or exhausted retries raise ``OracleFailure``.

    ``predict_pool`` sends one request per broadcast row of a batch of
    pool-indexed contexts, in C order, with up to ``REMOTE_IN_FLIGHT`` in
    flight, and returns them in row order.  Requests are numbered from 1 per
    oracle, in row order within a batch, and a failure names its number.  Each distinct
    pool row of a batch is encoded once, by the ``json.dumps`` call that would
    write it inside a whole body, and each body joins its context's encoded
    rows with its query's, so the bytes are those of ``json.dumps(body)``.  A
    non-finite pool row fails only the rows whose context holds it, and no
    body holding it is sent; nothing is kept from one batch to the next.
    """

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self._scheme, self._host, self._port, self._path = split_endpoint(endpoint)
        self._request_counter = 0

    def predict_pool(self, pool: ExemplarPool, ids, xs) -> np.ndarray:
        """Predictions of the contexts ``ids[..., :K]`` (pool positions) on
        the query rows ``xs[..., :d_x]``, their leading axes broadcast: shape
        (*batch, d_y), with ``AssociativeOracle.predict_pool``'s checks.  Row r
        is request r + 1 of the batch.  The first failing row in row order
        raises its ``OracleFailure``; once any row has failed, no row not yet
        sent is sent."""
        # Imported here, as http.client is: only a remote batch needs them.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        ids, xs = _pool_query(pool, ids, xs)
        batch = np.broadcast_shapes(ids.shape[:-1], xs.shape[:-1])
        ids = np.broadcast_to(ids, batch + ids.shape[-1:]).reshape(-1, ids.shape[-1]).tolist()
        xs = np.broadcast_to(xs, batch + xs.shape[-1:]).reshape(-1, xs.shape[-1])
        # Each distinct position once: its {"x": ..., "y": ...} or its ValueError.
        positions = list(dict.fromkeys(p for row in ids for p in row))
        exemplars = dict(zip(positions, map(_exemplar_json, pool.xs[positions].tolist(),
                                            pool.ys[positions].tolist())))
        first = self._request_counter
        self._request_counter += len(ids)
        stop = threading.Event()

        def post(r):
            if stop.is_set():
                return None  # a row has failed; its error is raised instead
            try:
                return self._post([exemplars[p] for p in ids[r]], xs[r], pool.ys.shape[1], first + r + 1)
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

    def _post(self, exemplars, x, y_dim, request_id) -> np.ndarray:
        # Imported here, not at module level, so that runs with a local oracle
        # never load the HTTP stack (http.client, ssl, email, ...).
        import http.client

        try:
            query = json.dumps(x.tolist(), allow_nan=False)
        except ValueError as exc:
            query = exc
        error = next((e for e in (*exemplars, query) if isinstance(e, ValueError)), None)
        if error is not None:
            raise OracleFailure(f"request {request_id}: input is not finite ({error})") from error
        # The bytes json.dumps writes for the whole body, its default separators included.
        data = ('{"exemplars": [' + ", ".join(exemplars) + '], "query": ' + query + "}").encode()
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
            if len(prediction) != y_dim:
                raise OracleFailure(
                    f"request {request_id}: prediction has length {len(prediction)}, context y has length {y_dim}"
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
    arrays with their ``latents``, each numbered from 0 (the query pool is
    empty when n_queries is 0).
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
    return tuple(ExemplarPool(xs[s], ys[s], latents[s]) for s in (pool_rows, query_rows))
