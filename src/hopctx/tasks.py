"""Synthetic completion tasks, score functions, and completion oracles.

A task draws labelled (x, y) pairs from a small set of latent prototype
vectors: the prototype is chosen uniformly, isotropic Gaussian noise is added
to x, and y stays the clean completion of the chosen prototype.  Predictors
are "completion oracles": anything with ``predict(context_exemplars, x)``.
The built-in oracle answers by associative retrieval over the context pairs
themselves, so every experiment runs fully locally; an HTTP adapter lets a
remote predictor stand in behind the same interface.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import requests

from .retrieval import ContextualHopfield
from .selection import Exemplar, ExemplarPool

__all__ = [
    "TaskSpec",
    "QuerySample",
    "CompletionOracle",
    "AssociativeOracle",
    "RemoteOracle",
    "OracleFailure",
    "SCORE_TAGS",
    "cosine_score",
    "exact_match",
    "negative_error",
    "get_score_fn",
    "score",
    "make_task",
    "make_benchmark_task",
    "generate_pool",
    "pool_to_jsonl",
    "pool_from_jsonl",
]


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
    seed: int = 0

    def __post_init__(self):
        protos = np.asarray(self.prototypes, dtype=np.float64)
        if protos.ndim != 2 or protos.shape[0] < 1:
            raise ValueError("prototypes must be a (P, d) matrix with P >= 1")
        if protos.shape[1] != self.d:
            raise ValueError(f"prototype dimension {protos.shape[1]} != d={self.d}")
        if self.kind not in ("prototype-completion", "key-value-association"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "key-value-association" and self.d % 2 != 0:
            raise ValueError("key-value-association needs an even d (split at d//2)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
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
                    f"min prototype distance {min(dists):.4g} <= 4*noise_sigma; "
                    "latent patterns may be hard to tell apart",
                    stacklevel=2,
                )

    @property
    def p(self) -> int:
        return self.prototypes.shape[0]

    @property
    def x_dim(self) -> int:
        return self.d

    @property
    def y_dim(self) -> int:
        return self.d if self.kind == "prototype-completion" else self.d // 2

    def sample(self, latent_id: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One (x, y) draw for the given latent prototype."""
        proto = self.prototypes[latent_id]
        if self.kind == "prototype-completion":
            x = proto + self.noise_sigma * rng.standard_normal(self.d)
            return x, proto.copy()
        half = self.d // 2
        key, value = proto[:half], proto[half:]
        x = np.concatenate([key + self.noise_sigma * rng.standard_normal(half), np.zeros(half)])
        return x, value.copy()


@dataclass(frozen=True)
class QuerySample:
    """Test query: noisy input, clean target, and the hidden latent index."""

    x: np.ndarray
    y: np.ndarray
    latent_id: int


# ---------------------------------------------------------------------------
# Score functions (higher is better)
# ---------------------------------------------------------------------------


def _as_pair(y_hat, y):
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ValueError(f"prediction shape {y_hat.shape} != target shape {y.shape}")
    return y_hat, y


def _row_dot(a, b) -> np.ndarray:
    """Per-row dot products as stacked matmul, which reaches the same BLAS
    ``ddot`` as a 1-D ``a[i] @ b[i]`` and so matches it bit for bit
    (``einsum`` and ``(a * b).sum(1)`` sum in another order)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _rows(score_rows):
    """Wrap a rows kernel with the ``safe_score`` contract: a shape mismatch
    or a non-finite result scores 0 and is not ok."""

    def rows(y_hats, ys) -> tuple[np.ndarray, np.ndarray]:
        y_hats = np.ascontiguousarray(y_hats, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        if y_hats.shape != ys.shape or y_hats.ndim != 2:
            n = ys.shape[0] if ys.ndim else 0
            return np.zeros(n), np.zeros(n, dtype=bool)
        with np.errstate(all="ignore"):
            scores, ok = score_rows(y_hats, ys)
        ok &= np.isfinite(scores)
        return np.where(ok, scores, 0.0), ok

    return rows


def cosine_score(y_hat, y) -> float:
    """(1 + cos(y_hat, y)) / 2, in [0, 1].  Undefined for zero vectors."""
    y_hat, y = _as_pair(y_hat, y)
    nh, ny = np.linalg.norm(y_hat), np.linalg.norm(y)
    if nh == 0.0 or ny == 0.0:
        raise ValueError("cosine score undefined for zero vectors")
    cos = float(y_hat @ y) / (nh * ny)
    return (1.0 + cos) / 2.0


def _cosine_rows(y_hats, ys):
    nh, ny = np.sqrt(_row_dot(y_hats, y_hats)), np.sqrt(_row_dot(ys, ys))
    cos = _row_dot(y_hats, ys) / (nh * ny)
    return (1.0 + cos) / 2.0, (nh != 0.0) & (ny != 0.0)


def exact_match(y_hat, y) -> float:
    """1 if the prediction equals the target exactly, else 0."""
    y_hat, y = _as_pair(y_hat, y)
    return 1.0 if np.array_equal(y_hat, y) else 0.0


def _exact_match_rows(y_hats, ys):
    return (y_hats == ys).all(axis=1).astype(np.float64), np.ones(len(ys), dtype=bool)


def negative_error(y_hat, y) -> float:
    """-||y_hat - y||: negated Euclidean error, 0 at a perfect prediction."""
    y_hat, y = _as_pair(y_hat, y)
    return float(-np.linalg.norm(y_hat - y))


def _negative_error_rows(y_hats, ys):
    diff = y_hats - ys
    return -np.sqrt(_row_dot(diff, diff)), np.ones(len(ys), dtype=bool)


# Rows form of each score: (n, d) predictions and targets in, (n,) scores and
# an ok mask out, bitwise equal to ``selection.safe_score`` row by row.
cosine_score.rows = _rows(_cosine_rows)
exact_match.rows = _rows(_exact_match_rows)
negative_error.rows = _rows(_negative_error_rows)

SCORE_TAGS = {
    "cosine-score": cosine_score,
    "exact-match": exact_match,
    "negative-error": negative_error,
}


def get_score_fn(tag: str):
    if tag not in SCORE_TAGS:
        raise ValueError(f"unknown score function {tag!r}; known: {sorted(SCORE_TAGS)}")
    return SCORE_TAGS[tag]


def score(fn, y_hat, y) -> float:
    """Score a prediction with a tag or a callable."""
    if callable(fn):
        return float(fn(y_hat, y))
    return float(get_score_fn(fn)(y_hat, y))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class OracleFailure(RuntimeError):
    """A completion oracle could not produce a usable prediction."""


class CompletionOracle:
    """Interface: predict(context_exemplars, x) -> prediction vector."""

    name = "abstract"

    def predict(self, context_exemplars, x) -> np.ndarray:
        raise NotImplementedError

    def predict_many(self, context_exemplars, xs) -> np.ndarray:
        """Batch of predictions for one fixed context (default: loop)."""
        return np.stack([self.predict(context_exemplars, x) for x in xs])


class AssociativeOracle(CompletionOracle):
    """Completion by associative retrieval over the context pairs.

    Each context exemplar is embedded as the column (x_i, y_i); the query is
    embedded as (x, 0).  Retrieval at inverse temperature gamma produces an
    updated pattern whose trailing block is the prediction.  With the default
    identity projections this is pure associative completion.  With no
    context there is nothing to retrieve and the prediction is the zero
    vector (``y_dim`` must be set for that case).
    """

    name = "builtin-associative"

    def __init__(self, gamma: float = 1.0, y_dim: int | None = None,
                 xi_q: np.ndarray | None = None, xi_k: np.ndarray | None = None):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self.y_dim = y_dim
        self.xi_q = None if xi_q is None else np.asarray(xi_q, dtype=np.float64)
        self.xi_k = None if xi_k is None else np.asarray(xi_k, dtype=np.float64)
        self._models: dict[int, ContextualHopfield] = {}

    def _model(self, d_m: int) -> ContextualHopfield:
        model = self._models.get(d_m)
        if model is None:
            xi_q = np.eye(d_m) if self.xi_q is None else self.xi_q
            xi_k = np.eye(d_m) if self.xi_k is None else self.xi_k
            if xi_q.shape != (d_m, d_m) or xi_k.shape != (d_m, d_m):
                raise ValueError(
                    f"oracle projections must be {d_m}x{d_m} for this task, "
                    f"got {xi_q.shape} and {xi_k.shape}"
                )
            model = ContextualHopfield(xi_q=xi_q, xi_k=xi_k, gamma=self.gamma)
            self._models[d_m] = model
        return model

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
        d_x = xs.shape[1]
        d_y = context_exemplars[0].y.shape[0]
        for e in context_exemplars:
            if e.x.shape != (d_x,) or e.y.shape != (d_y,):
                raise ValueError("context exemplar dimensions do not match the query")
        model = self._model(d_x + d_y)
        lam = np.column_stack([np.concatenate([e.x, e.y]) for e in context_exemplars])
        sigmas = np.hstack([xs, np.zeros((xs.shape[0], d_y))])
        u = sigmas @ model.xi_q
        z = model.xi_k.T @ lam
        scores = self.gamma * (u @ z)
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        u_new = weights @ (lam.T @ model.xi_k)
        return u_new[:, d_x:]


class RemoteOracle(CompletionOracle):
    """HTTP adapter: POST one JSON request per prediction.

    Request body:  {"exemplars": [{"x": [...], "y": [...]}, ...], "query": [...]}
    Response body: {"prediction": [...]}
    Non-2xx status, malformed bodies, a prediction whose length differs from
    the context's y, or exhausted retries raise ``OracleFailure``.
    """

    name = "remote"

    def __init__(self, endpoint: str, timeout: float = 10.0, max_retries: int = 2):
        self.endpoint = endpoint
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self._request_counter = 0

    def predict(self, context_exemplars, x) -> np.ndarray:
        context_exemplars = list(context_exemplars)
        self._request_counter += 1
        request_id = self._request_counter
        body = {
            "exemplars": [
                {"x": np.asarray(e.x, dtype=float).tolist(), "y": np.asarray(e.y, dtype=float).tolist()}
                for e in context_exemplars
            ],
            "query": np.asarray(x, dtype=float).tolist(),
        }
        last_error = None
        for _ in range(self.max_retries + 1):
            try:
                resp = requests.post(self.endpoint, json=body, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if not 200 <= resp.status_code < 300:
                last_error = OracleFailure(
                    f"request {request_id}: status {resp.status_code} from {self.endpoint}"
                )
                continue
            try:
                payload = resp.json()
            except ValueError as exc:
                raise OracleFailure(f"request {request_id}: response is not JSON ({exc})") from exc
            if not isinstance(payload, dict) or "prediction" not in payload:
                raise OracleFailure(f"request {request_id}: response missing 'prediction'")
            prediction = payload["prediction"]
            if not isinstance(prediction, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in prediction
            ):
                raise OracleFailure(f"request {request_id}: 'prediction' is not a numeric list")
            if context_exemplars and len(prediction) != len(context_exemplars[0].y):
                raise OracleFailure(
                    f"request {request_id}: prediction has length {len(prediction)}, "
                    f"context y has length {len(context_exemplars[0].y)}"
                )
            return np.asarray(prediction, dtype=np.float64)
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


def make_benchmark_task(
    p: int = 5,
    d: int = 16,
    noise_sigma: float = 0.1,
    hub_gain: float = 60.0,
    shared_weight: float = 0.4,
) -> TaskSpec:
    """Key-value benchmark with one dominant association and p-1 rare ones.

    The first association ("hub") has a key of norm ``hub_gain`` along the
    common key direction, so any context containing it captures the retrieval
    regardless of the query, and its value is the component all other values
    share.  The remaining associations sit on the same unit key (queries
    cannot tell them apart through x) and carry values
    shared_weight * g + sqrt(1 - shared_weight^2) * s_j with s_j simplex
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
    beta = math.sqrt(max(0.0, 1.0 - shared_weight**2))
    prototypes = np.zeros((p, d))
    prototypes[0, :half] = hub_gain * key_dir
    prototypes[0, half:] = g
    for j in range(p - 1):
        prototypes[j + 1, :half] = key_dir
        value = shared_weight * g
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
        return TaskSpec(kind=kind, d=d, prototypes=protos, noise_sigma=noise_sigma, seed=seed)
    if kind == "key-value-association":
        return make_benchmark_task(p=prototypes, d=d, noise_sigma=noise_sigma)
    raise ValueError(f"unknown task kind {kind!r}")


def generate_pool(
    spec: TaskSpec,
    n: int,
    seed: int,
    n_queries: int = 0,
) -> tuple[ExemplarPool, list[QuerySample]]:
    """Draw a training pool and test queries i.i.d. from the task law.

    Prototypes are chosen uniformly; the pool is drawn first, then the
    queries, from one stream seeded by ``seed``.
    """
    if n < 2:
        raise ValueError("pool size must be at least 2")
    if n_queries < 0:
        raise ValueError("n_queries must be nonnegative")
    rng = np.random.default_rng(seed)
    exemplars = []
    for i in range(n):
        latent = int(rng.integers(spec.p))
        x, y = spec.sample(latent, rng)
        exemplars.append(Exemplar(id=i, x=x, y=y, latent_id=latent))
    queries = []
    for _ in range(n_queries):
        latent = int(rng.integers(spec.p))
        x, y = spec.sample(latent, rng)
        queries.append(QuerySample(x=x, y=y, latent_id=latent))
    return ExemplarPool(exemplars), queries


def pool_to_jsonl(pool: ExemplarPool) -> str:
    """One exemplar per line: {"id": ..., "x": [...], "y": [...], "latent_id": ...}."""
    lines = []
    for e in pool:
        lines.append(json.dumps({
            "id": e.id,
            "x": e.x.tolist(),
            "y": e.y.tolist(),
            "latent_id": e.latent_id,
        }))
    return "\n".join(lines) + "\n"


def pool_from_jsonl(text: str) -> ExemplarPool:
    exemplars = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        exemplars.append(Exemplar(
            id=int(rec["id"]),
            x=np.asarray(rec["x"], dtype=np.float64),
            y=np.asarray(rec["y"], dtype=np.float64),
            latent_id=rec.get("latent_id"),
        ))
    return ExemplarPool(exemplars)
