"""Exemplar selection strategies for in-context prediction.

Three families are provided: uniform random selection (the baseline),
metric-based selection of the exemplars closest to a query, and active
selection, which ranks exemplars by a Monte-Carlo estimate of how well each
one predicts the rest of the pool when used as the sole context.  Each
returns the chosen pool positions as an int array, in context order (ids are
``pool.ids[positions]``).  The evaluation-only
"instance best" strategy of the k-study runner ranks exemplars by their true
per-query score: each pool exemplar as the sole context, scored on each
query.  A query is an ``Exemplar`` too: a labelled (x, y) pair.

Scoring: ``score_contexts`` is the one path from contexts of pool positions,
(B, 1 or T, K), to scores on T targets, in bounded blocks.  The pool and
instance-best score matrices and each (strategy, K) of a k-study, over all
trials and queries, are one call each; an oracle with only ``predict`` is
asked once per (context, target), trial by trial, each over the targets.  The
safe-score rule is applied once, in ``score_rows``: a prediction that cannot
be scored, or scores non-finite, counts 0 and is not ok.

Ranking rule: every ranked strategy (metric, active, instance-best) scores
each pool exemplar and keeps the first K of ``ExemplarPool.rank``, which
orders pool positions by descending score, ties by ascending id (-0.0 and
0.0 tie).

Sampling procedure (used everywhere randomness is needed, so results can be
reproduced by an independent implementation): draw from
``numpy.random.default_rng(seed)`` and take a Fisher-Yates prefix -- for
i = 0..k-1, swap position i with position i + rng.integers(n - i), then keep
the first k slots.  ``sample_prefix`` draws the k offsets in one array call,
``rng.integers(n - arange(k))``, whose values, and the stream state it leaves,
equal those of the k scalar calls.  ``estimate_pool_values`` (behind
``active_select``) draws one shared permutation from ``seed`` and gives every
exemplar the first ``subsample`` entries of that permutation after removing
the exemplar itself, so all values are estimated against the same probe set
and the estimand's own pair never contributes.

The score of exemplar i as the sole context on probe j does not depend on
the seed, only the probe set does.  ``pool_score_matrix`` therefore scores
every (i, j) pair once, and ``estimate_pool_values`` and ``active_select``
are pure functions of that matrix: each seed's probe sets are a gather and
mean over it, (values, failures), arrays in pool order of mean scores and
unscored-probe counts, which ``active_select`` ranks with
``ExemplarPool.rank``.  Metric selection has no
randomness: ``metric_rank`` ranks the pool for a batch of queries, which a
k-study does once per run, slicing the ranking to each K for every trial.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Exemplar",
    "ExemplarPool",
    "sample_prefix",
    "random_select",
    "metric_rank",
    "pool_score_matrix",
    "estimate_pool_values",
    "active_select",
]

# Most predictions one ``score_contexts`` block asks for at once.
POOL_BLOCK_PREDICTIONS = 4096


@dataclass(frozen=True)
class Exemplar:
    """A labelled (x, y) pair.  ``latent_id`` is optional generator metadata
    (which latent pattern produced the pair); selection never reads it."""

    id: int
    x: np.ndarray
    y: np.ndarray
    latent_id: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))


class ExemplarPool:
    """Ordered pool of exemplars with unique integer ids.  A context drawn
    from the pool is given as pool positions; ``ids``, ``xs`` and ``ys``
    stack the pool's ids, x and y rows once, read-only.
    """

    def __init__(self, exemplars):
        self.exemplars = list(exemplars)
        if not self.exemplars:
            raise ValueError("pool must contain at least one exemplar")
        if len({e.id for e in self.exemplars}) != len(self.exemplars):
            raise ValueError("exemplar ids must be unique within a pool")

    @property
    def size(self) -> int:
        return len(self.exemplars)

    def __len__(self) -> int:
        return len(self.exemplars)

    def __iter__(self):
        return iter(self.exemplars)

    def __getitem__(self, i) -> Exemplar:
        return self.exemplars[i]

    def rank(self, scores) -> np.ndarray:
        """Pool positions by descending score along the last axis, ties by
        ascending id (-0.0 and 0.0 tie); ``scores[..., i]`` scores pool[i]."""
        scores = np.asarray(scores)
        return np.lexsort((np.broadcast_to(self.ids, scores.shape), -scores), axis=-1)

    @functools.cached_property
    def ids(self) -> np.ndarray:
        return _read_only(np.array([e.id for e in self.exemplars]))

    @functools.cached_property
    def xs(self) -> np.ndarray:
        return _read_only(np.stack([e.x for e in self.exemplars]))

    @functools.cached_property
    def ys(self) -> np.ndarray:
        return _read_only(np.stack([e.y for e in self.exemplars]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def sample_prefix(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """First k slots of a Fisher-Yates shuffle of range(n) on the given stream."""
    idx = list(range(n))
    for i, j in enumerate((np.arange(k) + rng.integers(n - np.arange(k))).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def _check_k(pool: ExemplarPool, k: int) -> None:
    if not 1 <= k <= pool.size:
        raise ValueError(f"k={k} out of range [1, {pool.size}]")


def _check_subsample(pool: ExemplarPool, subsample) -> None:
    if pool.size < 2:
        raise ValueError("pool too small: value estimation needs at least 2 exemplars")
    if subsample != "all":
        if not 1 <= subsample <= pool.size - 1:
            raise ValueError(f"subsample={subsample} out of range [1, {pool.size - 1}]")


def safe_score(score_fn, y_hat, y) -> tuple[float, bool]:
    """Score a prediction, mapping malformed outputs to 0 instead of aborting."""
    try:
        s = float(score_fn(y_hat, y))
    except (ValueError, TypeError, ZeroDivisionError):
        return 0.0, False
    if not np.isfinite(s):
        return 0.0, False
    return s, True


def score_rows(score_fn, y_hats, ys) -> tuple[np.ndarray, np.ndarray]:
    """Scores and ok flags of each prediction row against its target row, by
    the ``safe_score`` rule: unscorable or non-finite scores 0, not ok.

    Predictions and targets are stacked as float64.  A score function with a
    ``rows`` kernel (every built-in score) scores the whole (n, d) batch in
    one call; any other callable, or predictions that do not stack to the
    targets' shape (ragged rows from a duck-typed oracle), go row by row
    through ``safe_score``.  Both give the same bits.
    """
    kernel = getattr(score_fn, "rows", None)
    try:
        y_hats, ys = (np.ascontiguousarray(a, dtype=np.float64) for a in (y_hats, ys))
    except (ValueError, TypeError):
        kernel = None
    if kernel is not None and y_hats.ndim == 2 and y_hats.shape == ys.shape:
        with np.errstate(all="ignore"):
            scores = kernel(y_hats, ys)
        ok = np.isfinite(scores)
        return np.where(ok, scores, 0.0), ok
    pairs = [safe_score(score_fn, y_hat, y) for y_hat, y in zip(y_hats, ys)]
    return np.array([s for s, _ in pairs], dtype=np.float64), np.array([ok for _, ok in pairs], dtype=bool)


def predict_rows(oracle, pool: ExemplarPool, ids, xs):
    """Predictions for every row of a batch of pool-indexed contexts.

    ``ids[..., :K]`` holds each context as K pool positions and ``xs[..., :d_x]``
    the query rows; their leading axes broadcast, and the predictions come
    back one per broadcast row, flattened in C order.  An oracle with a
    batched ``predict_pool`` (the built-in one) answers the whole batch in
    one call; an oracle that defines only ``predict`` (the documented
    interface) is asked once per row, in that order, and the predictions
    come back as a list.
    """
    predict_pool = getattr(oracle, "predict_pool", None)
    if predict_pool is not None:
        y_hats = predict_pool(pool, ids, xs)
        return y_hats.reshape(-1, y_hats.shape[-1])
    ids, xs = np.asarray(ids), np.asarray(xs, dtype=np.float64)
    batch = np.broadcast_shapes(ids.shape[:-1], xs.shape[:-1])
    ids = np.broadcast_to(ids, batch + ids.shape[-1:]).reshape(-1, ids.shape[-1])
    xs = np.broadcast_to(xs, batch + xs.shape[-1:]).reshape(-1, xs.shape[-1])
    return [oracle.predict([pool[i] for i in row], x) for row, x in zip(ids, xs)]


def random_select(pool: ExemplarPool, k: int, seed: int) -> np.ndarray:
    """Pool positions of k distinct exemplars sampled uniformly without
    replacement, ascending."""
    _check_k(pool, k)
    return np.sort(sample_prefix(np.random.default_rng(seed), pool.size, k))


def metric_rank(pool: ExemplarPool, query_xs, metric: str = "euclidean") -> tuple[np.ndarray, np.ndarray]:
    """Pool positions ranked by the closeness of their x to each of Q queries.

    Returns (orders, closeness), both (Q, N): ``orders`` is
    ``pool.rank(closeness)``.  Each row is computed on its own
    (no Q x N matrix product), so its bits do not depend on the batch.
    Closeness that overflows float64 raises ValueError naming the metric.
    """
    query_xs = np.asarray(query_xs, dtype=np.float64)
    xs = pool.xs
    if query_xs.shape[1:] != xs.shape[1:]:
        raise ValueError(f"query shape {query_xs.shape[1:]} does not match pool x shape {xs.shape[1:]}")
    with np.errstate(over="ignore", invalid="ignore"):
        if metric == "euclidean":
            rows = [-np.linalg.norm(xs - q, axis=1) for q in query_xs]
        elif metric == "cosine":
            xn = np.linalg.norm(xs, axis=1)
            qns = [np.linalg.norm(q) for q in query_xs]
            if 0.0 in qns or np.any(xn == 0.0):
                raise ValueError("cosine metric undefined for zero vectors")
            rows = [(xs @ q) / (xn * qn) for q, qn in zip(query_xs, qns)]
        else:
            raise ValueError(f"unknown metric {metric!r}")
    closeness = np.array(rows)
    # An overflowing cosine norm can give a finite, wrong closeness of 0, so its norms are checked too.
    if not np.isfinite(closeness).all() or (metric == "cosine" and not np.isfinite(np.append(xn, qns)).all()):
        raise ValueError(f"{metric} closeness is not finite: finite inputs overflow float64")
    return pool.rank(closeness), closeness


def score_contexts(pool: ExemplarPool, oracle, score_fn, ids, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """scores[b, t]: context ``ids[b, t]`` (or ``ids[b, 0]`` for every target)
    predicted on target xs[t] and scored against ys[t].

    ``ids`` holds contexts of K pool positions, shaped (B, 1 or T, K), for T
    targets.  The contexts are predicted and scored in blocks of whole rows
    of B, at most ``POOL_BLOCK_PREDICTIONS`` predictions per block (one row
    when T is larger), each block one ``predict_rows`` call and one batched
    score: one call for all B x T would hold all its predictions and
    intermediates at once.  Returns the (B, T) scores and their ok mask.
    """
    ids = np.asarray(ids)
    step = max(1, POOL_BLOCK_PREDICTIONS // len(ys))
    blocks = []
    for start in range(0, len(ids), step):
        block = ids[start:start + step]
        blocks.append(score_rows(score_fn, predict_rows(oracle, pool, block, xs), np.tile(ys, (len(block), 1))))
    shape = (len(ids), len(ys))
    return (np.concatenate([s for s, _ in blocks]).reshape(shape),
            np.concatenate([ok for _, ok in blocks]).reshape(shape))


def pool_score_matrix(pool: ExemplarPool, oracle, score_fn) -> tuple[np.ndarray, np.ndarray]:
    """scores[i, j] and its ok mask: pool[i] as the sole context exemplar,
    scored on pool[j] (``score_contexts``).  Nothing in it depends on a
    seed, so one pool matrix serves every trial of a run: the oracle is asked
    for N^2 predictions once instead of N * subsample per trial."""
    return score_contexts(pool, oracle, score_fn, np.arange(pool.size)[:, None, None], pool.xs, pool.ys)


def estimate_pool_values(pool: ExemplarPool, matrix, subsample="all", seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo values of every pool member against one shared probe sample.

    A single permutation is drawn per call; each exemplar's probe set is the
    first ``subsample`` entries of that permutation after dropping itself,
    taken in id order.  The scores come from ``matrix``, the (scores, ok)
    pair of ``pool_score_matrix``, so one matrix serves every seed.  Returns
    (values, failures) in pool order: pool[i]'s mean score over m probes
    (float64) and how many of them did not score (int), m = pool.size - 1
    for ``"all"``, else ``subsample``.
    """
    _check_subsample(pool, subsample)
    scores, ok = matrix
    n = pool.size
    if np.shape(scores) != (n, n) or np.shape(ok) != (n, n):
        raise ValueError(
            f"matrix must hold ({n}, {n}) scores and ok mask for this pool, "
            f"got {np.shape(scores)} and {np.shape(ok)}"
        )
    order = np.array(sample_prefix(np.random.default_rng(seed), n, n))
    m = n - 1 if subsample == "all" else subsample
    # Row i: the permutation without position i, cut to m probes, that is
    # order[:m + 1] less i if i is in order[:m], else less order[m]; put in id
    # order so each mean sums in the same order whatever the pool order.
    head = order[:m + 1][np.argsort(pool.ids[order[:m + 1]])]
    dropped = np.full(n, order[m])
    dropped[order[:m]] = order[:m]
    probes = np.broadcast_to(head, (n, m + 1))[head != dropped[:, None]].reshape(n, m)
    rows = np.arange(n)[:, None]
    return scores[rows, probes].mean(axis=1), np.count_nonzero(~ok[rows, probes], axis=1)


def active_select(pool: ExemplarPool, k: int, matrix, subsample="all", seed: int = 0) -> np.ndarray:
    """Pool positions of the top-k exemplars by Monte-Carlo value
    (``estimate_pool_values`` over ``matrix``), in ``ExemplarPool.rank`` order."""
    _check_k(pool, k)
    values, _ = estimate_pool_values(pool, matrix, subsample, seed)
    return pool.rank(values)[:k]
