"""Exemplar selection strategies for in-context prediction.

Three families are provided: uniform random selection (the baseline),
metric-based selection of the exemplars closest to a query, and active
selection, which ranks exemplars by a Monte-Carlo estimate of how well each
one predicts the rest of the pool when used as the sole context.  Each
returns the chosen pool positions as an int array, in context order (ids are
``pool.ids[positions]``).  The evaluation-only
"instance best" strategy of the k-study runner ranks exemplars by their true
per-query score: each pool exemplar as the sole context, scored on each
query.  A pool stores its rows as arrays (``ExemplarPool.xs``, ``ys``), and
a query set is a pool too; ``pool[i]`` builds an ``Exemplar``, a labelled
(x, y) pair, only for an oracle's ``predict(context, x)``.

Scoring: ``score_contexts`` is the one place an oracle is asked, for
contexts of pool positions, (B, 1 or T, K), scored on T targets.  The pool
and instance-best score matrices and each (strategy, K) of a k-study, over
all trials and queries, are one call each.  An oracle with ``predict_pool``
answers in bounded blocks, each scored by ``score_rows``, which takes
predictions and targets of one shape (..., d) and raises ValueError on any
other; an oracle with only ``predict`` is asked once per (context, target),
each prediction scored by ``safe_score`` as it comes.  Both apply the
safe-score rule: a prediction that cannot be scored, or scores non-finite,
counts 0 and is not ok.

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
are pure functions of that matrix: a seed's values and unscored-probe
counts are a gather and mean over it.  A k-study gathers every trial's
values at once and ranks them in one ``ExemplarPool.rank`` call, each row
with the bits of ``estimate_pool_values`` at that trial's seed.  Metric
selection has no randomness: ``metric_rank`` ranks the pool for a batch of
queries, once per k-study run, and each K slices that ranking.
"""

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

# Most (context, target) scores one ``score_contexts`` block holds at once.
POOL_BLOCK_PREDICTIONS = 4096
# Most probe scores one block of value estimates gathers at once.
VALUE_BLOCK_PROBES = 1 << 18


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
    """Ordered pool of exemplars with unique integer ids, kept as arrays: the
    read-only ``ids``, x rows ``xs``, y rows ``ys`` and (x, y) rows ``pairs``,
    built once.  A context drawn from the pool is given as pool positions.
    ``pool[i]`` (and iteration) builds row i's ``Exemplar``, its ``latent_id``
    as given, for an oracle's ``predict(context, x)``."""

    def __init__(self, exemplars):
        exemplars = list(exemplars)
        if not exemplars:
            raise ValueError("pool must contain at least one exemplar")
        if len({e.id for e in exemplars}) != len(exemplars):
            raise ValueError("exemplar ids must be unique within a pool")
        self._set_rows(np.array([e.id for e in exemplars]), np.stack([e.x for e in exemplars]),
                       np.stack([e.y for e in exemplars]), [e.latent_id for e in exemplars])

    @classmethod
    def _of_rows(cls, xs, ys, latent_ids) -> "ExemplarPool":
        """A pool of the given float64 x and y rows, numbered from 0, unchecked:
        it may be empty, as a query set may."""
        return cls.__new__(cls)._set_rows(np.arange(len(xs)), xs, ys, latent_ids)

    def _set_rows(self, ids, xs, ys, latent_ids) -> "ExemplarPool":
        self.ids, self.xs, self.ys = (_read_only(np.ascontiguousarray(a)) for a in (ids, xs, ys))
        self.pairs = _read_only(np.hstack([self.xs, self.ys]))
        self._latent_ids = tuple(latent_ids)
        return self

    def __len__(self) -> int:
        return len(self.ids)

    size = property(__len__)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.ids)))

    def __getitem__(self, i) -> Exemplar:
        return Exemplar(id=self.ids[i].item(), x=self.xs[i], y=self.ys[i], latent_id=self._latent_ids[i])

    def rank(self, scores) -> np.ndarray:
        """Pool positions by descending score along the last axis, ties by
        ascending id (-0.0 and 0.0 tie); ``scores[..., i]`` scores pool[i]."""
        scores = np.asarray(scores)
        return np.lexsort((np.broadcast_to(self.ids, scores.shape), -scores), axis=-1)


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
    in_range = (isinstance(subsample, (int, np.integer)) and not isinstance(subsample, bool)
                and 1 <= subsample <= pool.size - 1)
    if not in_range and not (isinstance(subsample, str) and subsample == "all"):
        raise ValueError(f"subsample must be 'all' or an integer in [1, {pool.size - 1}], got {subsample!r}")


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

    Predictions and targets are read as float64 and must have one shape
    (..., d), either of them possibly a broadcast view; any other input
    raises ValueError.  A score function with a ``rows`` kernel (every
    built-in score) scores the whole batch in one call: each leading axis
    that an input repeats (stride 0) is cut to length 1 first, so a repeated
    prediction's own terms (its norm) are formed once.  Any other callable
    scores them pair by pair through ``safe_score``, with the same bits.
    The scores have the inputs' leading shape.
    """
    y_hats, ys = (np.asarray(a, dtype=np.float64) for a in (y_hats, ys))
    if y_hats.shape != ys.shape or y_hats.ndim == 0:
        raise ValueError(f"predictions {y_hats.shape} and targets {ys.shape} must have one shape (..., d)")
    batch, kernel = ys.shape[:-1], getattr(score_fn, "rows", None)
    if kernel is None:
        return _score_pairs(score_fn, y_hats.reshape(-1, ys.shape[-1]), ys.reshape(-1, ys.shape[-1]), batch)
    y_hats, ys = (np.ascontiguousarray(_distinct(a)) for a in (y_hats, ys))
    with np.errstate(all="ignore"):
        scores = np.broadcast_to(kernel(y_hats, ys), batch)
    ok = np.isfinite(scores)
    return np.where(ok, scores, 0.0), ok


def _score_pairs(score_fn, y_hats, ys, shape) -> tuple[np.ndarray, np.ndarray]:
    """``safe_score`` of each prediction against the target beside it, in
    order, as (scores, ok) arrays of ``shape``."""
    pairs = [safe_score(score_fn, y_hat, y) for y_hat, y in zip(y_hats, ys)]
    return (np.array([s for s, _ in pairs], dtype=np.float64).reshape(shape),
            np.array([ok for _, ok in pairs], dtype=bool).reshape(shape))


def _distinct(a: np.ndarray) -> np.ndarray:
    """``a`` with each leading axis that repeats one entry (stride 0) cut to
    length 1."""
    return a[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in a.strides[:-1])]


def _broadcast_rows(ids, xs):
    """The rows of a batch of pool-indexed contexts, one per broadcast row.

    ``ids[..., :K]`` holds each context as K pool positions and ``xs[..., :d_x]``
    the query rows; their leading axes broadcast to ``batch``.  Returns the
    (n, K) positions, the (n, d_x) float64 query rows, flattened in C order,
    and ``batch``.
    """
    ids, xs = np.asarray(ids), np.asarray(xs, dtype=np.float64)
    batch = np.broadcast_shapes(ids.shape[:-1], xs.shape[:-1])
    return (np.broadcast_to(ids, batch + ids.shape[-1:]).reshape(-1, ids.shape[-1]),
            np.broadcast_to(xs, batch + xs.shape[-1:]).reshape(-1, xs.shape[-1]), batch)


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
    closeness = np.array(rows).reshape(len(query_xs), len(xs))
    # An overflowing cosine norm can give a finite, wrong closeness of 0, so its norms are checked too.
    if not np.isfinite(closeness).all() or (metric == "cosine" and not np.isfinite(np.append(xn, qns)).all()):
        raise ValueError(f"{metric} closeness is not finite: finite inputs overflow float64")
    return pool.rank(closeness), closeness


def score_contexts(pool: ExemplarPool, oracle, score_fn, ids, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """scores[b, t]: context ``ids[b, t]`` (or ``ids[b, 0]`` for every target)
    predicted on target xs[t] and scored against ys[t].

    ``ids`` holds contexts of K pool positions, shaped (B, 1 or T, K), for T
    targets.  An oracle with ``predict_pool`` (the built-in and the remote
    one) is asked in blocks of whole rows of B, at most
    ``POOL_BLOCK_PREDICTIONS`` scores each (one row when T is larger), so no
    call holds all B x T scores and intermediates at once; each block's
    (rows, T, d_y) predictions go to ``score_rows`` against the targets
    repeated over the rows as a view.  The built-in oracle repeats a
    one-exemplar prediction over the targets the same way, so it is
    predicted once per row of B.  An oracle with only ``predict`` is asked
    once per (context, target), in C order, and each prediction, of any
    shape, is scored by ``safe_score`` as it comes.  Returns the (B, T)
    scores and their ok mask, empty (no oracle call) when B or T is 0.
    """
    ids, ys = np.asarray(ids), np.asarray(ys, dtype=np.float64)
    shape = (len(ids), len(ys))
    if 0 in shape:
        return np.zeros(shape), np.zeros(shape, dtype=bool)
    predict_pool = getattr(oracle, "predict_pool", None)
    if predict_pool is None:
        ids, xs, batch = _broadcast_rows(ids, xs)
        predictions = (oracle.predict([pool[i] for i in row], x) for row, x in zip(ids, xs))
        return _score_pairs(score_fn, predictions, np.broadcast_to(ys, batch + ys.shape[1:]).reshape(-1, ys.shape[-1]),
                            shape)
    step = max(1, POOL_BLOCK_PREDICTIONS // len(ys))
    blocks = [ids[start:start + step] for start in range(0, len(ids), step)]
    scored = [score_rows(score_fn, predict_pool(pool, b, xs), np.broadcast_to(ys, (len(b),) + ys.shape)) for b in blocks]
    return tuple(map(np.concatenate, zip(*scored)))


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
    values, failures = _pool_values(pool, matrix, subsample, [seed])
    return values[0], failures[0]


def _pool_values(pool: ExemplarPool, matrix, subsample, seeds) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_pool_values`` for each of ``seeds``, stacked: (values,
    failures), each (len(seeds), pool.size).  Each block of whole seeds, at
    most ``VALUE_BLOCK_PROBES`` probes, is one gather of matrix columns, one
    select that drops each row's excluded probe and one mean over the last
    axis, so a row's bits do not depend on the block."""
    _check_subsample(pool, subsample)
    scores, ok = matrix
    n = pool.size
    if np.shape(scores) != (n, n) or np.shape(ok) != (n, n):
        raise ValueError(
            f"matrix must hold ({n}, {n}) scores and ok mask for this pool, "
            f"got {np.shape(scores)} and {np.shape(ok)}"
        )
    m = n - 1 if subsample == "all" else subsample
    step = max(1, VALUE_BLOCK_PROBES // (n * m))
    rows, not_ok = np.arange(n), ~ok
    values, failures = [], []
    for start in range(0, len(seeds), step):
        orders = np.array([sample_prefix(np.random.default_rng(seed), n, n) for seed in seeds[start:start + step]])
        # Row (t, i): permutation t without position i, cut to m probes, that
        # is orders[t, :m + 1] less i if i is in orders[t, :m], else less
        # orders[t, m]; put in id order so each mean sums in the same order
        # whatever the pool order.  Each permutation's m + 1 head columns are
        # gathered once, and each row drops its one column by a select.
        head = orders[:, :m + 1]
        head = np.take_along_axis(head, np.argsort(pool.ids[head], axis=1), axis=1)
        dropped = np.repeat(orders[:, m:m + 1], n, axis=1)
        np.put_along_axis(dropped, orders[:, :m], orders[:, :m], axis=1)
        slot = np.empty_like(dropped)  # slot[t, j]: where pool[j] sits in head[t]
        np.put_along_axis(slot, head, np.arange(m + 1), axis=1)
        before = np.arange(m) < np.take_along_axis(slot, dropped, axis=1).T[..., None]
        columns = scores[:, head]
        values.append(np.where(before, columns[..., :m], columns[..., 1:]).mean(axis=-1).T)
        # Counts are exact: the head's unscored entries less the dropped one's.
        failures.append(np.count_nonzero(not_ok[:, head], axis=-1).T - not_ok[rows, dropped])
    return np.concatenate(values), np.concatenate(failures)


def active_select(pool: ExemplarPool, k: int, matrix, subsample="all", seed: int = 0) -> np.ndarray:
    """Pool positions of the top-k exemplars by Monte-Carlo value
    (``estimate_pool_values`` over ``matrix``), in ``ExemplarPool.rank`` order."""
    _check_k(pool, k)
    values, _ = estimate_pool_values(pool, matrix, subsample, seed)
    return pool.rank(values)[:k]
