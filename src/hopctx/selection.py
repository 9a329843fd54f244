"""Exemplar selection strategies for in-context prediction.

Three families are provided: uniform random selection (the baseline),
metric-based selection of the exemplars closest to a query, and active
selection, which ranks exemplars by a Monte-Carlo estimate of how well each
one predicts the rest of the pool when used as the sole context.  Each
returns the chosen pool positions as an int array, in context order; a
row's id is its position.  The evaluation-only "instance best" strategy of
the k-study runner ranks exemplars by their true per-query score: each pool
exemplar as the sole context, scored on each query.  A pool stores its rows
as arrays (``ExemplarPool.xs``, ``ys``), and a query set is a pool too.

Protocol: an oracle defines ``predict_pool(pool, ids, xs)``, the
predictions of contexts given as pool positions on query rows (or serves
the remote wire format behind ``tasks.RemoteOracle``), and a score maps
(..., d) predictions and targets to one score per row.  ``score_contexts``
is the one place an oracle is asked, for contexts (B, 1 or T, K) scored on
T targets.  The pool and instance-best score matrices and each (strategy,
K) of a k-study, over all trials and queries, are one call each, answered
in bounded blocks, each scored by ``score_rows`` with the safe-score rule:
a non-finite score counts 0 and is not ok.

Ranking rule: every ranked strategy (metric, active, instance-best) scores
each pool exemplar and keeps the first K of ``ExemplarPool.rank``, which
orders pool positions by descending score, ties by ascending position
(-0.0 and 0.0 tie).

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

import numpy as np

__all__ = [
    "ExemplarPool",
    "sample_prefix",
    "random_select",
    "metric_rank",
    "pool_score_matrix",
    "estimate_pool_values",
    "active_select",
]

# Most (context, target) scores one ``score_contexts`` block holds at once.
# The blocks bound the (B, T, K) intermediates of K > 1 contexts when trials x
# queries is large.  Peak resident memory of a whole k-study in process (2-core
# host, Python 3.11, numpy 2.4), blocked against one block per call, with the
# same CSV bytes: 55 MB against 100 MB for 1,000 trials of random and active;
# 41.8 MB against 43.6 MB for the default 100 trials; 38.7 MB against 39.5 MB
# for the benchmark's ``kstudy-default`` config.
POOL_BLOCK_PREDICTIONS = 4096
# Most probe scores one block of value estimates gathers at once.
VALUE_BLOCK_PROBES = 1 << 18


class ExemplarPool:
    """Ordered pool of labelled (x, y) rows, kept as read-only float64 arrays:
    x rows ``xs`` (N, d_x) and y rows ``ys`` (N, d_y), copied once, and the
    optional generator metadata ``latents`` (which latent pattern produced
    each row; selection never reads it).  A row's id is its position, and a
    context drawn from the pool is given as positions.  A pool may be empty,
    as a query set may."""

    def __init__(self, xs, ys, latents=None):
        xs, ys = (_read_only(np.array(a, dtype=np.float64, order="C")) for a in (xs, ys))
        latents = None if latents is None else _read_only(np.array(latents, dtype=np.intp))
        if xs.ndim != 2 or ys.ndim != 2 or len(xs) != len(ys) or not (latents is None or latents.shape == (len(xs),)):
            raise ValueError(f"pool rows must be (N, d_x) x, (N, d_y) y and N latents, got shapes {xs.shape}, "
                             f"{ys.shape} and {None if latents is None else latents.shape}")
        self.xs, self.ys, self.latents = xs, ys, latents

    def __len__(self) -> int:
        return len(self.xs)

    size = property(__len__)

    def rank(self, scores) -> np.ndarray:
        """Pool positions by descending score along the last axis, ties by
        ascending position (-0.0 and 0.0 tie); ``scores[..., i]`` scores row i."""
        return np.argsort(-np.asarray(scores), axis=-1, kind="stable")


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


def score_rows(score_fn, y_hats, ys) -> tuple[np.ndarray, np.ndarray]:
    """Scores and ok flags of each prediction row against its target row, by
    the safe-score rule: a non-finite score counts 0 and is not ok.

    Predictions and targets are read as float64 and must have one shape
    (..., d), either of them possibly a broadcast view; any other input
    raises ValueError.  The score function is the batched kernel: it scores
    the whole batch in one call, after each leading axis that an input
    repeats (stride 0) is cut to length 1, so a repeated prediction's own
    terms (its norm) are formed once.  Each row still gets the bits of the
    score applied to that row alone.  The scores have the inputs' leading
    shape.  A mis-shaped ``predict_pool`` output is thus an error, not a row
    of zeros.
    """
    y_hats, ys = (np.asarray(a, dtype=np.float64) for a in (y_hats, ys))
    if y_hats.shape != ys.shape or y_hats.ndim == 0:
        raise ValueError(f"predictions {y_hats.shape} and targets {ys.shape} must have one shape (..., d)")
    batch = ys.shape[:-1]
    y_hats, ys = (np.ascontiguousarray(_distinct(a)) for a in (y_hats, ys))
    with np.errstate(all="ignore"):
        scores = np.broadcast_to(score_fn(y_hats, ys), batch)
    ok = np.isfinite(scores)
    return np.where(ok, scores, 0.0), ok


def _distinct(a: np.ndarray) -> np.ndarray:
    """``a`` with each leading axis that repeats one entry (stride 0) cut to
    length 1."""
    return a[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in a.strides[:-1])]


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

    ``ids`` holds contexts of K >= 1 pool positions, shaped (B, 1 or T, K),
    for T targets.  The oracle's ``predict_pool`` is asked in blocks of whole
    rows of B, at most ``POOL_BLOCK_PREDICTIONS`` scores each (one row when T
    is larger), so no call holds all B x T scores and intermediates at once;
    each block's (rows, T, d_y) predictions go to ``score_rows`` against the
    targets repeated over the rows as a view.  The built-in oracle repeats a
    one-exemplar prediction over the targets the same way, so it is
    predicted once per row of B.  Returns the (B, T) scores and their ok
    mask, empty (no oracle call) when B or T is 0.
    """
    ids, ys = np.asarray(ids), np.asarray(ys, dtype=np.float64)
    shape = (len(ids), len(ys))
    if 0 in shape:
        return np.zeros(shape), np.zeros(shape, dtype=bool)
    step = max(1, POOL_BLOCK_PREDICTIONS // len(ys))
    blocks = [ids[start:start + step] for start in range(0, len(ids), step)]
    scored = [score_rows(score_fn, oracle.predict_pool(pool, b, xs), np.broadcast_to(ys, (len(b),) + ys.shape))
              for b in blocks]
    return tuple(map(np.concatenate, zip(*scored)))


def pool_score_matrix(pool: ExemplarPool, oracle, score_fn) -> tuple[np.ndarray, np.ndarray]:
    """scores[i, j] and its ok mask: pool row i as the sole context exemplar,
    scored on row j (``score_contexts``).  Nothing in it depends on a
    seed, so one pool matrix serves every trial of a run: the oracle is asked
    for N^2 predictions once instead of N * subsample per trial.  At the
    defaults (N = 200, subsample = 100) that is fewer from two trials on; a
    one-trial active run asks about twice as many, which matters for a
    remote oracle."""
    return score_contexts(pool, oracle, score_fn, np.arange(pool.size)[:, None, None], pool.xs, pool.ys)


def estimate_pool_values(pool: ExemplarPool, matrix, subsample="all", seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo values of every pool member against one shared probe sample.

    A single permutation is drawn per call; each exemplar's probe set is the
    first ``subsample`` entries of that permutation after dropping itself,
    taken in position order.  The scores come from ``matrix``, the (scores, ok)
    pair of ``pool_score_matrix``, so one matrix serves every seed.  Returns
    (values, failures) in pool order: row i's mean score over m probes
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
        # orders[t, m]; put in position order, the order each mean sums in.
        # Each permutation's m + 1 head columns are gathered once, and each
        # row drops its one column by a select.
        head = np.sort(orders[:, :m + 1], axis=1)
        dropped = np.repeat(orders[:, m:m + 1], n, axis=1)
        np.put_along_axis(dropped, orders[:, :m], orders[:, :m], axis=1)
        slot = np.empty_like(dropped)  # slot[t, j]: where row j sits in head[t]
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
