"""Exemplar selection strategies for in-context prediction.

Three families are provided: uniform random selection (the baseline),
metric-based selection of the exemplars closest to a query, and active
selection, which ranks exemplars by a Monte-Carlo estimate of how well each
one predicts the rest of the pool when used as the sole context.  An
evaluation-only "instance best" strategy ranks exemplars by their true
per-query score against ground truth.

Sampling procedure (used everywhere randomness is needed, so results can be
reproduced by an independent implementation): draw from
``numpy.random.default_rng(seed)`` and take a Fisher-Yates prefix -- for
i = 0..k-1, swap position i with position i + rng.integers(n - i), then keep
the first k slots.  ``value_estimate`` seeds its own stream with
``(seed, exemplar_id)``; ``active_select`` draws one shared permutation from
``seed`` and gives every exemplar the first ``subsample`` entries of that
permutation after removing the exemplar itself, so all values are estimated
against the same probe set and the estimand's own pair never contributes.

The score of exemplar i as the sole context on probe j does not depend on
the seed, only the probe set does.  ``pool_score_matrix`` therefore scores
every (i, j) pair once, and ``estimate_pool_values`` turns each seed's probe
sets into a gather and mean over that matrix.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Exemplar",
    "ExemplarPool",
    "ValueEstimate",
    "SelectionResult",
    "sample_prefix",
    "random_select",
    "metric_select",
    "value_estimate",
    "pool_score_matrix",
    "estimate_pool_values",
    "active_select",
    "instance_best_select",
    "mode_pattern",
]


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
    """Ordered pool of exemplars with unique integer ids."""

    def __init__(self, exemplars):
        self.exemplars = list(exemplars)
        if not self.exemplars:
            raise ValueError("pool must contain at least one exemplar")
        ids = [e.id for e in self.exemplars]
        if len(set(ids)) != len(ids):
            raise ValueError("exemplar ids must be unique within a pool")
        self._by_id = {e.id: e for e in self.exemplars}

    @property
    def size(self) -> int:
        return len(self.exemplars)

    def __len__(self) -> int:
        return len(self.exemplars)

    def __iter__(self):
        return iter(self.exemplars)

    def __getitem__(self, i) -> Exemplar:
        return self.exemplars[i]

    def by_id(self, exemplar_id: int) -> Exemplar:
        return self._by_id[exemplar_id]

    def x_matrix(self) -> np.ndarray:
        return np.stack([e.x for e in self.exemplars])

    def y_matrix(self) -> np.ndarray:
        return np.stack([e.y for e in self.exemplars])


@dataclass(frozen=True)
class ValueEstimate:
    """Monte-Carlo estimate of an exemplar's value as a single-shot predictor."""

    exemplar_id: int
    value: float
    sample_count: int
    scores: tuple | None = None
    failures: int = 0


@dataclass(frozen=True)
class SelectionResult:
    """Chosen exemplar ids (ordered as they should appear in the context),
    the strategy tag, and strategy-specific diagnostics."""

    chosen: tuple
    strategy: str
    diagnostics: dict = field(default_factory=dict)


def sample_prefix(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """First k slots of a Fisher-Yates shuffle of range(n) on the given stream."""
    idx = list(range(n))
    for i in range(k):
        j = i + int(rng.integers(n - i))
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
    """Scores and ok flags of each prediction row against its target row.

    A score function with a ``rows`` form (every built-in score) scores the
    whole batch in one call; any other callable, or predictions that do not
    form one float array (ragged rows from a duck-typed oracle), go row by
    row through ``safe_score``.  Both give the same bits.
    """
    rows = getattr(score_fn, "rows", None)
    if rows is not None:
        try:
            return rows(y_hats, ys)
        except (ValueError, TypeError):
            pass
    pairs = [safe_score(score_fn, y_hat, y) for y_hat, y in zip(y_hats, ys)]
    return np.array([s for s, _ in pairs], dtype=np.float64), np.array([ok for _, ok in pairs], dtype=bool)


def _predict_rows(oracle, context, xs):
    predict_many = getattr(oracle, "predict_many", None)
    if predict_many is not None:
        return predict_many(context, xs)
    return [oracle.predict(context, x) for x in xs]


def random_select(pool: ExemplarPool, k: int, seed: int) -> SelectionResult:
    """k distinct exemplars sampled uniformly without replacement.

    Chosen ids are listed in pool order.
    """
    _check_k(pool, k)
    rng = np.random.default_rng(seed)
    positions = sorted(sample_prefix(rng, pool.size, k))
    chosen = tuple(pool[i].id for i in positions)
    return SelectionResult(chosen=chosen, strategy="random", diagnostics={"seed": seed})


def metric_select(pool: ExemplarPool, k: int, query_x, metric: str = "euclidean") -> SelectionResult:
    """The k exemplars whose x is closest to the query.

    ``cosine`` maximizes cosine similarity, ``euclidean`` minimizes distance;
    ties break by ascending id.  Chosen ids are ordered by descending
    closeness.
    """
    _check_k(pool, k)
    query_x = np.asarray(query_x, dtype=np.float64)
    xs = pool.x_matrix()
    if query_x.shape != xs.shape[1:]:
        raise ValueError(f"query shape {query_x.shape} does not match pool x shape {xs.shape[1:]}")
    if metric == "euclidean":
        closeness = -np.linalg.norm(xs - query_x, axis=1)
    elif metric == "cosine":
        qn = np.linalg.norm(query_x)
        xn = np.linalg.norm(xs, axis=1)
        if qn == 0.0 or np.any(xn == 0.0):
            raise ValueError("cosine metric undefined for zero vectors")
        closeness = (xs @ query_x) / (xn * qn)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    order = sorted(range(pool.size), key=lambda i: (-closeness[i], pool[i].id))
    chosen = tuple(pool[i].id for i in order[:k])
    scores = {pool[i].id: float(closeness[i]) for i in order[:k]}
    return SelectionResult(chosen=chosen, strategy="metric", diagnostics={"metric": metric, "closeness": scores})


def value_estimate(
    e: Exemplar,
    pool: ExemplarPool,
    oracle,
    score_fn,
    subsample="all",
    seed: int = 0,
    keep_scores: bool = False,
) -> ValueEstimate:
    """Mean score of e as the sole context exemplar over probes j != e.

    With an integer ``subsample`` the probe set is a uniform sample of that
    size from the rest of the pool, drawn from the (seed, e.id) stream.
    """
    _check_subsample(pool, subsample)
    rng = np.random.default_rng([seed, e.id])
    order = sample_prefix(rng, pool.size, pool.size)
    probe = [pool[i] for i in order if pool[i].id != e.id]
    if subsample != "all":
        probe = probe[:subsample]
    # Fixed evaluation order so the mean is bitwise independent of pool order.
    probe.sort(key=lambda o: o.id)
    y_hats = _predict_rows(oracle, [e], np.stack([o.x for o in probe]))
    scores, ok = score_rows(score_fn, y_hats, np.stack([o.y for o in probe]))
    return ValueEstimate(
        exemplar_id=e.id,
        value=float(np.mean(scores)),
        sample_count=len(scores),
        scores=tuple(scores.tolist()) if keep_scores else None,
        failures=int(np.count_nonzero(~ok)),
    )


def pool_score_matrix(pool: ExemplarPool, oracle, score_fn, targets=None) -> tuple[np.ndarray, np.ndarray]:
    """scores[i, j]: pool[i] as the sole context exemplar, scored on targets[j].

    ``targets`` holds anything with ``x`` and ``y`` (default: the pool).  One
    ``predict_many([pool[i]], X_targets)`` call and one batched score per
    row.  Returns the scores and their ok mask.  Nothing in it depends on a
    seed, so one pool matrix serves every trial of a run: the oracle is asked
    for N^2 predictions once instead of N * subsample per trial.
    """
    targets = pool if targets is None else targets
    xs, ys = np.stack([t.x for t in targets]), np.stack([t.y for t in targets])
    rows = [score_rows(score_fn, _predict_rows(oracle, [e], xs), ys) for e in pool]
    return np.stack([s for s, _ in rows]), np.stack([ok for _, ok in rows])


def estimate_pool_values(
    pool: ExemplarPool,
    oracle,
    score_fn,
    subsample="all",
    seed: int = 0,
    matrix=None,
) -> list[ValueEstimate]:
    """Value estimates for every pool member against one shared probe sample.

    A single permutation is drawn per call; each exemplar's probe set is the
    first ``subsample`` entries of that permutation after dropping itself,
    taken in id order.  The scores come from ``matrix``, the (scores, ok)
    pair of ``pool_score_matrix``; pass it to reuse one matrix across seeds,
    or leave it out to build it here.  Estimates come back in pool order.
    """
    _check_subsample(pool, subsample)
    scores, ok = pool_score_matrix(pool, oracle, score_fn) if matrix is None else matrix
    n = pool.size
    order = np.array(sample_prefix(np.random.default_rng(seed), n, n))
    m = n - 1 if subsample == "all" else subsample
    # Row i: the permutation without position i, cut to m probes, put in id
    # order so each mean sums in the same order as ``value_estimate``'s.
    probes = np.broadcast_to(order, (n, n))[order != np.arange(n)[:, None]].reshape(n, n - 1)[:, :m]
    ids = np.array([e.id for e in pool])
    probes = np.take_along_axis(probes, np.argsort(ids[probes], axis=1), axis=1)
    rows = np.arange(n)[:, None]
    values = scores[rows, probes].mean(axis=1)
    failures = np.count_nonzero(~ok[rows, probes], axis=1)
    return [
        ValueEstimate(exemplar_id=e.id, value=float(v), sample_count=m, failures=int(f))
        for e, v, f in zip(pool, values, failures)
    ]


def active_select(
    pool: ExemplarPool,
    k: int,
    oracle,
    score_fn,
    subsample="all",
    seed: int = 0,
    matrix=None,
) -> SelectionResult:
    """Top-k exemplars by Monte-Carlo value, ties broken by ascending id.

    Chosen ids are ordered by descending value; diagnostics carry every
    estimate.  ``matrix`` is passed on to ``estimate_pool_values``.
    """
    _check_k(pool, k)
    estimates = estimate_pool_values(pool, oracle, score_fn, subsample=subsample, seed=seed, matrix=matrix)
    ranked = sorted(estimates, key=lambda v: (-v.value, v.exemplar_id))
    chosen = tuple(v.exemplar_id for v in ranked[:k])
    return SelectionResult(
        chosen=chosen,
        strategy="active",
        diagnostics={"values": estimates, "seed": seed, "subsample": subsample},
    )


def instance_best_select(
    pool: ExemplarPool,
    query: tuple,
    k: int,
    oracle,
    score_fn,
) -> SelectionResult:
    """Evaluation-only: rank exemplars by their true score on one query.

    Each exemplar is scored as the sole context for the query against the
    ground-truth y; the top k come back in descending score order, ties by
    ascending id.
    """
    _check_k(pool, k)
    query_x, query_y = query
    query_y = np.asarray(query_y, dtype=np.float64)
    scored = []
    failures = 0
    for e in pool:
        y_hat = oracle.predict([e], query_x)
        s, ok = safe_score(score_fn, y_hat, query_y)
        if not ok:
            failures += 1
        scored.append((e.id, s))
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))
    chosen = tuple(eid for eid, _ in ranked[:k])
    return SelectionResult(
        chosen=chosen,
        strategy="oracle-instance-best",
        diagnostics={"scores": dict(scored), "failures": failures},
    )


def mode_pattern(patterns, tolerance: float) -> tuple[np.ndarray, int]:
    """Most frequent pattern under tolerance-equality clustering.

    Patterns whose coordinates all agree within ``tolerance`` join the same
    cluster, represented by its first member; ties between clusters break by
    first occurrence.  Returns (representative, multiplicity).
    """
    patterns = [np.asarray(p, dtype=np.float64) for p in patterns]
    if not patterns:
        raise ValueError("mode_pattern needs a non-empty pattern list")
    reps: list[np.ndarray] = []
    counts: list[int] = []
    for p in patterns:
        for i, rep in enumerate(reps):
            if p.shape == rep.shape and np.all(np.abs(p - rep) <= tolerance):
                counts[i] += 1
                break
        else:
            reps.append(p)
            counts.append(1)
    best = max(range(len(reps)), key=lambda i: (counts[i], -i))
    return reps[best], counts[best]
