"""Experiment runners: bound-verification sweeps, context-size studies, and
strategy comparisons, all driven by a flat key=value config.

Every run is a pure function of (config, seed).  Sub-seeds are derived
through ``derive_seed`` so trials can be computed in any order without
changing output bytes; per-query scores are recorded rounded to 12 decimals
so that CSV output is byte-stable and score comparisons between strategies
are insensitive to last-ulp noise.
"""

import io
import csv
import json
from dataclasses import dataclass, fields

import numpy as np

from . import bounds, selection, tasks
from .retrieval import ContextSet, ContextualHopfield, QueryState

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "derive_seed",
    "parse_config_text",
    "run_bound_sweep",
    "run_k_study",
    "run_strategy_comparison",
]

SCORE_DECIMALS = 12

_STRATEGY_CODES = {"random": 0, "metric": 1, "active": 2, "instance-best": 3}


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class ExperimentConfig:
    """All experiment knobs, with the documented config-file keys.

    File format: one ``key = value`` pair per line, ``#`` comments; list
    values are comma-separated.  Flag overrides replace file values.
    """

    task_kind: str = "key-value-association"
    task_d: int = 16
    task_prototypes: int = 5
    task_noise_sigma: float = 0.1
    pool_size: int = 200
    queries_size: int = 100
    oracle_kind: str = "builtin"
    oracle_endpoint: str = ""
    oracle_gamma: float = 2.0
    score: str = "cosine-score"
    metric: str = "euclidean"
    strategies: tuple = ("random", "active", "instance-best")
    k_values: tuple = (1, 2, 4, 8, 16)
    trials: int = 100
    seed: int = 0
    subsample: object = 100
    output: str = ""
    bound_gamma_grid: tuple = (0.5, 2.0, 8.0)
    bound_m_grid: tuple = (2, 8, 32)
    bound_dup_fractions: tuple = (0.0, 0.5, 1.0)
    bound_instances: int = 100

    KEYS = {
        "task.kind": ("task_kind", str),
        "task.d": ("task_d", int),
        "task.prototypes": ("task_prototypes", int),
        "task.noise_sigma": ("task_noise_sigma", float),
        "pool.size": ("pool_size", int),
        "queries.size": ("queries_size", int),
        "oracle.kind": ("oracle_kind", str),
        "oracle.endpoint": ("oracle_endpoint", str),
        "oracle.gamma": ("oracle_gamma", float),
        "score": ("score", str),
        "metric": ("metric", str),
        "strategies": ("strategies", "str_list"),
        "k_values": ("k_values", "int_list"),
        "trials": ("trials", int),
        "seed": ("seed", int),
        "subsample": ("subsample", "subsample"),
        "output": ("output", str),
        "bound.gamma_grid": ("bound_gamma_grid", "float_list"),
        "bound.m_grid": ("bound_m_grid", "int_list"),
        "bound.dup_fractions": ("bound_dup_fractions", "float_list"),
        "bound.instances": ("bound_instances", int),
    }

    def __post_init__(self):
        self.strategies = tuple(self.strategies)
        self.k_values = tuple(int(k) for k in self.k_values)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if list(self.k_values) != sorted(self.k_values):
            raise ValueError("k_values must be sorted ascending")
        if any(k < 1 or k > self.pool_size for k in self.k_values):
            raise ValueError("every k must satisfy 1 <= k <= pool.size")
        if self.subsample != "all":
            self.subsample = int(self.subsample)
        unknown = set(self.strategies) - set(_STRATEGY_CODES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        kwargs = {}
        for key, raw in mapping.items():
            if key not in cls.KEYS:
                raise ValueError(f"unknown config key {key!r}")
            attr, kind = cls.KEYS[key]
            kwargs[attr] = _convert(raw, kind)
        return cls(**kwargs)

    def as_mapping(self) -> dict:
        out = {}
        for key, (attr, kind) in self.KEYS.items():
            value = getattr(self, attr)
            if kind in ("str_list", "int_list", "float_list"):
                value = ",".join(str(v) for v in value)
            out[key] = str(value)
        return out


def _convert(raw, kind):
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind == "subsample":
        return "all" if raw == "all" else int(raw)
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if kind == "str_list":
        return tuple(parts)
    if kind == "int_list":
        return tuple(int(p) for p in parts)
    if kind == "float_list":
        return tuple(float(p) for p in parts)
    raise ValueError(f"unhandled config type {kind!r}")


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    trial_seed: int
    strategy: str
    k: int
    mean_score: float
    per_query_scores: tuple


# ---------------------------------------------------------------------------
# Shared experiment plumbing
# ---------------------------------------------------------------------------


def _build_task(config: ExperimentConfig) -> tasks.TaskSpec:
    return tasks.make_task(
        config.task_kind,
        config.task_d,
        config.task_prototypes,
        config.task_noise_sigma,
        seed=derive_seed(config.seed, 0),
    )


def _build_oracle(config: ExperimentConfig, task: tasks.TaskSpec):
    if config.oracle_kind == "builtin":
        return tasks.AssociativeOracle(gamma=config.oracle_gamma, y_dim=task.y_dim)
    if config.oracle_kind == "remote":
        if not config.oracle_endpoint:
            raise ValueError("oracle.kind=remote needs oracle.endpoint")
        return tasks.RemoteOracle(config.oracle_endpoint)
    raise ValueError(f"unknown oracle.kind {config.oracle_kind!r}")


def _round_score(s: float) -> float:
    return round(s, SCORE_DECIMALS)


def _score_queries(y_hats, queries, score_fn) -> tuple:
    """Rounded scores of y_hats[j] against queries[j].y, in one batch."""
    scores, _ = selection.score_rows(score_fn, y_hats, np.stack([q.y for q in queries]))
    return tuple(_round_score(s) for s in scores.tolist())


def _evaluate_fixed_context(oracle, context, queries, score_fn) -> tuple:
    """Per-query scores (rounded) of one context over the whole query set."""
    return _score_queries(oracle.predict_many(context, np.stack([q.x for q in queries])), queries, score_fn)


def _csv_text(header_comment: str, columns, rows) -> str:
    buf = io.StringIO()
    buf.write(header_comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Bound sweep
# ---------------------------------------------------------------------------


def _random_bound_instance(rng: np.random.Generator, gamma: float, m: int, dup_fraction: float):
    """One random retrieval instance with a forced duplicate block."""
    d_q = int(rng.integers(2, 9))
    d_m = d_q + int(rng.integers(0, 3))
    model = ContextualHopfield(
        xi_q=rng.standard_normal((d_m, d_q)),
        xi_k=rng.standard_normal((d_m, d_q)),
        gamma=gamma,
    )
    n_dup = max(1, int(round(dup_fraction * m)))
    base = rng.standard_normal((d_m, m))
    for i in range(1, min(n_dup, m)):
        base[:, i] = base[:, 0]
    ctx = ContextSet(base)
    query = QueryState.from_sigma(rng.standard_normal(d_m), model)
    z_target = (model.xi_k.T @ base)[:, 0]
    dz = rng.uniform(0.0, 1.0) * rng.standard_normal(d_q)
    u_star = z_target + dz
    return model, ctx, query, u_star


def run_bound_sweep(config: ExperimentConfig):
    """Randomized verification of the retrieval-error bound over a grid.

    Sweeps gamma, context size M, and the forced duplicate fraction t/M;
    every instance's realized error must stay below its upper bound (a
    violation raises immediately with the offending instance).  Returns
    (reports, csv_text, summary).
    """
    reports = []
    rows = []
    max_ratio = 0.0
    instance_count = 0
    for gi, gamma in enumerate(config.bound_gamma_grid):
        for mi, m in enumerate(config.bound_m_grid):
            for di, frac in enumerate(config.bound_dup_fractions):
                if not 0.0 <= frac <= 1.0:
                    raise ValueError(f"duplicate fraction {frac} outside [0, 1]")
                rng = np.random.default_rng(derive_seed(config.seed, 3, gi, mi, di))
                for j in range(config.bound_instances):
                    model, ctx, query, u_star = _random_bound_instance(rng, gamma, int(m), frac)
                    report = bounds.verify_bound(model, ctx, query, u_star, target_index=0)
                    instance_id = f"g{gi}-m{mi}-d{di}-{j}"
                    reports.append(report)
                    rows.append(bounds.bound_report_csv_row(instance_id, report))
                    if report.upper_bound > 0:
                        max_ratio = max(max_ratio, report.realized_error / report.upper_bound)
                    instance_count += 1
    summary = {"instances": instance_count, "violations": 0, "max_error_to_bound_ratio": max_ratio}
    csv_text = _csv_text(
        "# hopctx bound-sweep v1",
        bounds.BOUND_CSV_COLUMNS,
        rows,
    )
    csv_text += f"# summary instances={instance_count} violations=0 max_ratio={max_ratio!r}\n"
    return reports, csv_text, summary


# ---------------------------------------------------------------------------
# Context-size study (performance vs K)
# ---------------------------------------------------------------------------


def _instance_best_orders(score_matrix, pool) -> np.ndarray:
    """orders[:, j]: pool positions by descending score on query j, ties by
    ascending id (-0.0 and 0.0 tie)."""
    ids = np.array([e.id for e in pool])
    return np.lexsort((np.broadcast_to(ids[:, None], score_matrix.shape), -score_matrix), axis=0)


def _instance_best_scores(orders, pool, queries, k, oracle, score_fn):
    """Per-query scores when each query gets its own top-k exemplars;
    ``orders[:, j]`` ranks the pool positions for query j."""
    y_hats = [oracle.predict([pool[i] for i in orders[:k, j]], q.x) for j, q in enumerate(queries)]
    return _score_queries(y_hats, queries, score_fn)


def run_k_study(config: ExperimentConfig):
    """Mean score of each strategy at each context size K, over seeded trials.

    The pool and query set are generated once from the config seed; trials
    vary only the selection randomness.  When ``active`` runs, the pool score
    matrix (``selection.pool_score_matrix``) is built once per run, and each
    trial's active values are a gather and mean over it under that trial's
    probe permutation, ranked once at the largest K and sliced per K
    (identical to calling the selector per K with the same seed).  This asks
    the oracle for pool.size^2 single-exemplar predictions once instead of
    trials * pool.size * subsample.  The instance-best strategy re-selects
    per query and has no randomness, so its records repeat across trials.
    Returns (records, csv_text).
    """
    task = _build_task(config)
    oracle = _build_oracle(config, task)
    score_fn = tasks.get_score_fn(config.score)
    pool, queries = tasks.generate_pool(
        task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
    )
    if not queries:
        raise ValueError("k-study needs queries.size >= 1")
    records = []

    instance_best_cache = {}
    if "instance-best" in config.strategies:
        query_scores, _ = selection.pool_score_matrix(pool, oracle, score_fn, targets=queries)
        orders = _instance_best_orders(query_scores, pool)
        for k in config.k_values:
            instance_best_cache[k] = _instance_best_scores(orders, pool, queries, k, oracle, score_fn)

    pool_scores = None
    if "active" in config.strategies:
        pool_scores = selection.pool_score_matrix(pool, oracle, score_fn)

    for trial in range(config.trials):
        for strategy in config.strategies:
            code = _STRATEGY_CODES[strategy]
            if strategy == "active":
                active_seed = derive_seed(config.seed, 2, trial, code)
                ranking = selection.active_select(
                    pool, max(config.k_values), oracle, score_fn,
                    subsample=config.subsample, seed=active_seed, matrix=pool_scores,
                ).chosen
            for k in config.k_values:
                trial_seed = derive_seed(config.seed, 2, trial, code, k)
                if strategy == "random":
                    result = selection.random_select(pool, k, seed=trial_seed)
                    context = [pool.by_id(i) for i in result.chosen]
                    scores = _evaluate_fixed_context(oracle, context, queries, score_fn)
                elif strategy == "active":
                    context = [pool.by_id(i) for i in ranking[:k]]
                    scores = _evaluate_fixed_context(oracle, context, queries, score_fn)
                    trial_seed = active_seed
                elif strategy == "instance-best":
                    scores = instance_best_cache[k]
                elif strategy == "metric":
                    scores = _metric_per_query_scores(oracle, pool, queries, k, score_fn, config.metric)
                records.append(TrialRecord(
                    trial_index=trial,
                    trial_seed=trial_seed,
                    strategy=strategy,
                    k=k,
                    mean_score=float(np.mean(scores)),
                    per_query_scores=tuple(scores),
                ))

    rows = [
        [r.trial_index, r.trial_seed, r.strategy, r.k, len(r.per_query_scores), repr(r.mean_score)]
        for r in records
    ]
    csv_text = _csv_text(
        "# hopctx k-study v1",
        ("trial_index", "trial_seed", "strategy", "k", "n_queries", "mean_score"),
        rows,
    )
    return records, csv_text


def _metric_per_query_scores(oracle, pool, queries, k, score_fn, metric):
    y_hats = []
    for q in queries:
        result = selection.metric_select(pool, k, q.x, metric=metric)
        y_hats.append(oracle.predict([pool.by_id(i) for i in result.chosen], q.x))
    return _score_queries(y_hats, queries, score_fn)


# ---------------------------------------------------------------------------
# Strategy comparison at fixed K
# ---------------------------------------------------------------------------


def run_strategy_comparison(config: ExperimentConfig):
    """Per-strategy mean/std across trials and win rate against random at
    fixed K (the first entry of k_values).  Returns (summary, csv_text,
    json_text)."""
    k = config.k_values[0]
    sub = ExperimentConfig(**{
        **{f.name: getattr(config, f.name) for f in fields(ExperimentConfig)},
        "k_values": (k,),
    })
    records, _ = run_k_study(sub)
    by_strategy = {}
    for r in records:
        by_strategy.setdefault(r.strategy, []).append(r)
    for recs in by_strategy.values():
        recs.sort(key=lambda r: r.trial_index)

    random_means = None
    if "random" in by_strategy:
        random_means = np.array([r.mean_score for r in by_strategy["random"]])

    summary = {"k": k, "trials": config.trials, "strategies": {}}
    rows = []
    for strategy in config.strategies:
        means = np.array([r.mean_score for r in by_strategy[strategy]])
        entry = {
            "mean": float(means.mean()),
            "std": float(means.std(ddof=1)) if len(means) > 1 else 0.0,
        }
        if random_means is not None:
            wins = np.sum(means > random_means) + 0.5 * np.sum(means == random_means)
            entry["win_rate_vs_random"] = float(wins / len(means))
        summary["strategies"][strategy] = entry
        rows.append([
            strategy, k, config.trials, repr(entry["mean"]), repr(entry["std"]),
            repr(entry.get("win_rate_vs_random", "")),
        ])
    csv_text = _csv_text(
        "# hopctx strategy-comparison v1",
        ("strategy", "k", "trials", "mean", "std", "win_rate_vs_random"),
        rows,
    )
    json_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return summary, csv_text, json_text
