"""Experiment runners: bound-verification sweeps, context-size studies, and
strategy comparisons, all driven by a flat key=value config.

``ExperimentConfig``'s fields are the config schema: each key is a field
name, and files, ``--set`` flags (through ``from_mapping``) and direct
construction all convert and check values in its ``__post_init__``.  A
config is frozen; ``dataclasses.replace`` varies it and checks it again.

Every run is a pure function of (config, seed).  Sub-seeds are derived
through ``derive_seed`` so trials can be computed in any order without
changing output bytes; per-query scores are recorded rounded to 12 decimals
so that CSV output is byte-stable and score comparisons between strategies
are insensitive to last-ulp noise.
"""

import io
import csv
import json
import math
import numbers
import operator
from dataclasses import dataclass, fields, replace
from typing import get_args, get_origin

import numpy as np

from . import bounds, selection, tasks

__all__ = [
    "ExperimentConfig",
    "derive_seed",
    "parse_config_text",
    "run_bound_sweep",
    "run_k_study",
    "run_strategy_comparison",
]

SCORE_DECIMALS = 12

_STRATEGY_CODES = {"random": 0, "metric": 1, "active": 2, "instance-best": 3}


def _round_scores(scores) -> np.ndarray:
    """``round(s, SCORE_DECIMALS)`` of every entry, bit for bit.

    ``round`` rounds the exact s * 10^12 to an integer N and returns the float
    nearest N / 10^12.  For |s| < 9e3, p = s * 10^12 is below 2^53 in size,
    so rint(p) / 10^12 is one correctly rounded division of integers; rint(p)
    is N unless forming p moved it across a half, which cannot happen where
    frac(p) is more than 4 ulp(p) from 0.5.  Every other entry (a near tie,
    |s| >= 9e3, a non-finite score) takes ``round``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    small = np.abs(scores) < 9e3
    p = np.where(small, scores, 0.0) * 10.0**SCORE_DECIMALS
    fast = small & (np.abs(p - np.floor(p) - 0.5) > 4 * np.abs(np.spacing(p)))
    rounded = np.rint(p) / 10.0**SCORE_DECIMALS
    rounded[~fast] = [round(float(s), SCORE_DECIMALS) for s in scores[~fast]]
    return rounded


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """All experiment knobs.  The fields are the config schema: a key is its
    field's name, with the first ``_`` a ``.`` after a section name
    (``task_noise_sigma`` is ``task.noise_sigma``, ``k_values`` stays).

    File format: one ``key = value`` pair per line, ``#`` comments; list
    values are comma-separated.  Flag overrides replace file values.  Every
    construction converts each field by its annotation (text is parsed, any
    other value must already be of that type), then checks the values.
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
    strategies: tuple[str, ...] = ("random", "active", "instance-best")
    k_values: tuple[int, ...] = (1, 2, 4, 8, 16)
    trials: int = 100
    seed: int = 0
    subsample: int | str = 100
    output: str = ""
    bound_gamma_grid: tuple[float, ...] = (0.5, 2.0, 8.0)
    bound_m_grid: tuple[int, ...] = (2, 8, 32)
    bound_dup_fractions: tuple[float, ...] = (0.0, 0.5, 1.0)
    bound_instances: int = 100

    def __post_init__(self):
        for key, (name, kind, item) in _FIELDS.items():
            raw = getattr(self, name)
            try:
                object.__setattr__(self, name, _convert(raw, kind, item))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {raw!r}") from None
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.task_kind not in tasks.TASK_KINDS:
            raise ValueError(f"task.kind must be one of {list(tasks.TASK_KINDS)}, got {self.task_kind!r}")
        if self.task_d < 1:
            raise ValueError(f"task.d must be >= 1, got {self.task_d}")
        if self.task_prototypes < 1:
            raise ValueError(f"task.prototypes must be >= 1, got {self.task_prototypes}")
        if self.task_kind == "key-value-association":
            # As tasks.make_benchmark_task: x and y split at d/2, one value direction per association.
            if self.task_prototypes < 2:
                raise ValueError(f"task.prototypes must be >= 2 for {self.task_kind}, got {self.task_prototypes}")
            if self.task_d % 2 or self.task_d < 2 * self.task_prototypes:
                raise ValueError(f"task.d must be even and >= 2 * task.prototypes = {2 * self.task_prototypes} "
                                 f"for {self.task_kind}, got {self.task_d}")
        if self.task_kind == "prototype-completion" and self.task_prototypes >= 2 and self.task_d < 2:
            raise ValueError(f"task.d must be >= 2 for {self.task_kind} with task.prototypes >= 2 "
                             f"(unit-norm prototypes in d = 1 are +1 or -1), got {self.task_d}")
        if not 0 <= self.task_noise_sigma < math.inf:
            raise ValueError(f"task.noise_sigma must be finite and >= 0, got {self.task_noise_sigma!r}")
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"strategies must not repeat an entry, got {self.strategies}")
        if not self.k_values:
            raise ValueError("k_values must hold at least one K")
        if self.pool_size < 2:
            raise ValueError(f"pool.size must be >= 2, got {self.pool_size}")
        if self.queries_size < 1:
            raise ValueError(f"queries.size must be >= 1, got {self.queries_size}")
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ValueError(f"k_values must be strictly ascending (no repeats), got {self.k_values}")
        if any(k < 1 or k > self.pool_size for k in self.k_values):
            raise ValueError("every k must satisfy 1 <= k <= pool.size")
        unknown = set(self.strategies) - set(_STRATEGY_CODES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if self.metric not in ("euclidean", "cosine"):
            raise ValueError(f"metric must be 'euclidean' or 'cosine', got {self.metric!r}")
        if self.score not in tasks.SCORE_TAGS:
            raise ValueError(f"score must be one of {sorted(tasks.SCORE_TAGS)}, got {self.score!r}")
        if self.oracle_kind not in ("builtin", "remote"):
            raise ValueError(f"oracle.kind must be 'builtin' or 'remote', got {self.oracle_kind!r}")
        if self.oracle_endpoint:
            tasks.split_endpoint(self.oracle_endpoint)
        if not 0 < self.oracle_gamma < math.inf:
            raise ValueError(f"oracle.gamma must be finite and > 0, got {self.oracle_gamma!r}")
        # An empty grid or no instances would verify nothing and report success.
        if not self.bound_gamma_grid or not all(0 < g < math.inf for g in self.bound_gamma_grid):
            raise ValueError(f"bound.gamma_grid must be non-empty, finite and > 0, got {self.bound_gamma_grid}")
        if not self.bound_m_grid or any(m < 1 for m in self.bound_m_grid):
            raise ValueError(f"bound.m_grid must be non-empty and >= 1, got {self.bound_m_grid}")
        if not self.bound_dup_fractions or not all(0.0 <= f <= 1.0 for f in self.bound_dup_fractions):
            raise ValueError(f"bound.dup_fractions must be non-empty, in [0, 1], got {self.bound_dup_fractions}")
        if self.bound_instances < 1:
            raise ValueError(f"bound.instances must be >= 1, got {self.bound_instances}")
        if self.subsample != "all" and not 1 <= self.subsample <= self.pool_size - 1:
            raise ValueError(f"subsample must be 'all' or in [1, {self.pool_size - 1}], got {self.subsample}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        for key in mapping:
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**{_FIELDS[key][0]: raw for key, raw in mapping.items()})

    def as_mapping(self) -> dict:
        out = {}
        for key, (name, *_) in _FIELDS.items():
            value = getattr(self, name)
            out[key] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        return out


# Config key -> (field name, annotation, a tuple annotation's item or None), in field order.
# Built once: the conversion runs on every construction.
_FIELDS = {
    (f.name.replace("_", ".", 1) if f.name.split("_")[0] in ("task", "pool", "queries", "oracle", "bound")
     else f.name): (f.name, f.type, get_args(f.type)[0] if get_origin(f.type) is tuple else None)
    for f in fields(ExperimentConfig)
}

# What a value of each field annotation must be, for the error message.
_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", int | str: "'all' or an integer",
    tuple[int, ...]: "a comma-separated list of integers", tuple[float, ...]: "a comma-separated list of numbers",
    tuple[str, ...]: "a comma-separated list of strings",
}


def _convert(raw, kind, item=None):
    """``raw`` as a value of annotation ``kind`` (a tuple of ``item``s if
    ``item`` is given).  Text is parsed, a tuple's items comma-separated; any
    other value must already be of ``kind``: a tuple kind takes a sequence of
    its items, a float kind any real number.  A bool is none of these."""
    if item is not None:
        items = [p for p in raw.split(",") if p.strip()] if isinstance(raw, str) else raw
        return tuple(_convert(x, item) for x in items)
    if isinstance(raw, str):
        raw = raw.strip()
        if kind is str or kind == int | str and raw == "all":
            return raw
        return float(raw) if kind is float else int(raw)
    if isinstance(raw, bool) or kind is str or kind is float and not isinstance(raw, (float, numbers.Real)):
        raise TypeError  # float first: skips the ABC check
    return float(raw) if kind is float else operator.index(raw)


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
    # Checked here rather than in ExperimentConfig: a remote config may be
    # built and validated before its endpoint is known.
    if not config.oracle_endpoint:
        raise ValueError("oracle.endpoint must be set when oracle.kind=remote")
    return tasks.RemoteOracle(config.oracle_endpoint)


def _csv_text(header_comment: str, columns, rows) -> str:
    """Rows hold raw values: ``csv.writer`` writes floats by repr, None as an empty field."""
    buf = io.StringIO()
    buf.write(header_comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Bound sweep
# ---------------------------------------------------------------------------


def _draw_row(config: ExperimentConfig, gi: int, mi: int):
    """Draw sweep row (gamma_grid[gi], m_grid[mi]), its cells in order, as the patterns ``verify_bound`` forms
    from the drawn model.  Each instance draws d_q, d_m - d_q, one normal block (xi_q, xi_k, lam, sigma),
    dz's scale and direction.  Yields [row positions, u, z, v, u_star] per d_q, positions ascending."""
    m, n = config.bound_m_grid[mi], config.bound_instances
    draws, by_d_q = {}, {}
    for di, frac in enumerate(config.bound_dup_fractions):
        rng = np.random.default_rng(derive_seed(config.seed, 3, gi, mi, di))
        for j in range(n):
            d_q = int(rng.integers(2, 9))
            d_m = d_q + int(rng.integers(0, 3))
            draws.setdefault((d_q, d_m), []).append((di * n + j, max(1, round(frac * m)),
                                                     rng.standard_normal(d_m * (2 * d_q + m + 1)),
                                                     rng.random(), rng.standard_normal(d_q)))
    for (d_q, d_m), group in draws.items():
        pos, n_dup, block, scale, dz = (np.array(col) for col in zip(*group))
        q, k = d_m * d_q, d_m * (2 * d_q + m)  # where xi_k and sigma start
        xi_q, xi_k, lam, sigma = (block[:, i:j].reshape(len(pos), d_m, -1)
                                  for i, j in ((0, q), (q, 2 * q), (2 * q, k), (k, None)))
        lam = np.where(np.arange(m) < n_dup[:, None, None], lam[..., :1], lam)  # the forced duplicate block
        z = xi_k.transpose(0, 2, 1) @ lam
        by_d_q.setdefault(d_q, []).append((pos, (sigma.transpose(0, 2, 1) @ xi_q)[:, 0], z,
                                           lam.transpose(0, 2, 1) @ xi_k, z[..., 0] + scale[:, None] * dz))
    for parts in by_d_q.values():
        group = [np.concatenate(a) for a in zip(*parts)]
        order = np.argsort(group[0])
        yield [a[order] for a in group]


def _verify_row(groups: list, gamma: float) -> dict:
    """Verify a row's d_q groups in one batch each.  Returns the verifier's columns
    in row order, or raises the error of the lowest failing row position."""
    parts, faults = [], []
    for pos, *patterns in groups:
        columns, fault = bounds._verify_rows(*patterns, gamma, 0)
        parts.append((pos, columns))
        if fault is not None:
            faults.append((pos[fault[0]], fault[1]))
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    order = np.argsort(np.concatenate([pos for pos, _ in parts]))
    return {name: np.concatenate([columns[name] for _, columns in parts])[order] for name in bounds._COLUMNS}


def run_bound_sweep(config: ExperimentConfig):
    """Randomized verification of the retrieval-error bound over a grid.

    Sweeps gamma, context size M, and the forced duplicate fraction t/M;
    every instance's realized error must stay below its upper bound (a
    violation raises with the first offending instance of its (gamma, M)
    row).  Each row's instances are drawn in order, then verified in one
    batch per d_q.  Returns (columns, csv_text, summary): columns maps each
    CSV column name to an array in row order (delta_min NaN where t = M).
    """
    parts, n = [], config.bound_instances
    for gi, gamma in enumerate(config.bound_gamma_grid):
        for mi, m in enumerate(config.bound_m_grid):
            row = _verify_row(_draw_row(config, gi, mi), gamma)
            ids = np.array([f"g{gi}-m{mi}-d{k // n}-{k % n}" for k in range(len(row["t"]))])
            parts.append({"instance_id": ids, "M": np.full(len(ids), m), "gamma": np.full(len(ids), gamma), **row})
    columns = {name: np.concatenate([p[name] for p in parts]) for name in bounds.BOUND_CSV_COLUMNS}
    ub = columns["upper_bound"]
    max_ratio = float((columns["realized_error"][ub > 0] / ub[ub > 0]).max(initial=0.0))
    summary = {"instances": len(ub), "violations": 0, "max_error_to_bound_ratio": max_ratio}
    rows = {**columns, "delta_min": np.where(columns["t"] == columns["M"], None, columns["delta_min"])}
    csv_text = _csv_text("# hopctx bound-sweep v1", bounds.BOUND_CSV_COLUMNS, zip(*(a.tolist() for a in rows.values())))
    csv_text += f"# summary instances={len(ub)} violations=0 max_ratio={max_ratio!r}\n"
    return columns, csv_text, summary


# ---------------------------------------------------------------------------
# Context-size study (performance vs K)
# ---------------------------------------------------------------------------


def run_k_study(config: ExperimentConfig):
    """Mean score of each strategy at each context size K, over seeded trials.

    The pool and query set are generated once from the config seed; trials
    vary only the selection randomness.  Each strategy's contexts are built
    once, as pool positions: random and active (trials, 1, K), one context
    per trial for every query; metric and instance-best, which have no
    randomness, (1, Q, N), one ranking per query (``selection.metric_rank``;
    the query score matrix).  Each (strategy, K) is one blocked
    ``selection.score_contexts`` call on the first K positions of every
    context, over all trials and queries, through the oracle's
    ``predict_pool`` (the remote one sends one request per row, pipelining
    up to ``tasks.REMOTE_IN_FLIGHT`` on one connection per call).  With
    ``active``, the pool score matrix is built once per run, and every
    trial's active values are gathered from it at once, each under its
    trial's probe permutation, and ranked in one call at the largest K
    (identical to calling the selector per trial and K with the same seed):
    pool.size^2 scores once instead of trials * pool.size * subsample.

    Cost in predictions: metric and instance-best take len(k_values) *
    queries.size per run whatever ``trials`` is (instance-best also
    pool.size * queries.size for its ranking), and their scores repeat
    across trials; a random or active (strategy, K) takes trials *
    queries.size, in blocks of whole trials.  The benchmark's
    ``kstudy-default`` run (5 trials; random, active and instance-best) makes
    30 ``predict_pool`` calls: 10 for the pool matrix, 5 for the query
    matrix and one per (strategy, K).

    Returns (scores, csv_text).  ``scores[strategy, k]`` is a read-only
    float64 (trials, queries.size) array of rounded per-query scores, row t
    for trial t (metric and instance-best broadcast their one row); a trial's
    mean is its row's mean.  The CSV holds one row per (trial, strategy, K),
    trial-major, with the trial's selection seed and mean score.
    """
    task = _build_task(config)
    oracle = _build_oracle(config, task)
    score_fn = tasks.get_score_fn(config.score)
    pool, queries = tasks.generate_pool(
        task, config.pool_size, derive_seed(config.seed, 1), n_queries=config.queries_size
    )
    xs, ys = queries.xs, queries.ys
    trials = range(config.trials)

    # Each strategy's seed per (trial, K): active ranks once per trial at the
    # largest K, so its seed repeats over K; the others draw or rank per K.
    seeds = {}
    for strategy in config.strategies:
        parts = [(config.seed, 2, trial, _STRATEGY_CODES[strategy]) for trial in trials]
        seeds[strategy] = ([[derive_seed(*p)] * len(config.k_values) for p in parts] if strategy == "active"
                           else [[derive_seed(*p, k) for k in config.k_values] for p in parts])

    contexts = {}
    if "instance-best" in config.strategies:
        query_scores, _ = selection.score_contexts(pool, oracle, score_fn, np.arange(pool.size)[:, None, None], xs, ys)
        contexts["instance-best"] = pool.rank(query_scores.T)[None]
    if "metric" in config.strategies:
        contexts["metric"] = selection.metric_rank(pool, xs, config.metric)[0][None]
    if "active" in config.strategies:
        matrix = selection.pool_score_matrix(pool, oracle, score_fn)
        values, _ = selection._pool_values(pool, matrix, config.subsample, [row[0] for row in seeds["active"]])
        contexts["active"] = pool.rank(values)[:, None, :max(config.k_values)]

    # Rounded per-query scores of each (strategy, K), one row per trial; metric and
    # instance-best broadcast their one row.  A CSV mean is its block row's mean.
    scores, means = {}, {}
    for strategy in config.strategies:
        for ki, k in enumerate(config.k_values):
            if strategy == "random":
                ids = np.stack([selection.random_select(pool, k, row[ki]) for row in seeds["random"]])[:, None]
            else:
                ids = contexts[strategy][..., :k]
            block, _ = selection.score_contexts(pool, oracle, score_fn, ids, xs, ys)
            rounded = _round_scores(block)
            scores[strategy, k] = np.broadcast_to(rounded, (config.trials, rounded.shape[1]))
            means[strategy, k] = np.broadcast_to(rounded.mean(axis=1), config.trials).tolist()

    rows = [[trial, seeds[strategy][trial][ki], strategy, k, len(xs), means[strategy, k][trial]]
            for trial in trials for strategy in config.strategies for ki, k in enumerate(config.k_values)]
    csv_text = _csv_text(
        "# hopctx k-study v1",
        ("trial_index", "trial_seed", "strategy", "k", "n_queries", "mean_score"),
        rows,
    )
    return scores, csv_text


# ---------------------------------------------------------------------------
# Strategy comparison at fixed K
# ---------------------------------------------------------------------------


def run_strategy_comparison(config: ExperimentConfig):
    """Per-strategy mean/std across trials and win rate against random at
    fixed K (the first entry of k_values).  Returns (summary, csv_text,
    json_text)."""
    k = config.k_values[0]
    scores, _ = run_k_study(replace(config, k_values=(k,)))
    trial_means = {s: scores[s, k].mean(axis=1) for s in config.strategies}
    random_means = trial_means.get("random")

    summary = {"k": k, "trials": config.trials, "strategies": {}}
    rows = []
    for strategy, means in trial_means.items():
        entry = {
            "mean": float(means.mean()),
            "std": float(means.std(ddof=1)) if len(means) > 1 else 0.0,
        }
        if random_means is not None:
            wins = np.sum(means > random_means) + 0.5 * np.sum(means == random_means)
            entry["win_rate_vs_random"] = float(wins / len(means))
        summary["strategies"][strategy] = entry
        rows.append([strategy, k, config.trials, entry["mean"], entry["std"], entry.get("win_rate_vs_random")])
    csv_text = _csv_text(
        "# hopctx strategy-comparison v1",
        ("strategy", "k", "trials", "mean", "std", "win_rate_vs_random"),
        rows,
    )
    json_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return summary, csv_text, json_text
