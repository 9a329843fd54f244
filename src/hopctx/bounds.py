"""Retrieval-error analysis for softmax contextual retrieval.

For a target context pattern z_i with t exact duplicates among the M patterns
and worst-case score margin delta_min = u z_i - max_{z_j != z_i} u z_j, the
Euclidean retrieval error eps = ||u_new - u*|| is bounded by

    eps <= ||dz|| + beta * ||z_max||,
    beta = 1 - (1 + c (M - t) / t)^{-1} + c (M - t),
    c    = exp(-gamma * delta_min),

where u* = (z_i + dz)^T is the ground-truth pattern and z_max is the context
pattern of largest Euclidean norm.  ||dz|| is the instance error (target
mismatch); beta * ||z_max|| is the contextual error (crowding by competing
patterns).  When every pattern duplicates the target (t = M), delta_min has
no defined value; c is set to 0 by convention, which is harmless because both
c terms carry the factor M - t = 0.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .retrieval import ContextSet, ContextualHopfield, QueryState, RetrievalResult, hnc_retrieve

__all__ = [
    "SeparationReport",
    "BoundReport",
    "BoundViolationError",
    "DUPLICATE_TOL",
    "separation",
    "realized_error",
    "beta_coefficient",
    "error_bound",
    "verify_bound",
    "monotonicity_table",
    "BOUND_CSV_COLUMNS",
    "bound_report_csv_row",
]

# Per-coordinate tolerance for treating two context patterns as duplicates.
# Near-duplicates beyond this count as distinct: the bound treats equality
# exactly and float noise must not silently merge patterns.
DUPLICATE_TOL = 1e-12

# CSV schema for serialized reports (one row per instance).
BOUND_CSV_COLUMNS = (
    "instance_id",
    "M",
    "t",
    "gamma",
    "delta_min",
    "c",
    "instance_error",
    "beta",
    "z_max_norm",
    "upper_bound",
    "realized_error",
)


class BoundViolationError(AssertionError):
    """Raised when a realized error exceeds the proven bound: an implementation bug."""

    def __init__(self, report: "BoundReport", detail: str = ""):
        self.report = report
        super().__init__(f"retrieval error exceeds its upper bound: {report!r} {detail}")


@dataclass(frozen=True)
class SeparationReport:
    """Score margins of one target pattern against the other context patterns.

    ``delta_all[j]`` is u z_i - u z_j for distinct z_j and NaN at duplicate
    positions (including the target itself).  ``delta_min`` is None when all
    M patterns duplicate the target (t = M).
    """

    target_index: int
    delta_all: np.ndarray
    delta_min: float | None
    duplicate_count: int
    m: int


@dataclass(frozen=True)
class BoundReport:
    instance_error: float
    c: float
    t: int
    m: int
    beta: float
    z_max_norm: float
    upper_bound: float
    gamma: float
    delta_min: float | None
    realized_error: float | None = None
    u_star: np.ndarray | None = None


def separation(
    query: QueryState,
    ctx: ContextSet,
    model: ContextualHopfield,
    target_index: int,
) -> SeparationReport:
    """Margins delta_j = u z_i - u z_j of target i against each distinct pattern.

    Duplicates of the target are detected by per-coordinate equality within
    ``DUPLICATE_TOL``; delta_min is the minimum margin over non-duplicates.
    """
    z = ctx.patterns(model)
    m = z.shape[1]
    if not 0 <= target_index < m:
        raise IndexError(f"target_index {target_index} out of range for M={m}")
    target = z[:, target_index]
    sims = query.u @ z
    dup = np.all(np.abs(z - target[:, None]) <= DUPLICATE_TOL, axis=0)
    t = int(dup.sum())
    delta_all = np.where(dup, np.nan, sims[target_index] - sims)
    if t == m:
        delta_min = None
    else:
        delta_min = float(np.nanmin(delta_all))
    return SeparationReport(
        target_index=target_index,
        delta_all=delta_all,
        delta_min=delta_min,
        duplicate_count=t,
        m=m,
    )


def realized_error(result: RetrievalResult, u_star) -> float:
    """Euclidean distance between the retrieved pattern and the ground truth."""
    u_star = np.asarray(u_star, dtype=np.float64)
    if u_star.shape != result.u_new.shape:
        raise ValueError(f"u_star shape {u_star.shape} != retrieved shape {result.u_new.shape}")
    return float(np.linalg.norm(result.u_new - u_star))


def beta_coefficient(c: float, m: int, t: int) -> float:
    """beta = 1 - (1 + c(M-t)/t)^{-1} + c(M-t)."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if m < t:
        raise ValueError(f"M={m} smaller than duplicate count t={t}")
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    if m == t:
        return 0.0
    x = c * (m - t) / t
    return 1.0 - 1.0 / (1.0 + x) + c * (m - t)


def error_bound(
    sep: SeparationReport,
    gamma: float,
    instance_error: float,
    z_max_norm: float,
) -> BoundReport:
    """Assemble the bound report from a separation report and instance data."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if instance_error < 0 or z_max_norm < 0:
        raise ValueError("instance_error and z_max_norm must be nonnegative")
    if sep.delta_min is None:
        c = 0.0
    else:
        # delta_min < 0 (target not the best-scoring pattern) can push c past
        # the float range; the bound is then trivially infinite but still valid.
        try:
            c = math.exp(-gamma * sep.delta_min)
        except OverflowError:
            c = math.inf
    beta = beta_coefficient(c, sep.m, sep.duplicate_count)
    return BoundReport(
        instance_error=float(instance_error),
        c=c,
        t=sep.duplicate_count,
        m=sep.m,
        beta=beta,
        z_max_norm=float(z_max_norm),
        upper_bound=float(instance_error) + beta * float(z_max_norm),
        gamma=float(gamma),
        delta_min=sep.delta_min,
    )


def verify_bound(
    model: ContextualHopfield,
    ctx: ContextSet,
    query: QueryState,
    u_star,
    target_index: int,
) -> BoundReport:
    """Run one retrieval and check the realized error against its upper bound.

    dz is derived from the inputs as u*^T - z_target.  A violation raises
    ``BoundViolationError`` carrying the full report; the comparison allows
    relative slack 1e-9 to absorb softmax rounding.  A non-finite error or a
    NaN bound cannot be checked and counts as a violation; an infinite bound
    (infinite separation ratio c) holds for any finite error.
    """
    u_star = np.asarray(u_star, dtype=np.float64)
    sep = separation(query, ctx, model, target_index)
    z = ctx.patterns(model)
    dz = u_star - z[:, target_index]
    instance_error = float(np.linalg.norm(dz))
    z_max_norm = float(np.linalg.norm(z, axis=0).max())
    result = hnc_retrieve(model, ctx, query)
    eps = realized_error(result, u_star)
    report = error_bound(sep, model.gamma, instance_error, z_max_norm)
    report = replace(report, realized_error=eps, u_star=u_star)
    if not math.isfinite(eps) or math.isnan(report.upper_bound) or (
        eps > report.upper_bound + 1e-9 * (1.0 + report.upper_bound)
    ):
        raise BoundViolationError(report, detail=f"eps={eps!r} bound={report.upper_bound!r}")
    return report


def monotonicity_table(
    base: BoundReport,
    param: str,
    values,
) -> list[tuple[float, float, float]]:
    """Evaluate (param, beta, bound) along a sweep of c, M or t.

    The two non-swept quantities are held at the base report's values, as is
    the instance error and ||z_max||.  Rows are sorted by the parameter.
    """
    if param not in ("c", "M", "t"):
        raise ValueError(f"sweep parameter must be 'c', 'M' or 't', got {param!r}")
    values = sorted(values)
    if not values:
        raise ValueError("empty sweep range")
    rows = []
    for v in values:
        if param == "c":
            if v < 0:
                raise ValueError(f"c must be nonnegative, got {v}")
            beta = beta_coefficient(float(v), base.m, base.t)
        elif param == "M":
            if v < base.t:
                raise ValueError(f"M={v} smaller than t={base.t}")
            beta = beta_coefficient(base.c, int(v), base.t)
        else:
            if not 1 <= v <= base.m:
                raise ValueError(f"t={v} out of range [1, {base.m}]")
            beta = beta_coefficient(base.c, base.m, int(v))
        rows.append((float(v), beta, base.instance_error + beta * base.z_max_norm))
    return rows


def bound_report_csv_row(instance_id, report: BoundReport) -> list:
    """Flatten a report into the documented CSV column order."""
    return [
        instance_id,
        report.m,
        report.t,
        repr(report.gamma),
        "" if report.delta_min is None else repr(report.delta_min),
        repr(report.c),
        repr(report.instance_error),
        repr(report.beta),
        repr(report.z_max_norm),
        repr(report.upper_bound),
        "" if report.realized_error is None else repr(report.realized_error),
    ]
