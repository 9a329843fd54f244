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

``verify_patterns`` and ``verify_bound`` return the result as columns: a dict
mapping t, delta_min, c, instance_error, beta, z_max_norm, upper_bound and
realized_error each to an array over u's leading axes (0-d for one instance),
delta_min NaN where t = M.  A violation raises ``BoundViolationError`` whose
``report`` is the failing row as a dict keyed by ``BOUND_CSV_COLUMNS[1:]``.
The verifier needs finite input and finite products: non-finite input, finite
input whose scores u z or norms overflow, or a gamma that is not finite and
> 0 is rejected with ValueError.
"""

import math

import numpy as np

from .retrieval import ContextSet, ContextualHopfield, QueryState, _finite_product, _row_dot, retrieval_update

__all__ = ["BoundViolationError", "beta_coefficient", "verify_patterns", "verify_bound", "BOUND_CSV_COLUMNS"]

# Per-coordinate tolerance for treating two context patterns as duplicates.
# Near-duplicates beyond this count as distinct: the bound treats equality
# exactly and float noise must not silently merge patterns.
DUPLICATE_TOL = 1e-12

# CSV schema of the sweep (one row per instance).  ``_COLUMNS`` are the verifier's
# columns, one entry per row (delta_min NaN where t = M); a violation report adds M and gamma.
BOUND_CSV_COLUMNS = ("instance_id", "M", "t", "gamma", "delta_min", "c", "instance_error", "beta",
                     "z_max_norm", "upper_bound", "realized_error")
_COLUMNS = BOUND_CSV_COLUMNS[2:3] + BOUND_CSV_COLUMNS[4:]


class BoundViolationError(AssertionError):
    """Raised when a realized error exceeds the proven bound: an implementation bug.  ``report``
    is the failing row, a dict keyed by ``BOUND_CSV_COLUMNS[1:]`` (delta_min NaN where t = M)."""

    def __init__(self, report: dict):
        self.report = report
        super().__init__(f"retrieval error exceeds its upper bound: {report!r}")


@np.errstate(over="ignore")
def _margins(sims: np.ndarray, z: np.ndarray, target_index: int):
    """The duplicate rule and the margins, for scores sims (B, M) and patterns
    z (B, d_q, M).  Returns (delta_all, delta_min, t), delta_min NaN at t = M;
    a difference of finite values that overflows is an infinite margin."""
    m = z.shape[-1]
    if not 0 <= target_index < m:
        raise IndexError(f"target_index {target_index} out of range for M={m}")
    dup = np.all(np.abs(z - z[..., target_index, None]) <= DUPLICATE_TOL, axis=-2)
    delta_all = np.where(dup, np.nan, sims[..., target_index, None] - sims)
    # fmin skips the NaN at duplicates, as nanmin does, without its all-NaN warning.
    return delta_all, np.fmin.reduce(delta_all, axis=-1), dup.sum(axis=-1)


def beta_coefficient(c, m, t):
    """beta = 1 - (1 + c(M-t)/t)^{-1} + c(M-t), elementwise over arrays.  A NaN
    or negative c raises ValueError; an infinite c is valid and gives an
    infinite beta (at t < M)."""
    if np.any(t <= 0):
        raise ValueError(f"t must be positive, got {t}")
    if np.any(m < t):
        raise ValueError(f"M={m} smaller than duplicate count t={t}")
    if not np.all(c >= 0):
        raise ValueError(f"c must be nonnegative, got {c}")
    with np.errstate(over="ignore", invalid="ignore"):
        x = c * (m - t) / t
        return np.where(m == t, 0.0, 1.0 - 1.0 / (1.0 + x) + c * (m - t))[()]


@np.errstate(over="ignore")
def _bound_columns(gamma, m: int, t, delta_min, instance_error, z_max_norm, realized_error) -> dict:
    """The columns ``_COLUMNS`` of the rows of the array arguments (delta_min NaN where t = M, which gives
    c = 0); c = exp(-gamma delta_min) by ``math.exp``."""
    c = []
    for e in (-gamma * delta_min).tolist():
        # delta_min < 0 can push c past the float range: the bound is then infinite but valid.
        try:
            c.append(0.0 if math.isnan(e) else math.exp(e))
        except OverflowError:
            c.append(math.inf)
    c = np.array(c)
    beta = beta_coefficient(c, m, t)
    upper_bound = instance_error + beta * z_max_norm
    return dict(zip(_COLUMNS, (t, delta_min, c, instance_error, beta, z_max_norm, upper_bound, realized_error)))


@np.errstate(over="ignore")
def _verify_rows(u, z, v, u_star, gamma: float, target_index: int):
    """The verifier core on a batch: u (B, d_q), z (B, d_q, M), v (B, M, d_q), u_star (B, d_q).  Returns
    (columns, fault): fault is None or (row, exception) of the first failing row, and columns maps each
    name of ``_COLUMNS`` to an array over the rows before that row (over every row when fault is None)."""
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    with np.errstate(invalid="ignore"):  # inf - inf in overflowing scores: flagged below
        sims = (u[:, None, :] @ z)[:, 0, :]
    # Bad input: the first row with a non-finite u, z, v or u_star, or with finite ones whose scores overflow.
    ok = [np.isfinite(a).all(axis=tuple(range(1, a.ndim))) for a in (u, z, v, u_star, sims)]
    n = int(np.append(np.logical_and.reduce(ok), False).argmin())
    names = ", ".join(name for name, rows in zip(("u", "z", "v", "u_star"), ok) if n < len(u) and not rows[n])
    fault = None if n == len(u) else (n, ValueError(f"{names} not finite: the verifier takes finite input" if names
                                                    else "scores u z are not finite: finite inputs overflow float64"))
    u, z, v, u_star, sims = u[:n], z[:n], v[:n], u_star[:n], sims[:n]
    _, delta_min, t = _margins(sims, z, target_index)
    dz = u_star - z[..., target_index]
    instance_error = np.sqrt(_row_dot(dz, dz))
    z_max_norm = np.linalg.norm(z, axis=1).max(axis=1)
    d_eps = retrieval_update(u, z, v, gamma)[1] - u_star
    eps = np.sqrt(_row_dot(d_eps, d_eps))
    # A norm that overflows is bad input; a NaN is left to the violation check.
    norms_ok = (np.stack([instance_error, z_max_norm, eps]) != math.inf).all(axis=0)
    k = int(np.append(norms_ok, False).argmin())
    if k < n:
        fault = (k, ValueError(f"norms are not finite: ||dz||={instance_error[k]}, "
                               f"||z_max||={z_max_norm[k]}, eps={eps[k]}"))
    eps, m = eps[:k], z.shape[-1]
    columns = _bound_columns(gamma, m, t[:k], delta_min[:k], instance_error[:k], z_max_norm[:k], eps)
    ub = columns["upper_bound"]
    i = int(np.append(~np.isfinite(eps) | np.isnan(ub) | (eps > ub + 1e-9 * (1.0 + ub)), True).argmax())
    if i < k:
        t_i, *rest = (a[i].item() for a in columns.values())
        fault = (i, BoundViolationError(dict(zip(BOUND_CSV_COLUMNS[1:], (m, t_i, float(gamma), *rest)))))
    return {name: a[:i] for name, a in columns.items()}, fault


def verify_patterns(u, z, v, u_star, gamma: float, target_index: int) -> dict:
    """Run the retrieval and check the realized error against its upper bound.

    u (..., d_q), z (..., d_q, M) and v (..., M, d_q) are as in
    ``retrieval_update``, read as float64; u_star, shaped as u, is the ground
    truth: dz = u*^T - z_target.  Returns the columns ``_COLUMNS``, each shaped
    as u's leading axes (0-d for one instance).  A violation raises
    ``BoundViolationError`` carrying the failing row, with relative slack 1e-9
    for softmax rounding.  Shapes that do not match, a non-finite u, z, v or
    u_star, or a score or norm that overflows, raise ValueError; a NaN error or
    bound is a violation; an infinite bound (infinite c) holds for any finite
    error.  A batch raises the error of its first failing row, as a loop would.
    """
    u, z, v, u_star = (np.asarray(a, dtype=np.float64) for a in (u, z, v, u_star))
    if u.ndim == 0:
        raise ValueError("query pattern u must have at least one axis, got shape ()")
    lead, d_q, m = u.shape[:-1], u.shape[-1], z.shape[-1] if z.ndim else 0
    for name, a, shape in (("z", z, (*lead, d_q, m)), ("v", v, (*lead, m, d_q)), ("u_star", u_star, u.shape)):
        if a.shape != shape:
            raise ValueError(f"{name} shape {a.shape} != {shape} for query pattern shape {u.shape}")
    columns, fault = _verify_rows(u.reshape(-1, d_q), z.reshape(-1, d_q, m), v.reshape(-1, m, d_q),
                                  u_star.reshape(-1, d_q), gamma, target_index)
    if fault is not None:
        raise fault[1]
    return {name: a.reshape(lead) for name, a in columns.items()}


def verify_bound(model: ContextualHopfield, ctx: ContextSet, query: QueryState, u_star, target_index: int):
    """``verify_patterns`` on the patterns of a model, a context set and a query."""
    z, v = ctx.patterns(model), _finite_product(ctx.lam.T, model.xi_k, "entries of V = lam^T xi_k")
    return verify_patterns(query.u, z, v, u_star, model.gamma, target_index)

