"""Continuous associative retrieval over dynamic context vectors.

The model keeps two projection matrices: one maps a raw query vector into
pattern space, the other maps context vectors into the same space.  Retrieval
scores the query pattern against every context pattern by dot product,
separates the scores with a softmax at inverse temperature gamma, and returns
the weight-averaged context pattern.  With an extra value map the same
computation is exactly single-head softmax attention.

Conventions (fixed throughout the package): sigma and u are row vectors;
context vectors are the columns of ``lam``; context patterns z_i are the
columns of Z = xi_k^T lam.  All arithmetic is float64.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContextualHopfield",
    "ContextSet",
    "QueryState",
    "RetrievalResult",
    "AttentionView",
    "softmax",
    "retrieval_update",
    "hnc_retrieve",
    "attention_view",
]


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@np.errstate(over="ignore", invalid="ignore")
def _finite_product(a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """a @ b, or a ValueError naming the product where finite factors overflow
    float64 (an inf entry, or inf - inf = NaN), raised before anything warns."""
    out = a @ b
    if not np.isfinite(out).all():
        raise ValueError(f"{name} are not finite: finite inputs overflow float64")
    return out


@np.errstate(over="ignore")
def softmax(scores: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """softmax(gamma * scores) along the last axis, shifted before scaling.

    exp(gamma * (s - max s)) has exponents <= 0, so for finite scores and a
    finite gamma > 0 the weights are finite and sum to 1; a gap that
    overflows to -inf gets weight 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    e = gamma * (scores - scores.max(axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


@dataclass(frozen=True)
class ContextualHopfield:
    """Retrieval model: projections ``xi_q``/``xi_k`` (d_m x d_q), value map
    ``w_v`` (d_q x d_q, identity by default) and inverse temperature ``gamma``.
    """

    xi_q: np.ndarray
    xi_k: np.ndarray
    gamma: float = 1.0
    w_v: np.ndarray | None = None

    def __post_init__(self):
        xi_q = _as_matrix(self.xi_q, "xi_q")
        xi_k = _as_matrix(self.xi_k, "xi_k")
        if xi_q.shape != xi_k.shape:
            raise ValueError(f"xi_q shape {xi_q.shape} != xi_k shape {xi_k.shape}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        w_v = np.eye(xi_q.shape[1]) if self.w_v is None else _as_matrix(self.w_v, "w_v")
        if w_v.shape != (xi_q.shape[1], xi_q.shape[1]):
            raise ValueError(f"w_v shape {w_v.shape} incompatible with d_q={xi_q.shape[1]}")
        object.__setattr__(self, "xi_q", xi_q)
        object.__setattr__(self, "xi_k", xi_k)
        object.__setattr__(self, "w_v", w_v)
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def d_m(self) -> int:
        return self.xi_q.shape[0]

    @property
    def d_q(self) -> int:
        return self.xi_q.shape[1]

    @classmethod
    def identity(cls, d: int, gamma: float = 1.0, w_v: np.ndarray | None = None) -> "ContextualHopfield":
        """Model with identity projections: pure associative completion in d dims."""
        eye = np.eye(d)
        return cls(xi_q=eye, xi_k=eye, gamma=gamma, w_v=w_v)


@dataclass(frozen=True)
class ContextSet:
    """M context vectors as the columns of ``lam`` (d_m x M)."""

    lam: np.ndarray

    def __post_init__(self):
        lam = _as_matrix(self.lam, "lam")
        if lam.shape[1] < 1:
            raise ValueError("context set must contain at least one vector")
        object.__setattr__(self, "lam", lam)

    @property
    def m(self) -> int:
        return self.lam.shape[1]

    @classmethod
    def from_vectors(cls, vectors) -> "ContextSet":
        return cls(np.column_stack([np.asarray(v, dtype=np.float64) for v in vectors]))

    def patterns(self, model: ContextualHopfield) -> np.ndarray:
        """Z = xi_k^T lam; column i is context pattern z_i."""
        if self.lam.shape[0] != model.d_m:
            raise ValueError(f"context dimension {self.lam.shape[0]} != d_m={model.d_m}")
        return _finite_product(model.xi_k.T, self.lam, "entries of Z = xi_k^T lam")


@dataclass(frozen=True)
class QueryState:
    """Raw query ``sigma`` plus its pattern u = sigma xi_q."""

    sigma: np.ndarray
    u: np.ndarray

    @classmethod
    def from_sigma(cls, sigma, model: ContextualHopfield) -> "QueryState":
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != (model.d_m,):
            raise ValueError(f"sigma shape {sigma.shape} != (d_m={model.d_m},)")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("sigma contains non-finite entries")
        return cls(sigma=sigma, u=_finite_product(sigma, model.xi_q, "entries of u = sigma xi_q"))


@dataclass(frozen=True)
class RetrievalResult:
    """One retrieval step: softmax weights and the updated pattern."""

    u_new: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class AttentionView:
    """The same retrieval written as attention: output = softmax(gamma Q K^T) V."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    output: np.ndarray


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a (..., n) with its row of b, their leading
    axes broadcast, as a stacked one-row matmul: it reaches the same BLAS
    ``ddot`` as a 1-D ``a[i] @ b[i]`` and so matches it bit for bit
    (``einsum`` and ``(a * b).sum(-1)`` sum in another order)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def retrieval_update(u: np.ndarray, z: np.ndarray, v: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The retrieval update for one query pattern u (d_q,) or a batch of rows.

    weights = softmax(u z) at inverse temperature gamma (shifted before
    scaling, so finite where gamma * u z overflows) and u_new = weights v, a
    convex combination of context patterns.  z (d_q x M) holds the context
    patterns as columns and v (M x d_q) the same patterns as rows.  Returns
    (weights, u_new).  Scores u z that overflow float64 raise ValueError.

    v is its own argument, not ``z.T``: callers pass the rows computed as
    such (lam^T xi_k), which can differ from (xi_k^T lam)^T in the last bit,
    and a C-contiguous v, since a transposed view reaches BLAS by another
    path.  Both products are stacked one-row matmuls, so every row of a batch
    makes the same BLAS call as a 1-D u and a row's bits do not depend on how
    many rows share the call.  The one formula serves every M.
    """
    weights = softmax(_finite_product(u[..., None, :], z, "scores u z")[..., 0, :], gamma)
    return weights, (weights[..., None, :] @ v)[..., 0, :]


def hnc_retrieve(model: ContextualHopfield, ctx: ContextSet, query: QueryState) -> RetrievalResult:
    """Apply the retrieval update (``retrieval_update``) to the query pattern."""
    z = ctx.patterns(model)
    if query.sigma.shape != (model.d_m,):
        raise ValueError(f"query dimension {query.sigma.shape} != d_m={model.d_m}")
    v = _finite_product(ctx.lam.T, model.xi_k, "entries of V = lam^T xi_k")
    weights, u_new = retrieval_update(query.u, z, v, model.gamma)
    return RetrievalResult(u_new=u_new, weights=weights)


def attention_view(model: ContextualHopfield, ctx: ContextSet, query: QueryState) -> AttentionView:
    """Build the attention matrices and output for one retrieval.

    Q = sigma xi_q, K = lam^T xi_k, V = lam^T xi_k w_v; the output equals
    hnc_retrieve(...).u_new @ w_v up to floating-point roundoff.
    """
    if ctx.lam.shape[0] != model.d_m:
        raise ValueError(f"context dimension {ctx.lam.shape[0]} != d_m={model.d_m}")
    q = _finite_product(query.sigma, model.xi_q, "entries of Q = sigma xi_q")
    k = _finite_product(ctx.lam.T, model.xi_k, "entries of K = lam^T xi_k")
    v = _finite_product(k, model.w_v, "entries of V = K w_v")
    weights = softmax(_finite_product(q, k.T, "scores Q K^T"), model.gamma)
    return AttentionView(q=q, k=k, v=v, output=weights @ v)
