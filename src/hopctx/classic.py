"""Classic binary Hopfield network: Hebbian storage, sign updates, energy descent."""

import numpy as np

__all__ = ["ClassicHopfield", "classic_store", "classic_update", "classic_energy"]


def _check_binary(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected 1-D state vector, got shape {v.shape}")
    if not np.all(np.abs(v) == 1.0):
        raise ValueError("state entries must be -1 or +1")
    return v


class ClassicHopfield:
    """Binary associative memory with Hebbian weights.

    Storage: W = (1/N) sum_mu m^mu (m^mu)^T, zero diagonal.
    Update:  s_i = sign(sum_j W_ij s_j), ties keep the current state.
    Energy:  E(s) = -1/2 s^T W s, non-increasing under sequential updates.
    """

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError("weights must be a square matrix")
        if not np.array_equal(weights, weights.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(weights) != 0.0):
            raise ValueError("weights must have zero diagonal")
        self.weights = weights
        self.neuron_count = weights.shape[0]


def _sign(h, s):
    """+1 or -1 by the sign of the local field h; s where h is exactly 0."""
    return np.where(h > 0, 1.0, np.where(h < 0, -1.0, s))


def classic_store(patterns) -> ClassicHopfield:
    """Build a network storing the given +/-1 patterns via the Hebbian rule."""
    patterns = [_check_binary(p) for p in patterns]
    if not patterns:
        raise ValueError("need at least one pattern to store")
    n = patterns[0].shape[0]
    for p in patterns:
        if p.shape[0] != n:
            raise ValueError(f"pattern length {p.shape[0]} != {n}")
    m = np.stack(patterns)
    w = m.T @ m / n  # exact: every entry is a sum of +/-1 products
    np.fill_diagonal(w, 0.0)
    return ClassicHopfield(w)


def classic_energy(net: ClassicHopfield, state) -> float:
    """E(s) = -1/2 s^T W s."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (net.neuron_count,):
        raise ValueError(f"state shape {state.shape} does not match N={net.neuron_count}")
    return float(-0.5 * state @ net.weights @ state)


def classic_update(
    net: ClassicHopfield,
    state,
    schedule: str = "sequential",
    max_sweeps: int = 100,
) -> tuple[np.ndarray, bool]:
    """Iterate the sign update rule until a fixed point or the sweep budget.

    ``sequential`` visits neurons in index order 0..N-1 within each sweep and
    guarantees non-increasing energy; ``synchronous`` updates all neurons at
    once with no descent guarantee.  A local field of exactly zero keeps the
    current neuron state, so stored fixed points stay fixed.
    Returns (final_state, converged).
    """
    state = _check_binary(state).copy()
    if state.shape[0] != net.neuron_count:
        raise ValueError(f"state length {state.shape[0]} != N={net.neuron_count}")
    if schedule not in ("sequential", "synchronous"):
        raise ValueError(f"unknown schedule {schedule!r}")
    w = net.weights
    for _ in range(max_sweeps):
        start = state.copy()
        if schedule == "sequential":
            for i in range(net.neuron_count):
                state[i] = _sign(w[i] @ state, state[i])
        else:
            state = _sign(w @ state, state)
        if np.array_equal(state, start):
            return state, True
    return state, False
