"""Contextual retrieval from Hopfield-style associative memory.

Core pieces: a classic binary Hopfield network, continuous retrieval over
dynamic context vectors (equivalent to single-head softmax attention), a
proven upper bound on the retrieval error with inspection tools, exemplar
selection strategies for in-context prediction, synthetic tasks with local
and remote completion oracles, and seeded experiment runners behind a CLI.
"""

from .classic import ClassicHopfield, classic_energy, classic_store, classic_update
from .retrieval import (
    AttentionView,
    ContextSet,
    ContextualHopfield,
    QueryState,
    RetrievalResult,
    attention_view,
    hnc_retrieve,
    softmax,
)
from .bounds import (
    BoundReport,
    BoundViolationError,
    SeparationReport,
    beta_coefficient,
    error_bound,
    separation,
    verify_bound,
)
from .selection import (
    Exemplar,
    ExemplarPool,
    active_select,
    estimate_pool_values,
    random_select,
)
from .tasks import (
    AssociativeOracle,
    OracleFailure,
    RemoteOracle,
    TaskSpec,
    cosine_score,
    exact_match,
    generate_pool,
    get_score_fn,
    make_benchmark_task,
    make_task,
    negative_error,
)
from .experiments import (
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    run_bound_sweep,
    run_k_study,
    run_strategy_comparison,
)

__version__ = "0.1.0"
