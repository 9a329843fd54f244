"""Contextual retrieval from Hopfield-style associative memory.

Core pieces: a classic binary Hopfield network, continuous retrieval over
dynamic context vectors (equivalent to single-head softmax attention), a
proven upper bound on the retrieval error and its verifier, exemplar
selection strategies for in-context prediction, synthetic tasks with local
and remote completion oracles, and seeded experiment runners behind a CLI.
"""

from .classic import *
from .retrieval import *
from .bounds import *
from .selection import *
from .tasks import *
from .experiments import *

__version__ = "0.1.0"
