"""Exact two-terminal reliability of binary-state networks.

Three interchangeable backends compute the probability that the source
node communicates with the sink node when every arc fails independently:

``reliability_oracle``
    Enumeration of all arc-state vectors; high-half states that split
    the low arcs' ends and the terminals alike share one low-half sweep.
    Connected vectors are added in integer order, bit-identical to a
    per-vector sweep; the reference the other backends are checked against.
``reliability_quick_bat``
    Prefix enumeration with closed-form head and tail zones; skips the
    bulk of the vector space on well-connected networks.
``reliability_qb2``
    Cuts the network into stages along a shortest source-sink path,
    tabulates source-target connectivity matrices per stage, and folds
    them by convolution. Exact, and exponential only in the widest
    stage.
"""

from .bat import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    reliability_oracle,
)
from .bench import BACKENDS, crosscheck, run_backend
from .budget import Budget, BudgetExceeded
from .decompose import Decomposition, Stage, decompose, explain_decomposition
from .generators import FAMILIES, GeneratorSpec, build, random_network
from .network import (
    Arc,
    Network,
    NetworkError,
    NetworkInvariantError,
    NetworkSyntaxError,
    format_network,
    make_network,
    network_digest,
    parse_network,
)
from .quickbat import QuickBatStats, first_connected, last_disconnected, reliability_quick_bat
from .stm import Counters, SourceTargetMatrix, reliability_qb2

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BACKENDS",
    "Budget",
    "BudgetExceeded",
    "Counters",
    "DEFAULT_ENUMERATION_CAP",
    "Decomposition",
    "EnumerationCapExceeded",
    "FAMILIES",
    "GeneratorSpec",
    "Network",
    "NetworkError",
    "NetworkInvariantError",
    "NetworkSyntaxError",
    "QuickBatStats",
    "SourceTargetMatrix",
    "Stage",
    "build",
    "crosscheck",
    "decompose",
    "explain_decomposition",
    "first_connected",
    "format_network",
    "last_disconnected",
    "make_network",
    "network_digest",
    "parse_network",
    "random_network",
    "reliability_oracle",
    "reliability_qb2",
    "reliability_quick_bat",
    "run_backend",
]
