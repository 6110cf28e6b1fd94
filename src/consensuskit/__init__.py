"""consensuskit: adaptive guaranteed-performance consensus toolkit.

Synthesizes distributed protocol gains for high-order linear multiagent
systems from translated Riccati conditions, simulates the adaptive
leaderless and leader-follower protocols, and certifies the realized
quadratic cost against its guaranteed bound.

The package re-exports every name in the ``__all__`` of ``graph``,
``matops``, ``synthesis``, ``sim`` and ``verify``.
"""

from . import graph, matops, sim, synthesis, verify
from .graph import *
from .matops import *
from .synthesis import *
from .sim import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*graph.__all__, *matops.__all__, *synthesis.__all__, *sim.__all__, *verify.__all__, "__version__"]
