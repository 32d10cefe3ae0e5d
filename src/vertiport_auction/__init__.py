"""Incentive-compatible vertiport reservation auctions.

Welfare-maximizing route allocation over a time-expanded flow network,
with externality payments computed via pseudo-bids and a brute-force
oracle for independent verification.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Aircraft,
    Allocation,
    Instance,
    Operator,
    Profile,
    RouteOption,
    Vertiport,
    is_feasible,
    social_welfare,
    utility,
    validate_instance,
)
from .graph import AuxGraph, build_graph  # noqa: F401
from .solver import SolveResult, optimal_allocation, solve  # noqa: F401
from .mechanism import MechanismOutcome, run_auction  # noqa: F401
from .oracle import EnumerationBudget, oracle_optimal, oracle_payment  # noqa: F401
from .serialize import InstanceDocument, parse, render  # noqa: F401
from .generator import GeneratorConfig, generate  # noqa: F401
