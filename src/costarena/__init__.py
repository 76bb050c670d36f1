"""costarena: exact analysis of cost-sharing games with set-dependent
resource costs.

Models are players choosing resource subsets; each resource's cost depends
on the set of players using it and is split by a cost-sharing protocol
(Shapley, generalized weighted Shapley, or explicit tables). Everything is
computed in exact rational arithmetic: equilibria, social optima, prices
of anarchy and stability, potential values, and the worst-case network
generators.

Each question has one entry point: shares are asked of a ``Protocol``
instance (``share`` / ``shares``), and the equilibria, their costs, the
optimum and both ratios of a game come from one ``analyze`` call. The
numbers of one profile (``potential``, ``private_cost(s)``,
``social_cost``) are views of the same compiled kernel.
"""

from .core import (
    GameModel,
    MAX_PLAYERS,
    MAX_SCALE_BITS,
    Profile,
    SetCostFunction,
    CapExceededError,
    ValidationError,
    classify,
    is_anonymous,
    users_of,
)
# first, so that the function ``potential`` below takes over the submodule's name
from .potential import harmonic
from .equilibrium import (
    AnalysisReport,
    BrdResult,
    BrdStep,
    analyze,
    best_response,
    best_response_dynamics,
    is_pne,
    potential,
    potential_minimizer,
    private_cost,
    private_costs,
    social_cost,
    social_optimum,
)
from .gadgets import (
    GadgetReport,
    GadgetSpec,
    build_poa_unbounded,
    build_pos_linear,
    build_pos_nharmonic,
    verify_gadget,
)
from .network import Edge, NetworkModel, to_game
from .protocols import (
    GeneralizedWeightedShapley,
    Protocol,
    ProtocolError,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
    check_budget_balance,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BrdResult",
    "BrdStep",
    "CapExceededError",
    "Edge",
    "GadgetReport",
    "GadgetSpec",
    "GameModel",
    "GeneralizedWeightedShapley",
    "MAX_PLAYERS",
    "MAX_SCALE_BITS",
    "NetworkModel",
    "Profile",
    "Protocol",
    "ProtocolError",
    "SetCostFunction",
    "ShapleyProtocol",
    "TableProtocol",
    "ValidationError",
    "WeightSystem",
    "analyze",
    "best_response",
    "best_response_dynamics",
    "build_poa_unbounded",
    "build_pos_linear",
    "build_pos_nharmonic",
    "check_budget_balance",
    "classify",
    "harmonic",
    "is_anonymous",
    "is_pne",
    "potential",
    "potential_minimizer",
    "private_cost",
    "private_costs",
    "social_cost",
    "social_optimum",
    "to_game",
    "users_of",
    "verify_gadget",
]
