"""Critical threshold values of simple games, computed exactly.

The threshold value measures how far a simple game is from admitting weights
and a quota: it is the smallest worst-case payoff a losing coalition can be
held to while every winning coalition receives at least 1.  This package
computes it as an exact rational with witnesses, certifies minimum-norm
payoffs, analyses complete games through their desirability order, and runs
the graph algorithms for games whose minimal winning coalitions are edges.
"""

from .alpha import (
    AlphaCertificate,
    alpha_of_payoff,
    compute_alpha_exact,
    is_weighted,
    verify_conjecture_corpus,
)
from .complete import (
    CompleteGame,
    CsgPayoffReport,
    complete_order,
    csg_bound_corpus,
    csg_payoff,
    desirability_ge,
    random_weighted_voting_game,
    suffix_sizes,
)
from .errors import BudgetExceededError, CertificateError, UndefinedRatioError
from .games import (
    Coalition,
    SimpleGame,
    blocker,
    cycle_game,
    game_from_json,
    game_to_json,
    is_winning,
    maximal_losing,
    new_game,
    random_game,
)
from .graphs import (
    AlphaDecision,
    Graph,
    WeightedVertexSet,
    alpha_graph,
    build_gadget,
    cycle_graph,
    decide_alpha_at_most,
    enumerate_mis,
    find_induced_kp2,
    graph_from_json,
    graph_to_json,
    graphic_game,
    make_graph,
    mwis_bipartite,
    mwis_exact,
)
from .lp import LinearProgram, LPRow, LPSolution, in_convex_hull, solve_lp
from .minnorm import (
    MinNormCertificate,
    PayoffVector,
    is_feasible,
    min_norm_point,
    strengthened_bound,
    tightness_check,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaCertificate",
    "AlphaDecision",
    "BudgetExceededError",
    "CertificateError",
    "Coalition",
    "CompleteGame",
    "CsgPayoffReport",
    "Graph",
    "LPRow",
    "LPSolution",
    "LinearProgram",
    "MinNormCertificate",
    "PayoffVector",
    "SimpleGame",
    "UndefinedRatioError",
    "WeightedVertexSet",
    "alpha_graph",
    "alpha_of_payoff",
    "blocker",
    "build_gadget",
    "complete_order",
    "compute_alpha_exact",
    "csg_bound_corpus",
    "csg_payoff",
    "cycle_game",
    "cycle_graph",
    "decide_alpha_at_most",
    "desirability_ge",
    "enumerate_mis",
    "find_induced_kp2",
    "game_from_json",
    "game_to_json",
    "graph_from_json",
    "graph_to_json",
    "graphic_game",
    "in_convex_hull",
    "is_feasible",
    "is_weighted",
    "is_winning",
    "make_graph",
    "maximal_losing",
    "min_norm_point",
    "mwis_bipartite",
    "mwis_exact",
    "new_game",
    "random_game",
    "random_weighted_voting_game",
    "solve_lp",
    "strengthened_bound",
    "suffix_sizes",
    "tightness_check",
    "verify_conjecture_corpus",
]
