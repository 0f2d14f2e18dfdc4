"""Routing and road importance under probabilistic blockage.

A traveler crosses a road network in which some edges may be blocked;
whether an edge is blocked is only revealed when the traveler first
stands at one of its endpoints. The package provides

- exact expected travel time under the optimal replanning policy,
  by expectimax over belief states (``exact_expected_time``),
- seeded Monte Carlo simulation of optimal, replanning greedy, and
  fixed route policies (``simulate_policy``),
- blockage conditioned road importance: how much the expected journey
  lengthens when a road turns out blocked rather than open
  (``canadian_betweenness``), with a geodesic betweenness baseline,
- elicitation of a normal prior on logistic blockage model
  coefficients from expert stated probabilities (``fit_prior``).
"""

from .blockage import (
    BlockageModel,
    CovariateMatrix,
    EdgeState,
    Realization,
    blockage_probabilities,
    sample_realization,
)
from .centrality import (
    CbcResult,
    CentralityTable,
    canadian_betweenness,
    canadian_betweenness_all,
    geodesic_scores,
    write_centrality_csv,
)
from .elicit import (
    BetaPrior,
    BetaSample,
    LogitVector,
    fit_prior,
    inverse_logit,
    logit,
    logits_from_probabilities,
    mix_experts,
    mixture_moments,
    pushforward_probabilities,
    sample_beta,
)
from .errors import (
    BadRoute,
    CtprouteError,
    DimensionMismatch,
    DomainError,
    IncompatibleOptions,
    NotPSD,
    ParseError,
    RankDeficient,
    TooManyUncertainEdges,
    UnknownEdge,
    UnknownNode,
    ValidationError,
)
from .network import (
    Edge,
    RoadNetwork,
    dump_network,
    load_network,
    parse_graph_document,
    shortest_path,
)
from .traveler import (
    ExpectedTime,
    FixedRoutePolicy,
    KnowledgeState,
    OptimalPolicy,
    Policy,
    ReplanGreedyPolicy,
    TravelTimeDistribution,
    default_failure_cost,
    evaluate_policy_exact,
    exact_expected_time,
    make_policy,
    optimal_action,
    simulate_policy,
    walk_policy,
)

__version__ = "0.1.0"

__all__ = [
    "BadRoute",
    "BetaPrior",
    "BetaSample",
    "BlockageModel",
    "CbcResult",
    "CentralityTable",
    "CovariateMatrix",
    "CtprouteError",
    "DimensionMismatch",
    "DomainError",
    "Edge",
    "EdgeState",
    "ExpectedTime",
    "FixedRoutePolicy",
    "IncompatibleOptions",
    "KnowledgeState",
    "LogitVector",
    "NotPSD",
    "OptimalPolicy",
    "ParseError",
    "Policy",
    "RankDeficient",
    "Realization",
    "ReplanGreedyPolicy",
    "RoadNetwork",
    "TooManyUncertainEdges",
    "TravelTimeDistribution",
    "UnknownEdge",
    "UnknownNode",
    "ValidationError",
    "blockage_probabilities",
    "canadian_betweenness",
    "canadian_betweenness_all",
    "default_failure_cost",
    "dump_network",
    "evaluate_policy_exact",
    "exact_expected_time",
    "fit_prior",
    "geodesic_scores",
    "inverse_logit",
    "load_network",
    "logit",
    "logits_from_probabilities",
    "make_policy",
    "mix_experts",
    "mixture_moments",
    "optimal_action",
    "parse_graph_document",
    "pushforward_probabilities",
    "sample_beta",
    "sample_realization",
    "shortest_path",
    "simulate_policy",
    "walk_policy",
    "write_centrality_csv",
]
