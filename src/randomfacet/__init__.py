"""Pivoting-rule engines for single-target shortest paths.

The package implements two simplex-style pivoting recursions on tree
policies, computes their exact expected pivot counts, analyses the
permutation posteriors that make the two rules differ, and ships a
three-vertex counterexample instance on which the difference goes both
ways depending on the start tree.
"""
from .algorithms import (
    RF,
    RF_STAR,
    CallKind,
    Permutation,
    PivotEvent,
    RunResult,
    format_trace,
    run_random_facet,
    run_random_facet_star,
)
from .comptree import CompNode, CompTree, comptree
from .cube import CubeEncoding, OrientationView, cube_encoding, orientation_view
from .errors import (
    ConditioningOnEmptySet,
    DanglingVertex,
    EnumerationBoundExceeded,
    GenerationFailedAfterRetries,
    NegativeCycle,
    NonGenericInstance,
    NoTreeInSubset,
    NotACubeVertex,
    NotATree,
    NotCubeShaped,
    NotImproving,
    ParseError,
    PermutationDomainTooSmall,
    RandomFacetError,
    SearchExhausted,
    StateBudgetExceeded,
    TargetHasOutEdges,
    TooLargeForExhaustiveCheck,
    UniverseTooLarge,
    WriteError,
    ZeroTrials,
)
from .exact import ExactEvaluator, expected_pivots_rf, expected_pivots_rf_star
from .graph import (
    DistanceMap,
    Edge,
    EdgeId,
    Instance,
    TreePolicy,
    edge_names,
    improves,
    optimal_is_unique,
    optimal_tree,
    pivot,
    subgraph_distances,
    tree_distances,
    validate_instance,
)
from .instances import (
    derive_errata_instance,
    dumps_instance,
    errata_candidates,
    errata_instance,
    genericity_check,
    load_instance,
    loads_instance,
    random_instance,
    save_instance,
)
from .montecarlo import Estimate, estimate_expected_pivots, pivot_samples, trial_rng
from .orders import (
    ConstraintSet,
    conditional_order_probability,
    count_linear_extensions,
)

__version__ = "0.1.0"
