"""Exact graph-polynomial computation, prime-field point counting, and
executable verification of the induced deletion-contraction class identities.
"""

from .counting import (
    BudgetExceededError,
    ConsistencyError,
    CountOptions,
    CountRecord,
    DEFAULT_BUDGET,
    NotRegularEdgeError,
    count_graph,
    count_poly,
    count_Z,
    shared_counts,
    sweep_zero_patterns,
)
from .families import FamilySpec, catalog_by_name, generate_family, standard_catalog
from .graphs import (
    Edge,
    EdgeKind,
    GraphError,
    GraphParseError,
    LoopContractionError,
    Multigraph,
    UnknownLabelError,
    betti_1,
    canonical_relabel,
    classify_edge,
    component_count,
    contract_edge,
    delete_edge,
    disjoint_union,
    edge_census,
    graph_id,
    has_non_loop_edge,
    is_forest,
)
from .motive import (
    ClassPoly,
    CongruenceVerdict,
    InsufficientPrimesError,
    NotPolynomiallyConsistent,
    check_modL_congruence,
    check_projective_congruence,
    dc_identity_check,
    dc_identity_matrix,
    hodge_form,
    interpolate_class,
    predicted_sb_constant,
)
from .primes import NotPrimeError, first_primes, is_prime, require_primes
from .symanzik import (
    MultilinearPoly,
    NonMultilinearError,
    psi_by_deletion_contraction,
    psi_by_trees,
)

__version__ = "0.1.0"
