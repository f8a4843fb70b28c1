"""Bend-bounded rectilinear-path (VPG) representations of graphs."""

from .errors import (
    ConstructionError,
    DegenerateTrimError,
    DomainError,
    GeometryError,
    GraphError,
    ParameterError,
    ValidationError,
    VpgError,
)
from .geometry import (
    HORIZONTAL,
    VERTICAL,
    Point,
    RectPath,
    Segment,
    bend_count,
    rational,
)
from .graphs import (
    Graph,
    SplitPartition,
    build_hnk_member,
    build_split_knk,
    check_split_partition,
    complement,
    contract_edge,
    has_long_induced_cycle,
    ksubsets,
)
from .posets import (
    LinearOrder,
    Poset,
    Realizer,
    brute_force_dimension,
    build_p_rsn,
    cocomparability_graph,
    find_realizer,
    is_realizer,
    pivot_element,
)
from .representation import (
    VpgRepresentation,
    intersection_graph,
    is_proper,
    max_bends,
    trim_independent_path,
    verify_realizes,
)
from .constructors import (
    HamiltonianDecomposition,
    SquareRegionLayout,
    construct_gtm_stairs,
    construct_k2n_proper,
    construct_k3n_proper,
    construct_split_upper,
    hamiltonian_decomposition,
    sequences_from_cycles,
)
from .lowerbound import (
    GoodKSet,
    InducedGrid,
    bend_lb_certificate,
    build_auxiliary_fh_fv,
    classify_sh_sv,
    count_good_sets_vs_bound,
    enumerate_good_sets,
    find_far_kset,
    induced_grid,
    is_planar,
    kset_distance,
    validate_counting,
)
from .oracle import GridSearchBudget, search_representation

__version__ = "0.1.0"
