"""Bend-bounded rectilinear-path (VPG) representations of graphs.

Every public name is imported from its module on first use (PEP 562), so
`import vpgbend` loads no submodule and a command loads only what it runs.
"""

# the public names of each submodule; a submodule's own name is public too
_EXPORTS = {
    "errors": ("ConstructionError", "DegenerateTrimError", "DomainError", "GeometryError",
               "GraphError", "ParameterError", "ValidationError", "VpgError"),
    "geometry": ("HORIZONTAL", "VERTICAL", "Point", "RectPath", "Segment", "bend_count", "rational"),
    "graphs": ("Graph", "SplitPartition", "build_hnk_member", "build_split_knk",
               "check_split_partition", "complement", "contract_edge", "has_long_induced_cycle",
               "ksubsets"),
    "posets": ("LinearOrder", "Poset", "Realizer", "brute_force_dimension", "build_p_rsn",
               "cocomparability_graph", "find_realizer", "is_realizer", "pivot_element"),
    "representation": ("VpgRepresentation", "intersection_graph", "is_proper", "max_bends",
                       "trim_independent_path", "verify_realizes"),
    "constructors": ("HamiltonianDecomposition", "SquareRegionLayout", "construct_gtm_stairs",
                     "construct_k2n_proper", "construct_k3n_proper", "construct_split_upper",
                     "hamiltonian_decomposition", "sequences_from_cycles"),
    "planarity": ("is_planar",),
    "lowerbound": ("GoodKSet", "InducedGrid", "bend_lb_certificate", "build_auxiliary_fh_fv",
                   "classify_sh_sv", "count_good_sets_vs_bound", "enumerate_good_sets",
                   "find_far_kset", "induced_grid", "kset_distance", "validate_counting"),
    "oracle": ("GridSearchBudget", "search_representation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the submodule in this namespace, as a plain
    # `import vpgbend.x` does, and -X importtime lists it
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    value = module if home == name else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
