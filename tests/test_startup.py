"""What a process loads: `import vpgbend` loads no submodule, `verify` only
the modules it runs, and every public name still resolves."""

import subprocess
import sys
import types

import pytest

import vpgbend
from test_cli import _subprocess_env

# the public names of the package, as `dir()` and `from vpgbend import *`
# give them in a fresh process
PUBLIC = [
    "ConstructionError", "DegenerateTrimError", "DomainError", "GeometryError", "GoodKSet",
    "Graph", "GraphError", "GridSearchBudget", "HORIZONTAL", "HamiltonianDecomposition",
    "InducedGrid", "LinearOrder", "ParameterError", "Point", "Poset", "Realizer", "RectPath",
    "Segment", "SplitPartition", "SquareRegionLayout", "VERTICAL", "ValidationError", "VpgError",
    "VpgRepresentation", "bend_count", "bend_lb_certificate", "brute_force_dimension",
    "build_auxiliary_fh_fv", "build_hnk_member", "build_p_rsn", "build_split_knk",
    "check_split_partition", "classify_sh_sv", "cocomparability_graph", "complement",
    "construct_gtm_stairs", "construct_k2n_proper", "construct_k3n_proper",
    "construct_split_upper", "constructors", "contract_edge", "count_good_sets_vs_bound",
    "enumerate_good_sets", "errors", "find_far_kset", "find_realizer", "geometry", "graphs",
    "hamiltonian_decomposition", "has_long_induced_cycle", "induced_grid", "intersection_graph",
    "is_planar", "is_proper", "is_realizer", "kset_distance", "ksubsets", "lowerbound",
    "max_bends", "oracle", "pivot_element", "planarity", "posets", "rational", "representation",
    "search_representation", "sequences_from_cycles", "trim_independent_path", "validate_counting",
    "verify_realizes",
]

SUBMODULES = {"constructors", "errors", "geometry", "graphs", "lowerbound", "oracle", "planarity",
              "posets", "representation"}


def _python(*args, cwd=None):
    """Run this interpreter without site-packages (whose hooks may import
    anything), with this checkout's `src` first on PYTHONPATH; (exit code,
    stdout, stderr)."""
    done = subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env=_subprocess_env(), cwd=cwd)
    return done.returncode, done.stdout, done.stderr


def test_public_names_are_pinned_in_a_fresh_process():
    code = (
        "import sys, vpgbend\n"
        "print(sorted(m for m in sys.modules if m.startswith('vpgbend')))\n"
        "print(sorted(n for n in dir(vpgbend) if not n.startswith('_')))\n"
        "ns = {}\n"
        "exec('from vpgbend import *', ns)\n"
        "print(sorted(n for n in ns if n != '__builtins__'))\n"
    )
    rc, out, err = _python("-c", code)
    assert (rc, err) == (0, "")
    loaded, names, star = out.splitlines()
    assert loaded == "['vpgbend']"
    assert names == star == repr(PUBLIC)


def test_every_public_name_resolves():
    assert sorted(vpgbend.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(vpgbend))
    for name in PUBLIC:
        value = getattr(vpgbend, name)
        if name in SUBMODULES:
            assert isinstance(value, types.ModuleType) and value.__name__ == f"vpgbend.{name}"
        else:  # the object of that name in its own module
            assert any(getattr(getattr(vpgbend, m), name, None) is value for m in SUBMODULES)
    from vpgbend import GoodKSet, Point, is_planar, lowerbound, planarity, posets
    assert Point is vpgbend.geometry.Point and GoodKSet is lowerbound.GoodKSet
    assert is_planar is lowerbound.is_planar is planarity.is_planar
    assert vpgbend.build_p_rsn is posets.build_p_rsn
    assert vpgbend.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'vpgbend' has no attribute 'no_such_name'$"):
        vpgbend.no_such_name


def test_verify_loads_only_its_own_modules(tmp_path):
    assert _python("-m", "vpgbend", "graph", "knk", "--n", "6", "--k", "3", "-o", "g", cwd=tmp_path)[0] == 0
    assert _python("-m", "vpgbend", "construct", "k3n", "--n", "6", "-o", "r", cwd=tmp_path)[0] == 0
    rc, out, err = _python("-X", "importtime", "-m", "vpgbend", "verify", "g", "r", "--proper", cwd=tmp_path)
    assert (rc, out.splitlines()[-1]) == (0, "proper: yes")
    # each line of -X importtime names one module that the process imported
    loaded = {ln.rsplit("|", 1)[1].strip() for ln in err.splitlines() if ln.startswith("import time:")}
    assert {m for m in loaded if m.startswith("vpgbend")} == {
        "vpgbend", "vpgbend.cli", "vpgbend.errors", "vpgbend.geometry", "vpgbend.graphs",
        "vpgbend.representation",
    }
    assert not loaded & {"vpgbend.posets", "vpgbend.oracle", "vpgbend.lowerbound",
                         "vpgbend.constructors", "vpgbend.planarity", "dataclasses"}
