"""The benchmark's workloads: generated inputs, the operation list of one pass,
and the known-answer check of every operation.

Inputs depend only on the workload name, the seed and the size (`tiny` is the
smoke-test size).  Graphs are written from their definition, independently of
the library's builders.  Checks run outside the timed region and re-derive
what they can (bend counts, witness hit-sets) from the program's output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from vpgbend import cli, constructors, lowerbound, oracle
from vpgbend.geometry import RectPath
from vpgbend.graphs import Graph
from vpgbend.lowerbound import enumerate_good_sets, probe_hit_set
from vpgbend.representation import VpgRepresentation, is_proper, max_bends, verify_realizes

WORKLOADS = ("check-sparse", "check-dense", "analyze", "oracle")

# Operations whose wrong answer is a documented defect of the program: they
# still count as failed, but do not make the run's output incorrect.
KNOWN_DEFECTS = {
    "certificate roadmap-item-2 {2,3,5}":
        "bend_lb_certificate misses size<k probe hit-sets on grid lines (ROADMAP open item 2)",
}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    decided: bool = True
    detail: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    name: str
    ops: List[Op] = field(default_factory=list)

    def add(self, name, run, check) -> None:
        self.ops.append(Op(name, run, check))


def _verdict(ok: bool, detail: str = "") -> Verdict:
    return Verdict(ok=ok, detail="" if ok else detail)


# ---------------------------------------------------------------------------
# inputs written from the definitions


def _label(v) -> str:
    return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)


def subset_graph_edges(n: int, k: int, subsets_adjacent: bool) -> Tuple[list, set]:
    """Clique [n], one vertex per k-subset joined to its members and, when
    `subsets_adjacent`, to every other k-subset vertex."""
    clique = list(range(1, n + 1))
    subsets = list(combinations(clique, k))
    edges = {frozenset(e) for e in combinations(clique, 2)}
    edges |= {frozenset((s, w)) for s in subsets for w in s}
    if subsets_adjacent:
        edges |= {frozenset(e) for e in combinations(subsets, 2)}
    return clique + subsets, edges


def _pair(edge) -> str:
    return " ".join(sorted(_label(v) for v in edge))


def graph_text(vertices: list, edges: set) -> str:
    """The CLI's graph format: 'n m', one label per line, one edge per line."""
    lines = [f"{len(vertices)} {len(edges)}"]
    lines += [_label(v) for v in vertices]
    lines += sorted(_pair(e) for e in edges)
    return "\n".join(lines) + "\n"


def rep_bends(text: str) -> Dict[str, int]:
    """Bends per label of a representation file: corners minus two."""
    out = {}
    for line in text.splitlines():
        if line.strip():
            label, corners = line.split(" : ")
            out[label.strip()] = len(corners.split()) - 2
    return out


def run_cli(argv: List[str]) -> Tuple[int, List[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


# ---------------------------------------------------------------------------
# check-sparse and check-dense: construct | verify --proper through the CLI


def _check_construct(rep_file: Path, labels: set, bends_ok: Callable[[str, int], bool]):
    def check(result) -> Verdict:
        code, lines = result
        if code != 0 or lines:
            return _verdict(False, f"exit {code}, stdout {lines[:3]}")
        bends = rep_bends(rep_file.read_text())
        if set(bends) != labels:
            return _verdict(False, "label set differs from the graph's")
        bad = [l for l, b in bends.items() if not bends_ok(l, b)]
        return _verdict(not bad, f"bend limit broken by {bad[:3]}")
    return check


def _check_verify(rep_file: Path, mismatch: List[str]):
    """Exit 0 and `realizes: yes` with no mismatch; else exit 1 and exactly
    the one perturbed edge.  The representation stays proper either way."""
    def check(result) -> Verdict:
        code, lines = result
        top = max(rep_bends(rep_file.read_text()).values())
        realizes = "no" if mismatch else "yes"
        want = mismatch + [f"realizes: {realizes}", f"max bends: {top}", "proper: yes"]
        want_code = 1 if mismatch else 0
        return _verdict(code == want_code and lines == want,
                        f"exit {code}, stdout {lines[:4]}, expected {want}")
    return check


def _check_family(w: Workload, work: Path, rng: random.Random, family: str,
                  sizes, negative_at) -> None:
    dense = family == "gtm"
    for n, k in sizes:
        vertices, edges = subset_graph_edges(n, k, subsets_adjacent=dense)
        labels = {_label(v) for v in vertices}
        gfile, rfile = work / f"{family}-{n}-{k}.graph", work / f"{family}-{n}-{k}.rep"
        gfile.write_text(graph_text(vertices, edges))
        if dense:
            argv = ["construct", "gtm", "--n", str(n), "--k", str(k), "-o", str(rfile)]
            def bends_ok(label, b, k=k):
                return "," not in label or b == 2 * k - 3
        else:
            argv = ["construct", "k3n", "--n", str(n), "-o", str(rfile)]
            def bends_ok(label, b, n=n):
                return b <= 2 * n + 4
        w.add(f"construct {family}({n},{k})", lambda a=argv: run_cli(a),
              _check_construct(rfile, labels, bends_ok))
        w.add(f"verify {family}({n},{k})", lambda g=gfile, r=rfile: run_cli(["verify", str(g), str(r), "--proper"]),
              _check_verify(rfile, []))
        if (n, k) != negative_at:
            continue
        # one edge removed (the paths still meet: spurious); for k3n also one
        # non-edge added (the paths do not meet: missing)
        removable = [e for e in edges if not dense or all(isinstance(v, tuple) for v in e)]
        perturbed = [("spurious", rng.choice(sorted(removable, key=_pair)))]
        if not dense:
            pairs = (frozenset(e) for e in combinations(vertices, 2))
            non_edges = [e for e in pairs if e not in edges]
            perturbed.append(("missing", rng.choice(sorted(non_edges, key=_pair))))
        for kind, edge in perturbed:
            pfile = work / f"{family}-{n}-{k}-{kind}.graph"
            pfile.write_text(graph_text(vertices, edges ^ {edge}))
            w.add(f"verify {family}({n},{k}) {kind}",
                  lambda g=pfile, r=rfile: run_cli(["verify", str(g), str(r), "--proper"]),
                  _check_verify(rfile, [f"{kind} edge: {_pair(edge)}"]))


def check_sparse(seed: int, work: Path, tiny: bool) -> Workload:
    w = Workload("check-sparse")
    sizes = [(4, 3), (5, 3)] if tiny else [(6, 3), (9, 3), (12, 3)]
    negative_at = (5, 3) if tiny else (9, 3)
    _check_family(w, work, random.Random(seed), "k3n", sizes, negative_at)
    return w


def check_dense(seed: int, work: Path, tiny: bool) -> Workload:
    w = Workload("check-dense")
    sizes = [(4, 3), (5, 3)] if tiny else [(6, 3), (7, 4), (8, 4)]
    _check_family(w, work, random.Random(seed), "gtm", sizes, sizes[0])
    return w


# ---------------------------------------------------------------------------
# analyze: certificates, good-set bound and F_h/F_v on clique restrictions


# ROADMAP open item 2: the 1-bend path (1/2,3)(2,3)(2,4) meets exactly {2,3,5}.
ITEM2_PATHS = {
    1: [(6, 1), (4, 1)],
    2: [(0, 3), (1, 3)],
    3: [(2, 4), (2, 6), (5, 6)],
    4: [(5, 1), (2, 1)],
    5: [(1, 1), (1, 4)],
}
ITEM2_TARGET = (2, 3, 5)
ITEM2_WITNESS = [(Fraction(1, 2), 3), (2, 3), (2, 4)]


def _rechecked_good_sets(ra: VpgRepresentation, k: int) -> int:
    """Number of good k-sets, or -1 if a witness probe does not hit exactly
    its set."""
    sets = enumerate_good_sets(ra, k)
    ok = all(len(gs.members) == k and probe_hit_set(ra, gs.witness) == frozenset(gs.members)
             for gs in sets)
    return len(sets) if ok else -1


def analyze(seed: int, work: Path, tiny: bool) -> Workload:
    w = Workload("analyze")
    rng = random.Random(seed)
    k3n = (4, 5) if tiny else (8, 10)
    gtm = (5, 3) if tiny else (7, 4)
    reps = [(f"k3n({n})", constructors.construct_k3n_proper(n), n, 3) for n in k3n]
    reps.append((f"gtm{gtm}", constructors.construct_gtm_stairs(*gtm), gtm[0], gtm[1]))
    results: Dict[str, object] = {}

    for name, rep, n, k in reps:
        clique = range(1, n + 1)
        ra = rep.restricted(clique)
        labels = set(clique)

        def candidates(ra=ra, name=name, k=k):
            results[name] = lowerbound.certificate_candidates(ra, k)
            return results[name]

        w.add(f"candidates {name}", candidates,
              lambda c, labels=labels, k=k: _verdict(
                  bool(c) and all(s and s <= labels and len(s) <= k for s in c),
                  "candidate sets empty, too large or outside the clique"))
        targets = list(combinations(clique, k))
        rng.shuffle(targets)
        for t in targets:
            realized = len(rep.path(t).corners) - 2
            w.add(f"certificate {name} {t}",
                  lambda ra=ra, t=t, name=name: lowerbound.bend_lb_certificate(ra, t, results[name]),
                  lambda cert, realized=realized: _verdict(
                      cert is not None and cert <= realized,
                      f"certificate {cert} above the realized path's {realized} bends"))

    for name, rep, n, k in (reps[0], reps[-1]):
        ra = rep.restricted(range(1, n + 1))
        t = max(len(p.corners) - 2 for p in ra.assignment.values())
        bound = 8 * n * n * (t + 1) ** 2

        # the witness re-check is slow, so the first check does it for all
        rechecked = functools.cache(functools.partial(_rechecked_good_sets, ra, k))

        def check_count(result, bound=bound, rechecked=rechecked):
            count, reported, within = result
            return _verdict(reported == bound and within and count <= bound
                            and count == rechecked(),
                            f"got {result}, bound {bound}, re-checked good sets {rechecked()}")

        w.add(f"goodset-bound {name}",
              lambda ra=ra, k=k, t=t: lowerbound.count_good_sets_vs_bound(ra, k, t), check_count)

    name, rep, n, _ = reps[0]
    clique = list(range(1, n + 1))
    indep = list(combinations(clique, 3))
    w.add(f"classify {name}", lambda: lowerbound.classify_sh_sv(rep, clique, indep),
          lambda r: _verdict(set(r[0]) | set(r[1]) == set(indep) and comb(n, 3) <= len(r[0]) + len(r[1]),
                             "S_H and S_V do not cover the independent set"))

    def auxiliary():
        graphs = lowerbound.build_auxiliary_fh_fv(rep, clique, indep)
        return graphs, [lowerbound.is_planar(f) for f in graphs]

    w.add(f"auxiliary {name}", auxiliary,
          lambda r: _verdict(all(r[1]) and r[0][2].edge_count() <= max(0, 3 * len(r[0][2]) - 6),
                             f"planarity {r[1]}"))

    ce = VpgRepresentation({label: RectPath(c) for label, c in ITEM2_PATHS.items()})
    witness = RectPath(ITEM2_WITNESS)
    hit = frozenset().union(*(probe_hit_set(ce, s) for s in witness.segments()))
    if hit != frozenset(ITEM2_TARGET):
        raise RuntimeError(f"item-2 witness path meets {set(hit)}, not {set(ITEM2_TARGET)}")
    bends = len(witness.corners) - 2
    w.add("certificate roadmap-item-2 {2,3,5}",
          lambda: lowerbound.bend_lb_certificate(ce, ITEM2_TARGET),
          lambda cert: _verdict(cert is not None and cert <= bends,
                                f"certificate {cert} above the {bends}-bend path meeting exactly {{2,3,5}}"))
    return w


# ---------------------------------------------------------------------------
# oracle: bounded-grid searches, found or not within budget


def oracle_workload(seed: int, work: Path, tiny: bool) -> Workload:
    w = Workload("oracle")
    pairs_5 = list(combinations(range(1, 6), 2))
    k52 = Graph(list(range(1, 6)) + pairs_5, pairs_5 + [(s, v) for s in pairs_5 for v in s])
    # (name, graph, grid width, height, bends, node limit, proper)
    cases = [
        ("K3", Graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]), 12, 12, 0, 200_000, False),
        ("edge", Graph(["a", "b"], [("a", "b")]), 4, 4, 1, 100_000, True),
        ("C4", Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)]), 3, 3, 1, 400_000, False),
        ("P4", Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]), 5, 5, 1, 20_000, True),
        ("K5^2", k52, 12, 12, 1, 30_000, True),
    ]
    if tiny:
        cases = [c for c in cases if c[0] != "C4"]
    random.Random(seed).shuffle(cases)
    for name, g, gw, gh, bends, nodes, proper in cases:
        budget = oracle.GridSearchBudget(gw, gh, bends, min(nodes, 2_000) if tiny else nodes)

        def check(rep, g=g, gw=gw, gh=gh, bends=bends, proper=proper) -> Verdict:
            if rep is None:
                return Verdict(ok=True, decided=False)
            on_grid = all(0 <= c.x < gw and 0 <= c.y < gh
                          for p in rep.assignment.values() for c in p.corners)
            ok = (on_grid and verify_realizes(rep, g).ok and max_bends(rep) <= bends
                  and (not proper or is_proper(rep).ok))
            # decided: a witness was found and re-verified
            return Verdict(ok=ok, decided=ok, detail="" if ok else "witness fails re-verification")

        w.add(f"search {name}{' proper' if proper else ''} {bends}-bend {gw}x{gh}",
              lambda g=g, b=budget, p=proper: oracle.search_representation(g, b, require_proper=p),
              check)
    return w


BUILDERS = {
    "check-sparse": check_sparse,
    "check-dense": check_dense,
    "analyze": analyze,
    "oracle": oracle_workload,
}
