"""Command-line front end: construct, verify, analyze, validate, render.

Exit status contract: 0 for success / a true check, 1 for a false check or a
reported violation, 2 for usage errors and malformed input files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from . import constructors, lowerbound, oracle, posets
from .errors import ValidationError, VpgError
from .geometry import Segment
from .graphs import SplitPartition, _ascii_count, label_str, read_graph_text, write_graph_text
from .representation import (
    VpgRepresentation,
    is_proper,
    max_bends,
    read_representation_text,
    verify_realizes,
    write_representation_text,
)


# SVG drawing constants: user units per coordinate unit, the margin around the
# drawing in coordinate units, and the stroke widths in user units
SCALE = Fraction(40)
MARGIN = Fraction(1)
CLIQUE_STROKE = Fraction(2)
INDEPENDENT_STROKE = Fraction(3, 2)
PROBE_STROKE = Fraction(4)

# the most edges the graph of a `graph` or `construct` request may have, and
# the most elements and relations a `posets` request may build
_EDGE_CAP = 1 << 20


def _decimal(value: Fraction) -> str:
    """Exact decimal with at most six fractional digits (render-only rounding)."""
    scaled = round(value * 10**6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**6)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:06d}".rstrip("0")


def render_svg(
    rep: VpgRepresentation,
    dashed_labels: Iterable = (),
    probes: Sequence[Segment] = (),
) -> str:
    """SVG document: solid clique paths, dashed independent paths, thick gray
    probe witnesses; coordinates scaled exactly, then decimalized."""
    dashed = set(dashed_labels)
    corners = [c for p in rep.assignment.values() for c in p.corners]
    corners.extend(pt for s in probes for pt in (s.a, s.b))
    if corners:
        min_x = min(c.x for c in corners) - MARGIN
        max_x = max(c.x for c in corners) + MARGIN
        min_y = min(c.y for c in corners) - MARGIN
        max_y = max(c.y for c in corners) + MARGIN
    else:
        min_x, max_x, min_y, max_y = Fraction(0), Fraction(1), Fraction(0), Fraction(1)
    width = (max_x - min_x) * SCALE
    height = (max_y - min_y) * SCALE

    def sx(x: Fraction) -> str:
        return _decimal((x - min_x) * SCALE)

    def sy(y: Fraction) -> str:
        return _decimal((max_y - y) * SCALE)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_decimal(width)}" height="{_decimal(height)}" '
        f'viewBox="0 0 {_decimal(width)} {_decimal(height)}">',
    ]
    for segment in probes:
        lines.append(
            f'<polyline points="{sx(segment.a.x)},{sy(segment.a.y)} '
            f'{sx(segment.b.x)},{sy(segment.b.y)}" fill="none" stroke="#999999" '
            f'stroke-width="{_decimal(PROBE_STROKE)}"/>'
        )
    for label in rep.labels():
        pts = " ".join(f"{sx(c.x)},{sy(c.y)}" for c in rep.path(label).corners)
        if label in dashed:
            style = (
                f'stroke="#000000" stroke-width="{_decimal(INDEPENDENT_STROKE)}" '
                'stroke-dasharray="6,3"'
            )
        else:
            style = f'stroke="#000000" stroke-width="{_decimal(CLIQUE_STROKE)}"'
        lines.append(f'<polyline points="{pts}" fill="none" {style}/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# helpers


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_labels(spec: str) -> List[str]:
    return [tok for tok in spec.split(",") if tok]


def _first_labels(labels: List[str]) -> str:
    """The labels as a list, cut after the first 5 with their count."""
    return str(labels) if len(labels) <= 5 else f"{labels[:5]} … ({len(labels)} in all)"


def _parse_known_labels(spec: str, what: str, known, where: str) -> List[str]:
    """Labels of a comma-separated set option, each one in `known`, which
    the error calls `where`; a repeated label is an error."""
    labels, seen, repeated = _parse_labels(spec), set(), set()
    for tok in labels:
        (repeated if tok in seen else seen).add(tok)
    if repeated:
        raise ValidationError(f"repeated {what} labels: {_first_labels(sorted(repeated))}")
    missing = [t for t in labels if t not in known]
    if missing:
        raise VpgError(f"{what} labels not in {where}: {_first_labels(missing)}")
    return labels


# ---------------------------------------------------------------------------
# subcommand handlers


def _check_size(n: int, k: int, complete: bool = False) -> None:
    """Refuse a clique [n] plus one vertex per k-subset (pairwise adjacent if
    `complete`) of more than _EDGE_CAP edges; the builders check n > k >= 1."""
    if not n > k >= 1:
        return
    pairs = math.comb(n, 2)
    subsets = math.comb(n, k) if pairs <= _EDGE_CAP else 0  # a huge n is out already
    if pairs + k * subsets + (math.comb(subsets, 2) if complete else 0) > _EDGE_CAP:
        raise VpgError(f"n={n}, k={k} would build more than {_EDGE_CAP} edges")


def _check_poset_size(r: int, s: int, n: int) -> None:
    """Refuse a P(r,s;n) of more than _EDGE_CAP elements and relations; the
    builder checks 1 <= r < s <= n-1.  Its C(n,s)·C(s,r) relations number at
    least n(n−1), so a larger n is refused before any binomial is taken."""
    if not 1 <= r < s <= n - 1:
        return
    if n * (n - 1) > _EDGE_CAP or (
            math.comb(n, r) + math.comb(n, s) * (1 + math.comb(s, r)) > _EDGE_CAP):
        raise VpgError(f"r={r}, s={s}, n={n} would build more than {_EDGE_CAP} "
                       "elements and relations")


def _cmd_construct(args) -> int:
    if args.family == "split-upper":
        g = read_graph_text(_read(args.graph))
        clique = _parse_known_labels(args.clique, "clique", g, "graph")
        in_clique = set(clique)
        independent = [v for v in g.vertices if v not in in_clique]
        part = SplitPartition(clique=tuple(clique), independent=tuple(independent))
        rep = constructors.construct_split_upper(g, part)
    elif args.family == "k3n":
        _check_size(args.n, 3)
        rep = constructors.construct_k3n_proper(args.n)
    elif args.family == "k2n":
        _check_size(args.n, 2)
        rep = constructors.construct_k2n_proper(args.n)
    else:
        _check_size(args.n, args.k, complete=True)
        rep = constructors.construct_gtm_stairs(args.n, args.k)
    _emit(write_representation_text(rep), args.output)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(rep))
    return 0


def _cmd_verify(args) -> int:
    g = read_graph_text(_read(args.graph))
    rep = read_representation_text(_read(args.rep))
    report = verify_realizes(rep, g)
    for line in report.lines():
        print(line)
    print(f"realizes: {'yes' if report.ok else 'no'}")
    print(f"max bends: {max_bends(rep)}")
    status = 0 if report.ok else 1
    if args.proper:
        proper = is_proper(rep)
        for v in proper.violations:
            print(v)
        print(f"proper: {'yes' if proper.ok else 'no'}")
        if not proper.ok:
            status = 1
    return status


def _cmd_goodsets(args) -> int:
    rep = read_representation_text(_read(args.rep))
    sets = lowerbound.enumerate_good_sets(rep, args.k)
    # the --t check can be a usage error, so it runs before anything is printed
    if args.t is not None:
        bound = lowerbound._good_set_bound(rep, args.t)
    for gs in sets:
        members = ",".join(label_str(m) for m in gs.members)
        print(f"{gs.orientation} {{{members}}} witness {gs.witness.a}-{gs.witness.b}")
    print(f"good {args.k}-sets: {len(sets)}")
    if args.t is not None:
        ok = len(sets) <= bound
        print(f"bound 8n^2(t+1)^2 = {bound}: {'within' if ok else 'EXCEEDED'}")
        return 0 if ok else 1
    return 0


def _cmd_certificate(args) -> int:
    rep = read_representation_text(_read(args.rep))
    target = _parse_known_labels(args.target, "target", rep.assignment, "representation")
    cert = lowerbound.bend_lb_certificate(rep, target)
    if cert is None:
        print("unrealizable")
    else:
        print(f"certificate: {cert}")
    return 0


def _cmd_posets(args) -> int:
    if args.action == "build":
        _check_poset_size(args.r, args.s, args.n)
        p = posets.build_p_rsn(args.r, args.s, args.n)
        _emit(posets.write_poset_text(p), args.output)
        return 0
    if args.action == "dim":
        if args.poset:
            p = posets.read_poset_text(_read(args.poset))
        else:
            if args.r is None or args.s is None or args.n is None:
                raise VpgError("dim needs either --poset or all of --r/--s/--n")
            _check_poset_size(args.r, args.s, args.n)
            p = posets.build_p_rsn(args.r, args.s, args.n)
        dim = posets.brute_force_dimension(p, args.max_dim)
        if dim is None:
            print(f"exceeds max dim {args.max_dim}")
        else:
            print(f"dimension: {dim}")
        return 0
    # realizer-check
    p = posets.read_poset_text(_read(args.poset))
    orders = []
    for ln in filter(None, map(str.strip, _read(args.realizer).splitlines())):
        # a chain `a < b < c`, since no poset element contains ' < '; else `a,b,c`
        chain = [e.strip() for e in ln.split(" < ")] if " < " in ln else _parse_labels(ln)
        orders.append(posets.LinearOrder(tuple(chain)))
    ok = posets.is_realizer(p, posets.Realizer(orders=tuple(orders)))
    print(f"realizer: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_counting(args) -> int:
    report = lowerbound.validate_counting(args.n, args.k, args.t)
    for line in report.lines():
        print(line)
    return 0 if report.all_defined_true() else 1


def _cmd_oracle(args) -> int:
    g = read_graph_text(_read(args.graph))
    dims = [_ascii_count(d) for d in args.grid.lower().split("x")]
    if len(dims) != 2 or None in dims:
        raise VpgError(f"bad grid spec {args.grid!r}, expected WxH")
    w, h = dims
    budget = oracle.GridSearchBudget(
        grid_width=w, grid_height=h, max_bends=args.bends, node_limit=args.node_limit
    )
    outcome, rep = oracle._search(g, budget, require_proper=args.proper)
    if outcome == "budget":
        print("not found within budget")
        return 1
    if outcome == "exhausted":
        kind = "proper representation" if args.proper else "representation"
        print(f"no {kind} on {w}x{h} with at most {args.bends} bends")
        return 1
    sys.stdout.write(write_representation_text(rep))
    return 0


def _cmd_render(args) -> int:
    rep = read_representation_text(_read(args.rep))
    dashed = (_parse_known_labels(args.dashed, "dashed", rep.assignment, "representation")
              if args.dashed else [])
    probes: List[Segment] = []
    if args.annotate_goodsets is not None:
        probes = [g.witness for g in lowerbound.enumerate_good_sets(rep, args.annotate_goodsets)]
    svg = render_svg(rep, dashed_labels=dashed, probes=probes)
    _emit(svg, args.output)
    return 0


def _cmd_graph(args) -> int:
    from .graphs import all_qedges, build_hnk_member, build_split_knk

    if args.k == 1:
        raise VpgError("k = 1 cannot be written to a graph file: each 1-subset "
                       "label would be written as the clique label it contains")
    _check_size(args.n, args.k, complete=args.family == "hnk-complete")
    if args.family == "knk":
        g, _ = build_split_knk(args.n, args.k)
    else:
        g = build_hnk_member(args.n, args.k, all_qedges(args.n, args.k))
    _emit(write_graph_text(g), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


# Built on the first `main` call, not at import, and reused: a parse fills a
# fresh Namespace and formats help when it is printed (reading COLUMNS and
# the current sys.stdout/sys.stderr then), so a parser carries no state
# from one call to the next.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vpgbend",
        description="Construct, verify, and analyze bend-bounded rectilinear-path representations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a representation for a known family")
    cs = c.add_subparsers(dest="family", required=True)
    for fam, ints in (("split-upper", ()), ("k3n", ("--n",)), ("k2n", ("--n",)),
                      ("gtm", ("--n", "--k"))):
        p = cs.add_parser(fam)
        if fam == "split-upper":
            p.add_argument("--graph", required=True)
            p.add_argument("--clique", required=True, help="comma-separated clique labels")
        for opt in ints:
            p.add_argument(opt, type=int, required=True)
        p.add_argument("-o", "--output")
        p.add_argument("--svg", help="also write an SVG rendering here")

    p = sub.add_parser("verify", help="check a representation against a graph")
    p.add_argument("graph")
    p.add_argument("rep")
    p.add_argument("--proper", action="store_true")

    p = sub.add_parser("goodsets", help="enumerate good k-sets of a representation")
    p.add_argument("rep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int)

    p = sub.add_parser("certificate", help="bend lower-bound certificate for a target set")
    p.add_argument("rep")
    p.add_argument("--target", required=True, help="comma-separated clique labels")

    p = sub.add_parser("posets", help="containment posets, dimension, realizer checks")
    ps = p.add_subparsers(dest="action", required=True)
    b = ps.add_parser("build")
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--s", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("-o", "--output")
    d = ps.add_parser("dim")
    d.add_argument("--poset")
    d.add_argument("--r", type=int)
    d.add_argument("--s", type=int)
    d.add_argument("--n", type=int)
    d.add_argument("--max-dim", type=int, default=4)
    r = ps.add_parser("realizer-check")
    r.add_argument("--poset", required=True)
    r.add_argument("--realizer", required=True)

    p = sub.add_parser("counting", help="big-integer counting validators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser(
        "oracle",
        help="bounded-grid search for a witness representation",
        description="Search the WxH integer grid for a representation (with --proper, a "
        "proper one) whose paths have at most --bends bends, and print it (exit 0). "
        "Otherwise exit 1 with 'not found within budget' when --node-limit ran out, "
        "which proves nothing, or 'no representation on WxH with at most b bends' when "
        "the whole grid was ruled out.  A path with b bends has at most floor(b/2)+1 "
        "horizontal segments and only they move x, so its corners have at most "
        "floor(b/2)+2 distinct x (and as many y).  Ranking the corners thus puts a "
        "representation of a graph on n vertices on a grid of side n*(floor(b/2)+2), "
        "where 'no representation' proves the graph needs more than b bends.",
    )
    p.add_argument("graph")
    p.add_argument("--grid", required=True, help="WxH")
    p.add_argument("--bends", type=int, required=True)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--node-limit", type=int, default=1_000_000,
                   help="candidate paths tried before giving up")

    p = sub.add_parser("render", help="render a representation as SVG")
    p.add_argument("rep")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dashed", help="comma-separated labels drawn dashed")
    p.add_argument("--annotate-goodsets", type=int, help="draw witnesses for good k-sets")

    p = sub.add_parser("graph", help="emit a named graph in the text format")
    gs = p.add_subparsers(dest="family", required=True)
    for fam in ("knk", "hnk-complete"):
        q = gs.add_parser(fam)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--k", type=int, required=True)
        q.add_argument("-o", "--output")

    return ap


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "goodsets": _cmd_goodsets,
    "certificate": _cmd_certificate,
    "posets": _cmd_posets,
    "counting": _cmd_counting,
    "oracle": _cmd_oracle,
    "render": _cmd_render,
    "graph": _cmd_graph,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (VpgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
