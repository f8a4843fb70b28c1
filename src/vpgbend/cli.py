"""Command-line front end: construct, verify, analyze, validate, render.

Exit status contract: 0 for success / a true check, 1 for a false check or a
reported violation, 2 for usage errors and malformed input files.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from . import constructors, lowerbound, oracle, posets
from .errors import ValidationError, VpgError
from .geometry import Segment
from .graphs import (
    Graph,
    SplitPartition,
    label_str,
    read_graph_text,
    write_graph_text,
)
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
        return fh.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_labels(spec: str) -> List[str]:
    return [tok for tok in spec.split(",") if tok]


def _parse_label_set(spec: str, what: str) -> List[str]:
    """Labels of a comma-separated set option; a repeated label is an error."""
    labels = _parse_labels(spec)
    repeated = sorted({tok for tok in labels if labels.count(tok) > 1})
    if repeated:
        raise ValidationError(f"repeated {what} labels: {repeated}")
    return labels


def _rep_with_string_labels(rep: VpgRepresentation) -> VpgRepresentation:
    return VpgRepresentation({label_str(l): p for l, p in rep.assignment.items()})


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_construct(args) -> int:
    if args.family == "split-upper":
        g = read_graph_text(_read(args.graph))
        clique = _parse_label_set(args.clique, "clique")
        unknown = [v for v in clique if v not in g]
        if unknown:
            raise VpgError(f"clique labels not in graph: {unknown}")
        independent = [v for v in g.vertices if v not in set(clique)]
        part = SplitPartition(clique=tuple(clique), independent=tuple(independent))
        rep = constructors.construct_split_upper(g, part)
    elif args.family == "k3n":
        rep = constructors.construct_k3n_proper(args.n)
    elif args.family == "k2n":
        rep = constructors.construct_k2n_proper(args.n)
    else:
        rep = constructors.construct_gtm_stairs(args.n, args.k)
    rep = _rep_with_string_labels(rep)
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
    for gs in sets:
        members = ",".join(label_str(m) for m in gs.members)
        print(f"{gs.orientation} {{{members}}} witness {gs.witness.a}-{gs.witness.b}")
    print(f"good {args.k}-sets: {len(sets)}")
    if args.t is not None:
        count, bound, ok = lowerbound.count_good_sets_vs_bound(rep, args.k, args.t)
        print(f"bound 8n^2(t+1)^2 = {bound}: {'within' if ok else 'EXCEEDED'}")
        return 0 if ok else 1
    return 0


def _cmd_certificate(args) -> int:
    rep = read_representation_text(_read(args.rep))
    target = _parse_label_set(args.target, "target")
    missing = [t for t in target if t not in rep.assignment]
    if missing:
        raise VpgError(f"target labels not in representation: {missing}")
    cert = lowerbound.bend_lb_certificate(rep, target)
    if cert is None:
        print("unrealizable")
    else:
        print(f"certificate: {cert}")
    return 0


def _cmd_posets(args) -> int:
    if args.action == "build":
        p = posets.build_p_rsn(args.r, args.s, args.n)
        _emit(posets.write_poset_text(p), args.output)
        return 0
    if args.action == "dim":
        if args.poset:
            p = posets.read_poset_text(_read(args.poset))
        else:
            if args.r is None or args.s is None or args.n is None:
                raise VpgError("dim needs either --poset or all of --r/--s/--n")
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
    try:
        w, h = (int(p) for p in args.grid.lower().split("x"))
    except ValueError:
        raise VpgError(f"bad grid spec {args.grid!r}, expected WxH")
    budget = oracle.GridSearchBudget(
        grid_width=w, grid_height=h, max_bends=args.bends, node_limit=args.node_limit
    )
    rep = oracle.search_representation(g, budget, require_proper=args.proper)
    if rep is None:
        print("not found within budget")
        return 1
    sys.stdout.write(write_representation_text(_rep_with_string_labels(rep)))
    return 0


def _cmd_render(args) -> int:
    rep = read_representation_text(_read(args.rep))
    dashed = set(_parse_labels(args.dashed)) if args.dashed else set()
    probes: List[Segment] = []
    if args.annotate_goodsets is not None:
        probes = [g.witness for g in lowerbound.enumerate_good_sets(rep, args.annotate_goodsets)]
    svg = render_svg(rep, dashed_labels=dashed, probes=probes)
    _emit(svg, args.output)
    return 0


def _cmd_graph(args) -> int:
    from .graphs import all_qedges, build_hnk_member, build_split_knk

    if args.family == "knk":
        g, _ = build_split_knk(args.n, args.k)
    else:
        g = build_hnk_member(args.n, args.k, all_qedges(args.n, args.k))
    out = Graph([label_str(v) for v in g.vertices])
    for u, v in g.edges():
        out.add_edge(label_str(u), label_str(v))
    _emit(write_graph_text(out), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vpgbend",
        description="Construct, verify, and analyze bend-bounded rectilinear-path representations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a representation for a known family")
    cs = c.add_subparsers(dest="family", required=True)
    p = cs.add_parser("split-upper")
    p.add_argument("--graph", required=True)
    p.add_argument("--clique", required=True, help="comma-separated clique labels")
    p.add_argument("-o", "--output")
    p.add_argument("--svg", help="also write an SVG rendering here")
    for fam in ("k3n", "k2n"):
        p = cs.add_parser(fam)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("-o", "--output")
        p.add_argument("--svg", help="also write an SVG rendering here")
    p = cs.add_parser("gtm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
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

    p = sub.add_parser("oracle", help="bounded-grid search for a witness representation")
    p.add_argument("graph")
    p.add_argument("--grid", required=True, help="WxH")
    p.add_argument("--bends", type=int, required=True)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--node-limit", type=int, default=1_000_000)

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
