"""In-memory tracing of calls into the vpgbend layers, from outside the package.

Modules bind names such as `path_intersections` into their own namespace with
`from .geometry import ...`, so a call is traced by replacing the name in every
vpgbend module that binds it.  The namespace a wrapper sits in is the caller
module, which is how calls are attributed (`representation` vs `oracle`).

Three kinds of target:
- SPAN: each call is timed and stored as a span (name, start, end, parent, op id).
- LEAF: hot calls that are timed and counted but not stored one by one; their
  time still counts as child time of the enclosing span.
- COUNT: hot calls that are only counted.

Nothing is wrapped until `install()`; `uninstall()` restores every name, so
untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN, LEAF, COUNT = "span", "leaf", "count"

LAYERS = ("cli", "graphs", "representation", "geometry", "constructors", "lowerbound", "oracle")


def _segments(rep) -> int:
    return sum(len(p.corners) - 1 for p in rep.assignment.values())


# (defining module, name, kind, namespaces to wrap in (None: all), result hook)
# A result hook returns (counter name, amount) to add for one call's result.
TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]], Optional[Callable]], ...] = (
    ("cli", "main", SPAN, None, None),
    ("graphs", "read_graph_text", SPAN, None, None),
    ("representation", "read_representation_text", SPAN, None, None),
    ("representation", "verify_realizes", SPAN, None, None),
    ("representation", "is_proper", SPAN, None, None),
    ("constructors", "construct_k3n_proper", SPAN, None,
     lambda rep: ("constructors.segments", _segments(rep))),
    ("constructors", "construct_gtm_stairs", SPAN, None,
     lambda rep: ("constructors.segments", _segments(rep))),
    ("lowerbound", "certificate_candidates", SPAN, None, None),
    ("lowerbound", "enumerate_good_sets", SPAN, None,
     lambda sets: ("lowerbound.good_sets", len(sets))),
    ("lowerbound", "strip_small_sets", SPAN, None, None),
    ("lowerbound", "bend_lb_certificate", SPAN, None, None),
    ("lowerbound", "count_good_sets_vs_bound", SPAN, None, None),
    ("lowerbound", "classify_sh_sv", SPAN, None, None),
    ("lowerbound", "build_auxiliary_fh_fv", SPAN, None, None),
    ("lowerbound", "is_planar", SPAN, None, None),
    ("oracle", "search_representation", SPAN, None, None),
    ("geometry", "path_intersections", LEAF, None,
     lambda inter: ("intersecting", 1 if inter else 0)),
    ("geometry", "segment_intersection", COUNT, None, None),
    ("geometry", "transversal_at", COUNT, None, None),
    # RectPath is a class that geometry and representation test with
    # isinstance, so it is counted only where the oracle builds candidates.
    ("geometry", "RectPath", COUNT, ("oracle",), None),
)


class Tracer:
    """Spans and counters of one traced pass; `reset()` starts the next pass."""

    def __init__(self):
        self.active = False
        self._installed: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: List[tuple] = []
        self.calls: Counter = Counter()       # (caller, name) -> calls
        self.counts: Counter = Counter()      # result-hook counters
        self.seconds: Counter = Counter()     # name -> seconds inside the call
        self.self_s: Counter = Counter()      # layer -> self seconds
        self._stack: List[list] = []
        self._next_id = 0
        self._op_id = 0

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("vpgbend.") and mod is not None
        }
        for home, name, kind, only_in, hook in TARGETS:
            original = getattr(modules[home], name)
            qualname = f"{home}.{name}"
            for caller, mod in modules.items():
                if only_in is not None and caller not in only_in:
                    continue
                if mod.__dict__.get(name) is original:
                    wrapper = self._wrap(original, qualname, home, caller, kind, hook)
                    self._installed.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    def _wrap(self, fn, qualname, layer, caller, kind, hook):
        key = (caller, qualname)
        tracer = self

        if kind == COUNT:
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        store = kind == SPAN

        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            result = tracer._call(qualname, layer, caller, store, fn, args, kwargs)
            if hook is not None:
                counter, amount = hook(result)
                tracer.counts[(caller, qualname, counter)] += amount
            return result
        return timed

    # -- spans --------------------------------------------------------------

    def _call(self, name, layer, caller, store, fn, args, kwargs):
        parent = self._stack[-1]
        self._next_id += 1
        # frame: [span id, name, layer, child seconds, leaf calls beneath]
        frame = [self._next_id, name, layer, 0.0, 0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            parent[3] += duration
            parent[4] += frame[4] + (0 if store else 1)
            self.seconds[name] += duration
            self.self_s[layer] += duration - frame[3]
            if store:
                self.spans.append(
                    (self._op_id, frame[0], parent[0], name, caller, start, end, frame[4])
                )

    def run_op(self, name: str, fn: Callable[[], object]):
        """Run one benchmark operation as a root span (layer `bench`)."""
        self._op_id += 1
        self._next_id += 1
        root = [self._next_id, name, "bench", 0.0, 0]
        self._stack = [root]
        self.active = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.active = False
            self.self_s["bench"] += (end - start) - root[3]
            self.spans.append((self._op_id, root[0], 0, name, "bench", start, end, root[4]))

    # -- metrics ------------------------------------------------------------

    def _calls(self, qualname: str, caller: Optional[str] = None) -> int:
        return sum(n for (c, q), n in self.calls.items()
                   if q == qualname and (caller is None or c == caller))

    def _count(self, counter: str, caller: Optional[str] = None) -> int:
        return sum(n for (c, _, name), n in self.counts.items()
                   if name == counter and (caller is None or c == caller))

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass traced since the last `reset()`."""
        s = self.seconds
        pairs = self._calls("geometry.path_intersections", "representation")
        hits = self._count("intersecting", "representation")
        candidates = self._calls("geometry.RectPath", "oracle")
        search_s = s["oracle.search_representation"]
        out = {
            "cli.main.calls": self._calls("cli.main"),
            "cli.main.s": s["cli.main"],
            "graphs.read_graph_text.s": s["graphs.read_graph_text"],
            "representation.read_representation_text.s": s["representation.read_representation_text"],
            "representation.verify_realizes.s": s["representation.verify_realizes"],
            "representation.is_proper.s": s["representation.is_proper"],
            "representation.pairs_tested": pairs,
            "representation.pairs_intersecting": hits,
            "representation.pair_yield": hits / pairs if pairs else 0.0,
            "representation.transversal_at.calls": self._calls("geometry.transversal_at", "representation"),
            "geometry.path_intersections.calls": self._calls("geometry.path_intersections"),
            "geometry.path_intersections.s": s["geometry.path_intersections"],
            "geometry.segment_intersection.calls": self._calls("geometry.segment_intersection"),
            "constructors.construct.s": s["constructors.construct_k3n_proper"] + s["constructors.construct_gtm_stairs"],
            "constructors.segments": self._count("constructors.segments"),
            "lowerbound.enumerate_good_sets.s": s["lowerbound.enumerate_good_sets"],
            "lowerbound.good_sets": self._count("lowerbound.good_sets"),
            "lowerbound.strip_small_sets.s": s["lowerbound.strip_small_sets"],
            "lowerbound.bend_lb_certificate.calls": self._calls("lowerbound.bend_lb_certificate"),
            "lowerbound.bend_lb_certificate.s": s["lowerbound.bend_lb_certificate"],
            "lowerbound.build_auxiliary_fh_fv.s": s["lowerbound.build_auxiliary_fh_fv"],
            "lowerbound.classify_sh_sv.s": s["lowerbound.classify_sh_sv"],
            "oracle.search_representation.s": search_s,
            "oracle.candidate_paths": candidates,
            "oracle.pair_checks": self._calls("geometry.path_intersections", "oracle"),
            "oracle.final_checks": self._calls("representation.verify_realizes", "oracle"),
            "oracle.candidate_paths_per_s": candidates / search_s if search_s else 0.0,
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out
