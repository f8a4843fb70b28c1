"""Planarity of a `Graph`, for the F_h/F_v chain of the lower bound.

`is_planar` is the left-right test (de Fraysseix and Rosenstiehl, in the form
of Brandes, "The Left-Right Planarity Test", 2009): its testing phase only,
with no embedding built, on the graph's vertex numbers.  It is a module of
its own so that no other module's source grows with it: without cached
bytecode, compiling the largest module sets every workload's peak memory.
"""

from __future__ import annotations

from .graphs import Graph


def is_planar(g: Graph) -> bool:
    """Whether `g` is planar.  Phase 1 orients the graph by a DFS and gives
    each edge (v, w) its lowpt, lowpt2 and nesting depth.  Phase 2 walks the
    DFS again, out-edges in nesting order, with a stack of conflict pairs
    (left low, left high, right low, right high) of return edges, an empty
    side being two Nones; a pair that fits on neither side refutes."""
    adj, n = g._adj, len(g._adj)
    if n > 2 and g.edge_count() > 3 * n - 6:
        return False
    height, parent = [-1] * n, [None] * n
    out = [[] for _ in range(n)]
    lowpt, lowpt2, roots = {}, {}, []
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [(r, iter(adj[r]))]
        while stack:
            v, it = stack[-1]
            hv = height[v]
            for w in it:
                if height[w] < 0:  # tree edge
                    parent[w] = vw = (v, w)
                    lowpt[vw] = lowpt2[vw] = hv
                    height[w] = hv + 1
                    out[v].append(w)
                    stack.append((w, iter(adj[w])))
                    break
                if height[w] < hv and w != parent[v][0]:  # back edge
                    lowpt[v, w], lowpt2[v, w] = height[w], hv
                    out[v].append(w)
            else:  # v is done: its out-edges' lowpoints are final
                stack.pop()
                out[v].sort(key=lambda w: 2 * lowpt[v, w] + (lowpt2[v, w] < hv))  # nesting depth
                e = parent[v]
                if e is not None:
                    for w in out[v]:
                        lo, lo2 = lowpt[v, w], lowpt2[v, w]
                        if lo < lowpt[e]:
                            lowpt[e], lowpt2[e] = lo, min(lowpt[e], lo2)
                        elif lo > lowpt[e]:
                            lowpt2[e] = min(lowpt2[e], lo)
                        else:
                            lowpt2[e] = min(lowpt2[e], lo2)

    pairs, stack_bottom, lowpt_edge, ref = [], {}, {}, {}

    def conflicting(p, side, b):  # side 0 is left, 2 is right
        return (p[side] or p[side + 1]) and lowpt[p[side + 1]] > lowpt[b]

    def lowest(p):
        return min(lowpt[p[side]] for side in (0, 2) if p[side] or p[side + 1])

    def merge(p, side, low, high):  # the interval (low, high) goes under p's side
        if p[side] or p[side + 1]:
            ref[p[side]] = high
        else:
            p[side + 1] = high
        p[side] = low

    def add_constraints(ei):
        """Fold the return edges of ei, just done, into its parent edge's."""
        v = ei[0]
        e = parent[v]
        if lowpt[ei] >= height[v]:
            return True
        if ei[1] == out[v][0]:
            lowpt_edge[e] = lowpt_edge[ei]
            return True
        p = [None] * 4
        while True:  # ei's own pairs: their return edges go on p's right
            q = pairs.pop()
            if q[0] or q[1]:
                q = q[2:] + q[:2]
            if q[0] or q[1]:
                return False
            if lowpt[q[2]] > lowpt[e]:
                merge(p, 2, q[2], q[3])
            else:
                ref[q[2]] = lowpt_edge[e]
            if (pairs[-1] if pairs else None) is stack_bottom[ei]:
                break
        # earlier out-edges' pairs that conflict with ei: one side on p's left
        while pairs and (conflicting(pairs[-1], 0, ei) or conflicting(pairs[-1], 2, ei)):
            q = pairs.pop()
            if conflicting(q, 2, ei):
                q = q[2:] + q[:2]
            if conflicting(q, 2, ei):
                return False
            ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            merge(p, 0, q[0], q[1])
        if any(p):
            pairs.append(p)
        return True

    def remove_back_edges(e):
        """Trim the return edges that end at e's tail."""
        u = e[0]
        while pairs and lowest(pairs[-1]) == height[u]:
            pairs.pop()
        if pairs:
            p = pairs[-1]
            for side in (0, 2):
                while p[side + 1] and p[side + 1][1] == u:
                    p[side + 1] = ref.get(p[side + 1])
                if p[side + 1] is None and p[side] is not None:
                    ref[p[side]] = p[2 - side]
                    p[side] = None

    for r in roots:
        stack = [(r, iter(out[r]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                ei = (v, w)
                stack_bottom[ei] = pairs[-1] if pairs else None
                if height[w] > height[v]:  # tree edge
                    stack.append((w, iter(out[w])))
                    break
                lowpt_edge[ei] = ei
                pairs.append([None, None, ei, ei])
                if not add_constraints(ei):
                    return False
            else:
                stack.pop()
                e = parent[v]
                if e is not None:
                    remove_back_edges(e)
                    if not add_constraints(e):
                        return False
    return True
