"""Minimum-crossing acyclic hamiltonian completion.

Dynamic program over the polygons of the decomposition's
:class:`PolygonTable`, bottom-up, with two cells per polygon: the best
cost so far given that the path walks the polygon's left chain last, or
its right chain last.  Free vertices leave both cells unchanged, so the
DP skips them.  Junctions between consecutive polygons are plain graph
edges except when two polygons share an edge.  There the later polygon's
entry run is spliced below the earlier sink, which reroutes one jump; the
rerouted jump crosses the shared edge once, and nothing else changes, so
the transition charges exactly +1.

The DP is one pass over the table's cost rows, and the splice one pass
over its elements that takes each polygon's chain runs as ranges.
"""

from __future__ import annotations

import numpy as np

from .crossings import CompletionSolution, build_hp_extended, scan_order
from .decompose import EDGE, GAP, VERTEX, PolygonTable, decompose
from .graph import (OuterplanarStDigraph, InternalError, NotAPermutation,
                    ValidationError, is_linear_extension, _LEFT)
from .polygon import polygon_costs

_L, _R = 0, 1
# channel codes index polygon.CHANNELS: 0 1L, 1 1R, 2 2L, 3 2R.  A
# shared-edge transition into cell x weighs four terms: previous cell
# _OLD[i] with channel _TERM_CH[x][i]; the first minimum wins.
_TERM_CH = ((0, 0, 2, 2), (1, 1, 3, 3))
_OLD = (_L, _R, _L, _R)
_OPENS_LEFT = (False, True, True, False)   # 1R and 2L
# _PEN[sink cell][x][i] is 1 where term i's spliced jump crosses the shared
# edge: the previous path ends on the sink's chain and the new channel
# opens with vertices of the other chain
_PEN = tuple(tuple(tuple(int(o == sc and _OPENS_LEFT[ch] == (sc == _R))
                         for o, ch in zip(_OLD, chs)) for chs in _TERM_CH)
             for sc in (_L, _R))


def _plan(g: OuterplanarStDigraph, t: PolygonTable, cost):
    """DP over the polygons; returns (best, channel code per polygon)."""
    edge = (t.junction == EDGE).tolist()
    sink_cell = np.where(g.side[t.sink] == _LEFT, _L, _R).tolist()
    cl = cr = 0
    back = []
    for p, c in enumerate(cost.tolist()):
        if edge[p]:
            pen, step = _PEN[sink_cell[p - 1]], []
            for x in (_L, _R):
                a, b, d = c[x], c[x + 2], pen[x]
                terms = [cl + a + d[0], cr + a + d[1],
                         cl + b + d[2], cr + b + d[3]]
                i = terms.index(min(terms))
                step.append((terms[i], _OLD[i], _TERM_CH[x][i]))
        else:
            # one-jump channels win ties against their two-jump partners
            o, base = (_R, cr) if cr <= cl else (_L, cl)
            step = [(base + c[x], o, x) if c[x] <= c[x + 2]
                    else (base + c[x + 2], o, x + 2) for x in (_L, _R)]
        cl, cr = step[_L][0], step[_R][0]
        back.append(step)
    cell, best = (_R, cr) if cr <= cl else (_L, cl)
    chosen = [0] * len(back)
    for p in range(len(back) - 1, -1, -1):
        _, cell, chosen[p] = back[p][cell]
    return int(best), np.asarray(chosen, dtype=np.int64)


def _splice(g: OuterplanarStDigraph, t: PolygonTable, ch, split):
    """Hamiltonian order taking channel ``ch`` (split ``split``) through
    every polygon, element by element bottom-up.

    A polygon contributes its source, X[:a], Y, X[a:] and its sink, for
    the channel's opening run X and other run Y; a free vertex contributes
    itself.  A shared-vertex junction drops the source.  At a shared-edge
    junction the previous sink opens X or Y and is dropped; when it opens
    Y, the stretch X[:a] moves to right after the new source, below the
    previous sink's run.
    """
    n, order, joins = g.n, [], []
    cols = (t.source, t.sink, t.left_lo, t.left_hi, t.right_lo, t.right_hi,
            t.upper, t.junction, ch, split)
    polys = zip(*(c.tolist() for c in cols))
    up = -1
    for e in t.element.tolist():
        if e < 0:
            if order:
                joins.append((order[-1], ~e))
            order.append(~e)
            continue
        s, k, llo, lhi, rlo, rhi, upper, jn, c, q = next(polys)
        runs = (range(llo, lhi + 1), range(n - rlo, n - rhi - 1, -1))
        x, y = runs[not _OPENS_LEFT[c]], runs[_OPENS_LEFT[c]]
        a = len(x) if c < 2 else q
        if jn == GAP:
            if order:
                joins.append((order[-1], s))
            order.append(s)
        elif jn == VERTEX and order[-1] != s or jn == EDGE and up != s:
            raise InternalError("splice", "a polygon does not start where "
                                          "the previous one ends")
        elif jn == EDGE:
            if order[-1] == y[0]:
                i = len(order) - 2
                while i >= 0 and order[i] != s:
                    i -= 1
                if i < 0:
                    raise InternalError("splice", "a polygon source is "
                                                  "missing from the order")
                order[i + 1:i + 1] = x[:a]
                x, a, y = x[a:], 0, y[1:]
            elif order[-1] == x[0]:
                x, a = x[1:], a - 1
            else:
                raise InternalError("splice", "a shared edge does not open "
                                              "a chain run")
        order += [*x[:a], *y, *x[a:], k]
        up = upper
    if not order or order[0] != g.s:
        if order:
            joins.append((g.s, order[0]))
        order.insert(0, g.s)
    if order[-1] != g.t:
        joins.append((order[-1], g.t))
        order.append(g.t)
    if joins and not g.has_edges(*zip(*joins)).all():
        raise InternalError("splice", "elements not joined by an edge")
    return order


def solve(g: OuterplanarStDigraph) -> CompletionSolution:
    """Optimal completion; the recount at the end guards the plan."""
    t = decompose(g).table
    cost, split = polygon_costs(g, t)
    best, ch = _plan(g, t, cost)
    order = _splice(g, t, ch, split[np.arange(len(t)), ch])
    scan = scan_order(g, order)
    if scan.total != best:
        raise InternalError("solve", f"planned {best} crossings but the "
                                     f"order realises {scan.total}")
    return CompletionSolution.of_scan(g, order, scan)


def _owners(g: OuterplanarStDigraph, t: PolygonTable) -> np.ndarray:
    """Per vertex, the index of the first element holding it; s and t
    default to the first and the last element."""
    el = t.element
    at = np.flatnonzero(el >= 0)
    own = np.full(g.n, len(el), dtype=np.int64)
    ids, pi = t.run_vertices()
    own[ids], own[~el[el < 0]] = at[pi], np.flatnonzero(el < 0)
    own[g.s], own[g.t] = 0, max(len(el) - 1, 0)
    for ends in (t.source, t.sink):
        own[ends] = np.minimum(own[ends], at)
    return own


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two blocks of columns hold the same rows, with repeats."""
    return a.shape == b.shape and bool((a == b).all() or (
        a[:, np.lexsort(a)] == b[:, np.lexsort(b)]).all())


def solution_problems(g: OuterplanarStDigraph,
                      sol: CompletionSolution) -> list[str]:
    """Everything wrong with a claimed solution, in plain words.

    The claims must hold exactly the rows of a recount from ``sol.order``,
    which has no repeats, in any order."""
    probs = []
    try:
        if not is_linear_extension(g, sol.order):
            return ["order reverses at least one edge"]
    except NotAPermutation as exc:
        return [f"order is not a permutation of the vertices: {exc}"]

    scan = scan_order(g, sol.order)
    recount = CompletionSolution.of_scan(g, sol.order, scan)
    if not _same_rows(sol.ce, recount.ce):
        probs.append("completion edges do not match the order's gaps")
    if not _same_rows(sol.rec, recount.rec):
        probs.append("crossing records do not match a recount")
    if sol.crossings != scan.total:
        probs.append(f"claims {sol.crossings} crossings, "
                     f"recount says {scan.total}")

    per_edge = np.bincount(scan.pair_eid, minlength=g.edge_count)
    worst = int(per_edge.max(initial=0))
    if worst > 2:
        probs.append(f"an edge is crossed {worst} times, 2 is the most "
                     f"an optimal drawing ever needs")

    # a crossed edge is its head's upper limit edge when its tail is the
    # limit's tail; sinks are distinct, so each vertex has at most one
    t = decompose(g).table
    limit_tail = np.full(g.n, -1)
    limit_tail[t.sink] = t.upper                # -1: no upper limit
    _, _, xt, xh, _ = recount.rec
    hit = np.flatnonzero(limit_tail[xh] == xt)
    if len(hit):
        eid, first = np.unique(scan.pair_eid[hit], return_index=True)
        above = np.empty(g.n, dtype=np.int64)   # element index per sink
        above[t.sink] = np.flatnonzero(t.element >= 0)
        row, i, own = scan.pair_ce[hit], above[xh[hit]], _owners(g, t)
        wrong = (own[scan.ce_head[row]] > i) | (i >= own[scan.ce_tail[row]])
        bad = np.flatnonzero((per_edge[eid] > 1) | wrong[first])
        # in order of each limit edge's first crossing
        for e in eid[bad[np.argsort(first[bad])]].tolist():
            edge, times = (int(g.tail[e]), int(g.head[e])), int(per_edge[e])
            probs.append(f"limit edge {edge} is crossed {times} times"
                         if times > 1 else f"the crossing of limit edge "
                         f"{edge} does not come from the element above it")

    try:
        build_hp_extended(g, sol.order)
    except ValidationError as exc:
        probs.append(f"subdividing the crossings fails: {exc}")
    return probs
