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

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .crossings import CrossingRecord, build_hp_extended, solution_crossings
from .decompose import EDGE, GAP, VERTEX, PolygonTable, decompose
from .graph import (OuterplanarStDigraph, Edge, InternalError, VertexId,
                    NotAPermutation, ValidationError, is_linear_extension,
                    _LEFT)
from .polygon import channel_costs

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


@dataclass(frozen=True)
class CompletionSolution:
    order: list[VertexId]
    completion_edges: list[Edge]
    records: list[CrossingRecord]
    crossings: int


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
    cost, split = channel_costs(g, t)
    best, ch = _plan(g, t, cost)
    order = _splice(g, t, ch, split[np.arange(len(t)), ch])
    ces, records, total = solution_crossings(g, order)
    if total != best:
        raise InternalError("solve", f"planned {best} crossings but the "
                                     f"order realises {total}")
    return CompletionSolution(order=order, completion_edges=ces,
                              records=records, crossings=total)


def _owners(g: OuterplanarStDigraph, t: PolygonTable) -> list[int]:
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
    return own.tolist()


def solution_problems(g: OuterplanarStDigraph,
                      sol: CompletionSolution) -> list[str]:
    """Everything wrong with a claimed solution, in plain words."""
    probs = []
    try:
        if not is_linear_extension(g, sol.order):
            return ["order reverses at least one edge"]
    except NotAPermutation as exc:
        return [f"order is not a permutation of the vertices: {exc}"]

    ces, records, total = solution_crossings(g, sol.order)
    if set(sol.completion_edges) != set(ces) or \
            len(sol.completion_edges) != len(ces):
        probs.append("completion edges do not match the order's gaps")
    if set(sol.records) != set(records) or len(sol.records) != len(records):
        probs.append("crossing records do not match a recount")
    if sol.crossings != total:
        probs.append(f"claims {sol.crossings} crossings, recount says {total}")

    per_edge = Counter(r.crossed_edge for r in records)
    worst = max(per_edge.values(), default=0)
    if worst > 2:
        probs.append(f"an edge is crossed {worst} times, 2 is the most "
                     f"an optimal drawing ever needs")

    t = decompose(g).table
    up = np.flatnonzero(t.upper >= 0)
    limit_of = dict(zip(zip(t.upper[up].tolist(), t.sink[up].tolist()),
                        np.flatnonzero(t.element >= 0)[up].tolist()))
    hits: dict[Edge, list[Edge]] = {}
    for r in records:
        if r.crossed_edge in limit_of:
            hits.setdefault(r.crossed_edge, []).append(r.completion_edge)
    own = _owners(g, t) if hits else []
    for lim, ce_list in hits.items():
        i = limit_of[lim]
        if len(ce_list) > 1:
            probs.append(f"limit edge {lim} is crossed {len(ce_list)} times")
            continue
        f, h = ce_list[0]
        if not (own[h] <= i < own[f]):
            probs.append(f"the crossing of limit edge {lim} does not come "
                         f"from the element above it")

    try:
        build_hp_extended(g, sol.order)
    except ValidationError as exc:
        probs.append(f"subdividing the crossings fails: {exc}")
    return probs


def verify_solution(g: OuterplanarStDigraph, sol: CompletionSolution) -> bool:
    return not solution_problems(g, sol)
