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

Both run as array passes over the table.  The DP is a log-depth min-plus
prefix scan of the polygons' 2x2 cell matrices, and the splice lays each
element out as runs of vertex ids (source, X[:a], Y, X[a:], sink).
"""

from __future__ import annotations

import numpy as np

from .crossings import CompletionSolution, build_hp_extended, scan_order
from .decompose import EDGE, GAP, VERTEX, PolygonTable, decompose, runs
from .graph import (OuterplanarStDigraph, InternalError, NotAPermutation,
                    ValidationError, int_array, is_linear_extension, _LEFT)
from .polygon import polygon_costs

_L, _R = 0, 1
# channel codes index polygon.CHANNELS: 0 1L, 1 1R, 2 2L, 3 2R.  Cell x of
# a polygon weighs four terms: previous cell _OLD[i] with channel
# _TERM_CH[x][i].  At a shared edge the first minimum wins; elsewhere the
# terms are tried in _NO_EDGE order, so R wins ties of the previous cell
# and one-jump channels win ties against their two-jump partners.
_TERM_CH = np.array(((0, 0, 2, 2), (1, 1, 3, 3)))
_OLD = np.array((_L, _R, _L, _R))
_NO_EDGE = np.array((1, 0, 3, 2))
_OPENS_LEFT = np.array((False, True, True, False))   # 1R and 2L
# _PEN[x][i][sink cell] is 1 where term i's spliced jump crosses the shared
# edge: the path ends on the sink's chain, the channel opens on the other
_PEN = np.array([[[int(o == sc and _OPENS_LEFT[c] == (sc == _R))
                   for sc in (_L, _R)] for o, c in zip(_OLD, chs)]
                 for chs in _TERM_CH])


def _plan(g: OuterplanarStDigraph, t: PolygonTable, cost):
    """DP over the polygons; returns (best, channel code per polygon).

    Polygon p maps the cells below it to its own by a 2x2 min-plus matrix,
    so a log-depth prefix scan of those gives the cells below each polygon;
    back pointers are then local, and the backtrack composes them by
    doubling from the top down."""
    P, p, edge = len(t), np.arange(len(t)), t.junction == EDGE
    below = np.where(g.side[t.sink] == _LEFT, _L, _R)[p - 1]
    # [cell, term, polygon]: term weights, and [cell, old cell, polygon]
    w = cost.T[_TERM_CH] + np.where(edge, _PEN[..., below], 0)
    scan, span = np.minimum(w[:, :2], w[:, 2:]), 1
    while span < P:
        a, b = scan[..., span:], scan[..., :-span]
        scan[..., span:] = np.minimum(a[:, :1] + b[0], a[:, 1:] + b[1])
        span *= 2
    cells = np.zeros((2, P + 1))
    cells[:, 1:] = np.minimum(scan[:, 0], scan[:, 1])
    pref = np.where(edge, np.arange(4)[:, None], _NO_EDGE[:, None])
    i = pref[(cells[_OLD, :-1] + w)[:, pref, p].argmin(axis=1), p]  # [cell, p]
    cell = _R if cells[_R, -1] <= cells[_L, -1] else _L
    # up[:, p]: polygon p's cell for each cell of the polygon above, and
    # then, by doubling, for each cell of the top polygon
    up, span = np.concatenate((_OLD[i[:, 1:]], [[_L], [_R]]), axis=1), 1
    while span < P:
        up[:, :-span] = up[:, :-span][up[:, span:], p[:-span]]
        span *= 2
    return int(cells[cell, -1]), _TERM_CH[up[cell], i[up[cell], p]]


def _splice(g: OuterplanarStDigraph, t: PolygonTable, ch, split):
    """Hamiltonian order taking channel ``ch`` (split ``split``) through
    every polygon, laid out as runs of vertex ids.

    A polygon contributes its source, X[:a], Y, X[a:] and its sink, for
    the channel's opening run X and other run Y; a free vertex contributes
    itself.  A shared-vertex junction drops the source.  At a shared-edge
    junction the previous sink opens X or Y and is dropped; when it opens
    Y, the stretch X[:a] moves to right after the new source.  That source
    ends a run laid out before, or the stretch moved by the polygon below,
    so one stable sort of the runs puts every moved stretch in place.
    """
    n, el, s, k, jn, P = g.n, t.element, t.source, t.sink, t.junction, len(t)
    left, pp = _OPENS_LEFT[ch], np.arange(-1, P - 1)
    at = (el >= 0).nonzero()[0]
    lr = np.array((t.left_lo, n - t.right_lo, t.left_hi - t.left_lo + 1,
                   t.right_hi - t.right_lo + 1))    # first ids, lengths
    xs, ys, xl, yl = np.where(left, lr, lr[[1, 0, 3, 2]])
    xd, a = left * 2 - 1, np.where(ch < 2, xl, split)
    first, last, gap = ~el, ~el, el < 0
    first[at], last[at], gap[at] = s, k, jn == GAP
    prev = np.concatenate(([-1], last))[at]    # the vertex placed last before
    edge = jn == EDGE
    moved = edge & (prev == ys)
    x0, mv = np.where(moved, a, edge & (prev == xs)), moved.nonzero()[0]
    # five runs (first id, step, length) per element, a free vertex as the
    # last, then the moved X[:a]
    lay, B = np.zeros((3, len(el), 5), dtype=np.int64), 5 * len(el)
    lay[0, :, 4], lay[1:, :, 4], lay[0, at, 4] = ~el, 1, k
    lay[:, at, :4] = np.array(((s, xs + xd * x0, ys - xd * moved, xs + xd * a),
                               (xd, xd, -xd, xd),
                               (jn == GAP, a - x0, yl - moved, xl - a))
                              ).transpose(0, 2, 1)
    lay, missing = lay.reshape(3, B), moved
    if len(mv):     # sort each moved X[:a] after the run its source ends
        end, full = np.full(n, B), lay[2].nonzero()[0]
        end[lay[0, full] + lay[1, full] * (lay[2, full] - 1)] = full
        cont = moved & moved[pp] & (a[pp] > 0) & (s == (xs + xd * a - xd)[pp])
        missing = moved & ~cont & (end[s] >= 5 * at - 1)
        root = np.maximum.accumulate(np.where(moved & ~cont, pp + 1, -1))[mv]
        key = np.concatenate((np.arange(0, 2 * B, 2), 2 * end[s[root]] + 1))
        lay = np.concatenate((lay, (xs[mv], xd[mv], a[mv])), axis=1)[
            :, key.argsort(kind="stable")]
    bad = np.array(((jn == VERTEX) & (prev != s) | edge & (t.upper[pp] != s),
                    missing, edge & ~moved & (prev != xs)))
    if np.count_nonzero(bad):
        raise InternalError("splice", (
            "a polygon does not start where the previous one ends",
            "a polygon source is missing from the order",
            "a shared edge does not open a chain run")[
                bad[:, bad.any(axis=0).argmax()].argmax()])
    order = np.concatenate(([g.s], runs(*lay), [g.t]))
    cap = order[[1, -2]] != (g.s, g.t)      # s and t join the ends
    join = gap.nonzero()[0][1:]
    if not g.has_edges(np.concatenate((last[join - 1], order[[0, -2]][cap])),
                       np.concatenate((first[join], order[[1, -1]][cap]))
                       ).all():
        raise InternalError("splice", "elements not joined by an edge")
    return order[0 if cap[0] else 1:None if cap[1] else -1]


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
    return CompletionSolution.of_scan(g, order.tolist(), scan)


def _owners(g: OuterplanarStDigraph, t: PolygonTable) -> np.ndarray:
    """Per vertex, the index of the first element holding it; s and t
    default to the first and the last element."""
    el = t.element
    at = np.flatnonzero(el >= 0)
    # a run vertex takes its polygon's element, -1 (none) the appended one
    own = np.append(at, len(el))[t.owner]
    own[~el[el < 0]] = np.flatnonzero(el < 0)
    own[g.s], own[g.t] = 0, max(len(el) - 1, 0)
    for ends in (t.source, t.sink):
        own[ends] = np.minimum(own[ends], at)
    return own


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two blocks of columns hold the same rows, with repeats."""
    return a.shape == b.shape and not (np.count_nonzero(a != b) and (
        np.count_nonzero(a[:, np.lexsort(a)] != b[:, np.lexsort(b)])))


def solution_problems(g: OuterplanarStDigraph,
                      sol: CompletionSolution) -> list[str]:
    """Everything wrong with a claimed solution, in plain words.

    The claims must hold exactly the rows of a recount from ``sol.order``,
    which has no repeats, in any order."""
    probs, order = [], int_array(sol.order)
    try:
        if not is_linear_extension(g, order):
            return ["order reverses at least one edge"]
    except NotAPermutation as exc:
        return [f"order is not a permutation of the vertices: {exc}"]

    scan = scan_order(g, order)
    recount = CompletionSolution.of_scan(g, sol.order, scan)
    if not _same_rows(sol.ce, recount.ce):
        probs.append("completion edges do not match the order's gaps")
    if not _same_rows(sol.rec, recount.rec):
        probs.append("crossing records do not match a recount")
    if sol.crossings != scan.total:
        probs.append(f"claims {sol.crossings} crossings, "
                     f"recount says {scan.total}")

    per_edge = np.bincount(scan.pair_eid, minlength=g.edge_count)
    if np.count_nonzero(per_edge > 2):
        worst = int(per_edge.max())
        probs.append(f"an edge is crossed {worst} times, 2 is the most "
                     f"an optimal drawing ever needs")

    # a crossed edge is its head's upper limit edge when its tail is the
    # limit's tail; sinks are distinct, so each vertex has at most one
    t = decompose(g).table
    limit_tail = np.full(g.n, -1)
    limit_tail[t.sink] = t.upper                # -1: no upper limit
    _, _, xt, xh, _ = recount.rec
    hit = (limit_tail[xh] == xt).nonzero()[0]
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
        build_hp_extended(g, order)
    except ValidationError as exc:
        probs.append(f"subdividing the crossings fails: {exc}")
    return probs
