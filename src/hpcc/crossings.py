"""Crossing geometry for completion edges.

A completion edge crosses a graph edge exactly when their chords on the
vertex cycle strictly interleave; chords sharing an endpoint never cross.
Because validated instances are plane, the graph chords split into three
tame families (laminar left, laminar right, a rank-monotone two-sided
chain), so the crossings of a query chord are a stack slice on each side
plus two contiguous runs of the two-sided chain.

The chord families come sorted from the graph (``g.chords``, built once by
:func:`hpcc.graph.build_graph`, which validates the same arrays for
planarity), along with the line coordinates ``g.lcoord``/``g.rcoord``;
nothing here re-sorts or re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (OuterplanarStDigraph, Edge, ValidationError,
                    is_linear_extension, NotAPermutation, _LEFT, _RIGHT)


class SameSideCompletionEdge(ValidationError):
    pass


class NotLinearExtension(ValidationError):
    pass


@dataclass(frozen=True)
class CrossingRecord:
    completion_edge: Edge
    crossed_edge: Edge
    ordinal: int  # 0-based position along the completion edge, tail first


def _side_size(n: int, pa, pb, probe):
    """Interior vertices on the probe's side of the chord (pa, pb)."""
    inner = pb - pa - 1
    inside = (pa < probe) & (probe < pb)
    return np.where(inside, inner, n - 2 - inner)


def _cover_sweep(a, b, eid, queries, line_end, out_pairs):
    """List, per query, the chords strictly covering its position.

    ``queries`` yields (row, position, skip_lo, skip_hi) sorted by position;
    the skip flags drop chords anchored at the line's ends, which share a
    vertex with an s- or t-incident query chord.  Appends (row, edge_id)
    pairs to ``out_pairs``.
    """
    a = a.tolist()
    b = b.tolist()
    eid = eid.tolist()
    ci, nc = 0, len(a)
    stack = []  # nested open chords, end coordinates decreasing upwards
    for row, q, skip_lo, skip_hi in queries:
        while ci < nc and a[ci] < q:
            while stack and stack[-1][1] <= a[ci]:
                stack.pop()
            stack.append((a[ci], b[ci], eid[ci]))
            ci += 1
        while stack and stack[-1][1] <= q:
            stack.pop()
        for ca, cb, ce in stack:
            if skip_lo and ca == 0:
                continue
            if skip_hi and cb == line_end:
                continue
            out_pairs.append((row, ce))


def _batch_crossings(g, f_arr, h_arr):
    """Crossed edge ids for many completion edges at once.

    Returns (pair_ce_row, pair_eid, pair_size) sorted by row and then by
    the size of the ce-tail-side region of each crossed chord, which is
    the geometric crossing order along the completion edge.
    """
    idx = g.chords
    n, k, m = g.n, g.k, g.m
    lc, rc = g.lcoord, g.rcoord
    C = len(f_arr)

    fl, hl = lc[f_arr], lc[h_arr]
    fr, hr = rc[f_arr], rc[h_arr]

    def interior(cf, ch, hi):
        qf = (cf >= 1) & (cf <= hi)
        qh = (ch >= 1) & (ch <= hi)
        return np.where(qf, cf, np.where(qh, ch, -1))

    ql = interior(fl, hl, k)   # left-interior endpoint rank, or -1
    qr = interior(fr, hr, m)

    s_inc = (f_arr == 0) | (h_arr == 0)
    t_inc = (f_arr == g.t) | (h_arr == g.t)

    pairs: list[tuple[int, int]] = []
    rows = np.arange(C)
    for qpos, a, b, eid, end in ((ql, idx.la, idx.lb, idx.leid, k + 1),
                                 (qr, idx.ra, idx.rb, idx.reid, m + 1)):
        live = qpos >= 0
        if live.any() and len(a):
            order = np.argsort(qpos[live], kind="stable")
            rws = rows[live][order]
            qs = qpos[live][order]
            queries = zip(rws.tolist(), qs.tolist(),
                          s_inc[rws].tolist(), t_inc[rws].tolist())
            _cover_sweep(a, b, eid, queries, end, pairs)

    # two-sided separators: two contiguous runs of the monotone chain
    if len(idx.ti):
        x = np.where(ql >= 0, ql, np.where(s_inc, 0, k + 1))
        y = np.where(qr >= 0, qr, np.where(t_inc, m + 1, 0))
        a_lo = np.searchsorted(idx.tj, y, side="right")
        a_hi = np.searchsorted(idx.ti, x, side="left")
        b_lo = np.searchsorted(idx.ti, x, side="right")
        b_hi = np.searchsorted(idx.tj, y, side="left")
        for lo, hi in ((a_lo, a_hi), (b_lo, b_hi)):
            cnt = np.maximum(hi - lo, 0)
            tot = int(cnt.sum())
            if tot:
                rep_rows = np.repeat(rows, cnt)
                starts = np.repeat(lo, cnt)
                offs = np.arange(tot) - np.repeat(
                    np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt)
                tids = idx.teid[starts + offs]
                pairs.extend(zip(rep_rows.tolist(), tids.tolist()))

    if not pairs:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    pr = np.array([p[0] for p in pairs], dtype=np.int64)
    pe = np.array([p[1] for p in pairs], dtype=np.int64)
    pa = np.minimum(g.tail[pe], g.head[pe])
    pb = np.maximum(g.tail[pe], g.head[pe])
    size = _side_size(n, pa, pb, np.asarray(f_arr)[pr])
    order = np.lexsort((size, pr))
    return pr[order], pe[order], size[order]


def _check_completion_pairs(g, f_arr, h_arr):
    sf, sh = g.side[f_arr], g.side[h_arr]
    bad = (sf == sh) & ((sf == _LEFT) | (sf == _RIGHT))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise SameSideCompletionEdge(
            f"({g.names[int(f_arr[i])]}, {g.names[int(h_arr[i])]}) "
            "joins one chain to itself")


def edge_crossings(g: OuterplanarStDigraph, ce: Edge) -> list[Edge]:
    """Graph edges crossed by the completion edge, in order along it."""
    f, h = ce
    if not (0 <= f < g.n and 0 <= h < g.n) or f == h:
        raise SameSideCompletionEdge(f"not a chord: ({f}, {h})")
    fa = np.array([f], dtype=np.int64)
    ha = np.array([h], dtype=np.int64)
    _check_completion_pairs(g, fa, ha)
    _, pe, _ = _batch_crossings(g, fa, ha)
    return [(int(g.tail[e]), int(g.head[e])) for e in pe]


@dataclass
class SolutionScan:
    """Array form of a solution's completion edges and crossings."""
    ce_tail: np.ndarray
    ce_head: np.ndarray
    ce_spine: np.ndarray     # index i: the ce sits between order[i], order[i+1]
    pair_ce: np.ndarray      # sorted by (ce row, ordinal)
    pair_eid: np.ndarray
    pair_size: np.ndarray
    pair_ordinal: np.ndarray

    @property
    def total(self) -> int:
        return len(self.pair_eid)


def scan_order(g: OuterplanarStDigraph, order) -> SolutionScan:
    arr = np.asarray(list(order), dtype=np.int64)
    try:
        ok = is_linear_extension(g, arr)
    except NotAPermutation as exc:
        raise NotLinearExtension(str(exc)) from None
    if not ok:
        raise NotLinearExtension("order violates an edge direction")
    u, v = arr[:-1], arr[1:]
    miss = ~g.has_edges(u, v)
    ce_tail, ce_head = u[miss], v[miss]
    ce_spine = np.flatnonzero(miss)
    _check_completion_pairs(g, ce_tail, ce_head)
    pr, pe, ps = _batch_crossings(g, ce_tail, ce_head)
    if len(pr):
        counts = np.bincount(pr, minlength=len(ce_tail))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ordinal = np.arange(len(pr)) - np.repeat(starts, counts)
    else:
        ordinal = np.empty(0, dtype=np.int64)
    return SolutionScan(ce_tail, ce_head, ce_spine, pr, pe, ps, ordinal)


def _records(g: OuterplanarStDigraph, scan: SolutionScan):
    """The completion edges and one CrossingRecord per crossing pair."""
    ces = list(zip(scan.ce_tail.tolist(), scan.ce_head.tolist()))
    return ces, [
        CrossingRecord(ces[r], (int(g.tail[e]), int(g.head[e])), int(o))
        for r, e, o in zip(scan.pair_ce.tolist(), scan.pair_eid.tolist(),
                           scan.pair_ordinal.tolist())
    ]


def solution_crossings(g: OuterplanarStDigraph, order):
    """Completion edges and crossing records induced by a vertex order.

    Consecutive pairs not in the graph become completion edges; each one's
    crossings are listed in geometric order.  Returns
    ``(completion_edges, records, total)``.
    """
    scan = scan_order(g, order)
    return (*_records(g, scan), scan.total)


def crossings_along_edges(g: OuterplanarStDigraph, scan: SolutionScan):
    """Group the scan's crossing pairs by crossed edge.

    Within each edge the crossings are sorted by the size of the completion
    chord's region containing the edge's tail, i.e. by distance from the
    tail.  Returns (eids, offsets, pair_rows): pair_rows[offsets[i]:
    offsets[i+1]] are indices into the scan's pair arrays for eids[i].
    """
    P = scan.total
    if P == 0:
        z = np.empty(0, dtype=np.int64)
        return z, np.zeros(1, dtype=np.int64), z.copy()
    cf = scan.ce_tail[scan.pair_ce]
    ch = scan.ce_head[scan.pair_ce]
    ca = np.minimum(cf, ch)
    cb = np.maximum(cf, ch)
    ta = g.tail[scan.pair_eid]
    from_tail = _side_size(g.n, ca, cb, ta)
    order = np.lexsort((from_tail, scan.pair_eid))
    eids_sorted = scan.pair_eid[order]
    uniq, counts = np.unique(eids_sorted, return_counts=True)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return uniq, offsets, order


def chain_edges(first, last, counts, mids):
    """Edge lists of the paths ``first[r], mids..., last[r]``, row after row,
    where row ``r`` takes the next ``counts[r]`` entries of ``mids``.

    Returns (tails, heads): row ``r``'s ``counts[r] + 1`` edges start at
    index ``r + counts[:r].sum()``.
    """
    at = np.arange(len(mids)) + np.repeat(np.arange(len(first)), counts)
    tails = np.repeat(first, counts + 1)
    heads = np.repeat(last, counts + 1)
    tails[at + 1] = heads[at] = mids
    return tails, heads


@dataclass(frozen=True, eq=False)
class HpExtendedGraph:
    """The solution graph with every crossing subdivided into a new vertex.

    Vertex ``n_original + i`` subdivides the scan's crossing pair ``i``.
    The arrays are the graph; ``names``, ``edges``, ``hamiltonian_order``
    and ``crossing_of`` are list views built on first access.
    """
    g: OuterplanarStDigraph
    scan: SolutionScan
    tail: np.ndarray    # completion chains in spine order, then graph edges
    head: np.ndarray    # by id, each split at its crossings
    order: np.ndarray   # the hamiltonian order through the new vertices

    @property
    def n_original(self) -> int:
        return self.g.n

    @cached_property
    def names(self) -> list[str]:
        return list(self.g.names) + [f"x{i}" for i in range(self.scan.total)]

    @cached_property
    def edges(self) -> list[Edge]:
        return list(zip(self.tail.tolist(), self.head.tolist()))

    @cached_property
    def hamiltonian_order(self) -> list[int]:
        return self.order.tolist()

    @cached_property
    def crossing_of(self) -> dict[int, CrossingRecord]:
        return dict(enumerate(_records(self.g, self.scan)[1], self.g.n))


def build_hp_extended(g: OuterplanarStDigraph, order) -> HpExtendedGraph:
    """Replace crossing points with degree-2 vertices on both chords.

    Crossed graph edges become chains ordered by distance from their tail,
    completion edges become chains ordered by their crossing ordinal, and
    the hamiltonian order gains the new vertices inside their completion
    edge's slot.  A cyclic result would surface as
    :class:`NotLinearExtension`; on valid input it cannot happen.
    """
    order = list(order)
    scan = scan_order(g, order)
    n, P = g.n, scan.total
    per_ce = np.bincount(scan.pair_ce, minlength=len(scan.ce_tail))
    # spine vertex i moves up by the crossings of the completion edges
    # below it; a crossing sits its ordinal + 1 above its edge's tail
    shift = np.zeros(n, dtype=np.int64)
    shift[scan.ce_spine + 1] = per_ce
    pos = np.empty(n + P, dtype=np.int64)
    pos[order] = np.arange(n) + shift.cumsum()
    pos[n:] = pos[scan.ce_tail[scan.pair_ce]] + scan.pair_ordinal + 1

    _, _, rows = crossings_along_edges(g, scan)
    tail, head = chain_edges(
        np.concatenate((scan.ce_tail, g.tail)),
        np.concatenate((scan.ce_head, g.head)),
        np.concatenate((per_ce, np.bincount(scan.pair_eid,
                                            minlength=g.edge_count))),
        np.concatenate((np.arange(P), rows)) + n)
    back = (pos[tail] >= pos[head]).nonzero()[0]
    if len(back):
        u, v = (int(x[back[0]]) for x in (tail, head))
        name = lambda w: g.names[w] if w < n else f"x{w - n}"
        raise NotLinearExtension(
            f"extended edge ({name(u)}, {name(v)}) runs backwards")
    hp_order = np.empty(n + P, dtype=np.int64)
    hp_order[pos] = np.arange(n + P)
    return HpExtendedGraph(g, scan, tail, head, hp_order)
