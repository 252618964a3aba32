"""Crossing geometry for completion edges.

A completion edge crosses a graph edge exactly when their chords on the
vertex cycle strictly interleave; chords sharing an endpoint never cross.
Because validated instances are plane, the graph chords split into three
tame families (laminar left, laminar right, a rank-monotone two-sided
chain).  The one-sided chords a completion edge crosses are those that
strictly cover its chain endpoint; with both one-sided families joined
into one laminar family, the c chords covering a point are one per
nesting depth below c, each the last chord of its depth opened before
the point, so one ``searchsorted`` over the chords' (depth, index) order
finds them for every completion edge at once.  The two-sided chords
crossed are two contiguous runs of the chain.  Counting needs no search:
it is c at each end plus the runs' lengths (:func:`crossing_counts`).

The chord families come sorted from the graph (``g.chords``, built once by
:func:`hpcc.graph.build_graph` once its plane check has found the edges
laminar), with the joint family's count tables and depth order;
nothing here re-sorts or re-derives them.  The scan is computed once
per graph and order: the graph keeps the last order's scan, read-only
and shared by every later call with that order, and each route still
calls :func:`scan_order` with its own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (OuterplanarStDigraph, Edge, ValidationError, VertexId,
                    int_array, order_positions, NotAPermutation, _LEFT,
                    _RIGHT)


class SameSideCompletionEdge(ValidationError):
    pass


class NotLinearExtension(ValidationError):
    pass


@dataclass(frozen=True)
class CrossingRecord:
    completion_edge: Edge
    crossed_edge: Edge
    ordinal: int  # 0-based position along the completion edge, tail first


def _side_size(n: int, a, b, probe):
    """Interior vertices on the probe's side of the chord (a, b), either
    end first."""
    inner = np.abs(b - a) - 1
    inside = (probe - a) * (probe - b) < 0
    return np.where(inside, inner, n - 2 - inner)


def _separators(g, f_arr, h_arr):
    """Where completion edges, each joining the two chains, meet the chords.

    Returns the joint coordinate of every end (the f ends, then the h
    ends) and the two runs of two-sided chords each edge crosses, as
    (first index, length) pairs; no runs when there are no two-sided
    chords.
    """
    idx, n, k, F = g.chords, g.n, g.k, len(f_arr)
    # one-sided separators: an endpoint at q on the joint line (right-line
    # coordinates shifted past t's left coordinate) lies under
    # idx.under[q] = #(starts < q) - #(ends <= q) chords
    ends = np.concatenate((f_arr, h_arr))
    q = np.where(ends <= k, ends, n + k + 2 - ends)
    if not len(idx.ti):
        return q, ()
    # two-sided separators: two contiguous runs of the monotone chain
    c = g.coord[:, ends]
    x, y = np.maximum(c[:, :F], c[:, F:])
    return q, [(lo, np.maximum(hi - lo, 0)) for lo, hi in (
        (idx.tj.searchsorted(y, "right"), idx.ti.searchsorted(x, "left")),
        (idx.ti.searchsorted(x, "right"), idx.tj.searchsorted(y, "left")))]


def crossing_counts(g, f_arr, h_arr):
    """How many graph edges each completion edge (f, h) crosses; every
    edge joins the two chains."""
    q, runs = _separators(g, f_arr, h_arr)
    under, F = g.chords.under[q], len(f_arr)
    return np.add(under[:F], under[F:], dtype=np.int64) + sum(
        cnt for _, cnt in runs)


def _batch_crossings(g, f_arr, h_arr):
    """Crossed edge ids for many completion edges, each joining the two chains.

    Returns (pair_ce_row, pair_eid) sorted by row and then by the size of
    the ce-tail-side region of each crossed chord, which is the geometric
    crossing order along the completion edge.
    """
    idx = g.chords
    rows = np.arange(len(f_arr))
    q, runs = _separators(g, f_arr, h_arr)
    found = []

    # the c chords over an end at q are one per nesting depth below c, each
    # the last chord of its depth opened before q
    cnt = idx.under[q]
    if np.count_nonzero(cnt):
        N, row = len(idx.deid), np.concatenate((rows, rows)).repeat(cnt)
        at = idx.depth_key.searchsorted(np.arange(len(row)) * N + (
            idx.opened[q] - N * (cnt.cumsum() - cnt)).repeat(cnt)) - 1
        found.append((row, idx.deid[at]))   # at: d * N + opened
    for lo, cnt in runs:
        if np.count_nonzero(cnt):
            end = cnt.cumsum()
            found.append((rows.repeat(cnt), idx.teid[
                np.arange(end[-1]) + (lo - end + cnt).repeat(cnt)]))

    if not found:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    pr, pe = np.concatenate(found, axis=1)
    order = (pr * g.n + _side_size(g.n, g.tail[pe], g.head[pe], f_arr[pr])
             ).argsort(kind="stable")
    return pr[order], pe[order]


def _check_completion_pairs(g, f_arr, h_arr):
    # a linear extension's gaps join the two chains: its first and last are
    # the edges at s and t, and a chain's consecutive vertices are adjacent
    bad = g.side[f_arr] * g.side[h_arr] != _LEFT * _RIGHT
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        raise SameSideCompletionEdge(
            f"({g.names[int(f_arr[i])]}, {g.names[int(h_arr[i])]}) "
            "does not join the two chains")


@dataclass(frozen=True)
class SolutionScan:
    """A solution's completion edges and crossings, as read-only arrays."""
    ce_tail: np.ndarray
    ce_head: np.ndarray
    ce_spine: np.ndarray     # index i: the ce sits between order[i], order[i+1]
    pair_ce: np.ndarray      # sorted by (ce row, ordinal)
    pair_eid: np.ndarray
    pair_ordinal: np.ndarray

    @property
    def total(self) -> int:
        return len(self.pair_eid)


def scan_order(g: OuterplanarStDigraph, order) -> SolutionScan:
    """The scan of ``order``, kept on the graph by the order's contents."""
    arr = int_array(order)
    key, (last, scan) = arr.tobytes(), g._cache.get("scan", (None, None))
    if key == last:
        return scan
    try:
        pos = order_positions(g, arr)
    except NotAPermutation as exc:
        raise NotLinearExtension(str(exc)) from None
    pt, ph = pos[g.tail], pos[g.head]
    if np.count_nonzero(pt > ph):
        raise NotLinearExtension("order violates an edge direction")
    miss = np.ones(g.n - 1, dtype=bool)     # the gaps no graph edge spans
    miss[pt[ph == pt + 1]] = False
    ce_spine = miss.nonzero()[0]
    ce_tail, ce_head = arr[ce_spine], arr[ce_spine + 1]
    _check_completion_pairs(g, ce_tail, ce_head)
    pr, pe = _batch_crossings(g, ce_tail, ce_head)
    # pairs come sorted by row: the ordinal counts from the row's first
    ordinal = np.arange(len(pr)) - pr.searchsorted(pr)
    cols = ce_tail, ce_head, ce_spine, pr, pe, ordinal
    for col in cols:
        col.setflags(write=False)
    g._cache["scan"] = key, SolutionScan(*cols)
    return g._cache["scan"][1]


class CompletionSolution:
    """A vertex order with its claimed completion edges, crossing records
    and crossing count.  The claims are int64 columns, ``ce`` (tail, head)
    per completion edge and ``rec`` (completion tail, completion head,
    crossed tail, crossed head, ordinal) per crossing; ``completion_edges``
    and ``records`` are list views built on first read."""

    def __init__(self, order: list[VertexId], completion_edges: list[Edge],
                 records: list[CrossingRecord], crossings: int):
        self.order, self.crossings = int_array(order).tolist(), crossings
        self.ce = int_array(completion_edges).reshape(-1, 2).T
        self.rec = int_array([(*r.completion_edge, *r.crossed_edge, r.ordinal)
                              for r in records]).reshape(-1, 5).T

    @classmethod
    def of_scan(cls, g: OuterplanarStDigraph, order,
                scan: SolutionScan) -> CompletionSolution:
        """The honest solution of ``order``, from its scan."""
        sol, row, eid = cls.__new__(cls), scan.pair_ce, scan.pair_eid
        sol.order, sol.crossings = order, scan.total
        sol.ce = ce = np.array((scan.ce_tail, scan.ce_head))
        sol.rec = np.array((ce[0, row], ce[1, row], g.tail[eid], g.head[eid],
                            scan.pair_ordinal))
        return sol

    @cached_property
    def completion_edges(self) -> list[Edge]:
        return list(zip(*self.ce.tolist()))

    @cached_property
    def records(self) -> list[CrossingRecord]:
        cf, ch, xt, xh, o = self.rec.tolist()
        return list(map(CrossingRecord, zip(cf, ch), zip(xt, xh), o))

    def __eq__(self, other):
        return isinstance(other, CompletionSolution) and (
            self.order == other.order and self.crossings == other.crossings
            and np.array_equal(self.ce, other.ce)
            and np.array_equal(self.rec, other.rec))


def solution_crossings(g: OuterplanarStDigraph, order):
    """Completion edges and crossing records induced by a vertex order.

    Consecutive pairs not in the graph become completion edges; each one's
    crossings are listed in geometric order.  Returns
    ``(completion_edges, records, total)``.
    """
    sol = CompletionSolution.of_scan(g, order, scan_order(g, order))
    return sol.completion_edges, sol.records, sol.crossings


def crossings_along_edges(g: OuterplanarStDigraph, scan: SolutionScan):
    """The scan's crossing pairs grouped by crossed edge.

    Returns the pair rows sorted by crossed edge id and, within each edge,
    by the size of the completion chord's region containing the edge's
    tail, i.e. by distance from the tail.
    """
    row, eid = scan.pair_ce, scan.pair_eid
    return (eid * g.n + _side_size(g.n, scan.ce_tail[row], scan.ce_head[row],
                                   g.tail[eid])).argsort(kind="stable")


def chain_edges(first, last, counts, mids):
    """Edge lists of the paths ``first[r], mids..., last[r]``, row after row,
    where row ``r`` takes the next ``counts[r]`` entries of ``mids``.

    Returns (tails, heads): row ``r``'s ``counts[r] + 1`` edges start at
    index ``r + counts[:r].sum()``.
    """
    at = np.arange(len(mids)) + np.arange(len(first)).repeat(counts)
    tails, heads = first.repeat(counts + 1), last.repeat(counts + 1)
    tails[at + 1] = heads[at] = mids
    return tails, heads


@dataclass(frozen=True, eq=False)
class HpExtendedGraph:
    """The solution graph with every crossing subdivided into a new vertex.

    Vertex ``n + i`` subdivides the scan's crossing pair ``i``, where
    ``n`` is the host graph's size.
    """
    scan: SolutionScan
    tail: np.ndarray    # completion chains in spine order, then graph edges
    head: np.ndarray    # by id, each split at its crossings
    order: np.ndarray   # the hamiltonian order through the new vertices


def build_hp_extended(g: OuterplanarStDigraph, order) -> HpExtendedGraph:
    """Replace crossing points with degree-2 vertices on both chords.

    Crossed graph edges become chains ordered by distance from their tail,
    completion edges become chains ordered by their crossing ordinal, and
    the hamiltonian order gains the new vertices inside their completion
    edge's slot.  A cyclic result would surface as
    :class:`NotLinearExtension`; on valid input it cannot happen.
    """
    order = int_array(order)
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

    rows = crossings_along_edges(g, scan)
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
    return HpExtendedGraph(scan, tail, head, hp_order)
