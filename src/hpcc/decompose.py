"""Decomposition into maximal st-polygons and free vertices.

Every median and every weak face seeds one polygon; the polygon then grows
each chain run outward until the chords incident to its source and sink cut
it off.  What no polygon covers is a free vertex.  Elements are ordered
bottom-up; consecutive polygons overlap in at most a shared vertex or a
shared two-sided edge.

The solver works from a :class:`PolygonTable` (one array per field,
polygons bottom-up), built in a fixed number of vectorised passes and
cached on the graph.  :func:`decompose` returns its public view: a
read-only sequence of :class:`StPolygon` and :class:`FreeVertex` over it,
carrying it as ``.table`` and building the elements on first read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embedding import median_scan
from .graph import (OuterplanarStDigraph, Edge, InternalError, VertexId,
                    _LEFT, _RIGHT)
from .rhombus import _weak_face_mask

# junction kinds: how a polygon meets the previous one; GAP also covers the
# first polygon and any polygon with a free vertex right below it
GAP, VERTEX, EDGE = 0, 1, 2


@dataclass(frozen=True)
class StPolygon:
    source: VertexId
    sink: VertexId
    left_lo: int            # left chain ranks strictly inside the polygon
    left_hi: int            # inclusive; left_hi < left_lo means empty
    right_lo: int
    right_hi: int
    n: int                  # host graph size, for rank -> id on the right
    median: Edge | None
    lower_limit: Edge | None
    upper_limit: Edge | None

    @property
    def left_vertices(self) -> list[VertexId]:
        return list(range(self.left_lo, self.left_hi + 1))

    @property
    def right_vertices(self) -> list[VertexId]:
        return [self.n - j for j in range(self.right_lo, self.right_hi + 1)]


@dataclass(frozen=True)
class FreeVertex:
    vertex: VertexId


@dataclass(frozen=True)
class PolygonTable:
    """Polygons bottom-up as parallel int64 arrays, fields as in StPolygon."""
    n: int
    source: np.ndarray
    sink: np.ndarray
    left_lo: np.ndarray
    left_hi: np.ndarray
    right_lo: np.ndarray
    right_hi: np.ndarray
    median: np.ndarray      # bool: (source, sink) is an edge
    lower: np.ndarray       # lower limit is (source, lower); -1 if none
    upper: np.ndarray       # upper limit is (upper, sink); -1 if none
    junction: np.ndarray    # GAP, VERTEX or EDGE to the previous polygon
    element: np.ndarray     # decomposition order: polygon index, or ~v

    def __len__(self) -> int:
        return len(self.source)


def runs(first, step, length) -> np.ndarray:
    """The runs ``first + step * i`` for ``i < length``, one after another."""
    i = np.arange(length.sum()) - np.repeat(length.cumsum() - length, length)
    return np.repeat(first, length) + np.repeat(step, length) * i


class Decomposition(Sequence):
    """:func:`decompose`'s elements over ``.table``, its PolygonTable; the
    length comes from the table, the elements are built on first read."""

    def __init__(self, table: PolygonTable):
        self.table = table

    def __len__(self) -> int:
        return len(self.table.element)

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        return iter(self._items)

    @cached_property
    def _items(self) -> list[StPolygon | FreeVertex]:
        return _elements(self.table)


def _build_table(g: OuterplanarStDigraph) -> PolygonTable:
    """Grow every median and weak face into its maximal polygon.

    A chain run starts right above the source (or at the source's lowest
    out-neighbour on that chain, when the source sits on the other chain)
    and ends symmetrically under the sink; both limits are read from the
    graph's ``lo_out``/``hi_in`` tables.
    """
    scan = median_scan(g)
    f, weak = _weak_face_mask(g)
    wi = weak.nonzero()[0]
    src = np.concatenate((g.tail[scan.edges], f.source[wi]))
    snk = np.concatenate((g.head[scan.edges], f.sink[wi]))
    # weak faces have no (source, sink) edge, medians are one
    median = np.arange(len(src)) < len(scan.edges)
    ti = g.topo_pos
    by_src = ti[src].argsort(kind="stable")
    src, snk, median = src[by_src], snk[by_src], median[by_src]

    # rows: left chain, right chain.  s and t sit at 0 and at the top of
    # both lines, so a run starts right above a source on its line and
    # ends right under a sink on its line, else at the limit
    cs, ck = g.coord[:, src], g.coord[:, snk]
    lo = np.where(cs >= 0, cs + 1, g.lo_out[src])
    hi = np.where(ck >= 0, ck - 1, g.hi_in[snk])
    if np.count_nonzero(lo <= 0):
        raise InternalError("decompose", "polygon source has no limit edge")
    if np.count_nonzero(hi < 0):
        raise InternalError("decompose", "polygon sink has no limit edge")
    (llo, rlo), (lhi, rhi) = lo, hi
    s_side, t_side = g.side[src], g.side[snk]
    lower = np.where(s_side == _LEFT, g.n - rlo,
                     np.where(s_side == _RIGHT, llo, -1))
    upper = np.where(t_side == _LEFT, g.n - rhi,
                     np.where(t_side == _RIGHT, lhi, -1))

    if (np.count_nonzero(src[1:] == src[:-1])
            or np.count_nonzero(np.bincount(snk) > 1)):
        raise InternalError("decompose", "polygons share a source or sink")
    # the runs cover their ids (right rank j is id n - j) once at most.
    # Endpoints stack on top of chains: one vertex may be sink of a polygon,
    # chain vertex of the next, and source of the one after.
    cover = (np.bincount(np.concatenate((llo, g.n - rhi)), minlength=g.n + 1)
             - np.bincount(np.concatenate((lhi + 1, g.n + 1 - rlo)),
                           minlength=g.n + 1)).cumsum()[:-1]
    if np.count_nonzero(cover > 1):
        raise InternalError("decompose", "polygon chains overlap")
    cover += np.bincount(np.concatenate((src, snk)), minlength=g.n)
    cover[g.s] = cover[g.t] = 1
    free = (cover == 0).nonzero()[0]

    P = len(src)
    at = ti[np.concatenate((src, free))].argsort(kind="stable")
    element = np.concatenate((np.arange(P), ~free))[at]
    # polygons meet only when no free vertex sits between them
    p = (element >= 0).nonzero()[0]
    meet = p[1:] - p[:-1] == 1
    vertex = meet & (snk[:-1] == src[1:])
    edge = meet & ~vertex & (lower[1:] == snk[:-1])
    junction = np.full(P, GAP, dtype=np.int64)
    junction[1:] = np.where(vertex, VERTEX, np.where(edge, EDGE, GAP))
    return PolygonTable(g.n, src, snk, llo, lhi, rlo, rhi, median,
                        lower, upper, junction, element)


def _elements(t: PolygonTable) -> list[StPolygon | FreeVertex]:
    cols = (t.source, t.sink, t.left_lo, t.left_hi, t.right_lo, t.right_hi,
            t.median, t.lower, t.upper)
    polys = [StPolygon(s, k, a, b, c, d, t.n, (s, k) if med else None,
                       (s, lo) if lo >= 0 else None,
                       (up, k) if up >= 0 else None)
             for s, k, a, b, c, d, med, lo, up in
             zip(*(x.tolist() for x in cols))]
    return [polys[e] if e >= 0 else FreeVertex(~e)
            for e in t.element.tolist()]


def decompose(g: OuterplanarStDigraph) -> Decomposition:
    """Polygons and free vertices bottom-up, as a :class:`Decomposition`;
    one shared object per graph."""
    d = g._cache.get("decomposition")
    if d is None:
        d = g._cache["decomposition"] = Decomposition(_build_table(g))
    return d
