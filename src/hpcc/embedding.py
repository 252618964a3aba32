"""Faces and medians from the nesting of the edges.

Read as intervals ``[min(u, v), max(u, v)]`` of cycle ids, the edges form
one laminar family under the root ``(0, n - 1)``, and the children of an
interval tile it, as every boundary step is an edge.  So each edge of span
at least 2 heads one interior face, whose ring is that edge and then its
children by position; these are all E - n + 1 interior faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import OuterplanarStDigraph, InternalError, _LEFT, _RIGHT


@dataclass
class Incidence:
    own: np.ndarray        # per edge: the face it heads, -1 for span 1
    outer: np.ndarray      # per edge: its parent's face, -1 for the root
    head_of: np.ndarray    # per face: the edge heading it


def incidence(g: OuterplanarStDigraph) -> Incidence:
    """Each edge's two faces, off the graph's nesting of the intervals.
    Faces are numbered in (depth, preorder) order of their edges, so that
    order holds each face's children as one run, face by face."""
    if "incidence" in g._cache:
        return g._cache["incidence"]
    E, nested, parent = g.edge_count, g.nesting.order, g.nesting.parent
    heads = np.abs(g.head - g.tail)[nested] >= 2
    face = np.where(heads, heads.cumsum() - 1, -1)
    own, outer = np.empty((2, E), dtype=np.int64)
    own[nested] = face
    outer[nested] = np.where(parent >= 0, face[parent], -1)
    inc = Incidence(own, outer, nested[heads])
    g._cache["incidence"] = inc
    return inc


@dataclass
class Faces:
    source: np.ndarray        # per interior face: its one source corner
    sink: np.ndarray
    source_tips: np.ndarray   # 2 x faces: the source's two face neighbours
    sink_tips: np.ndarray
    left_run: np.ndarray      # face vertices on the left chain, source and
    right_run: np.ndarray     # sink excluded


def faces(g: OuterplanarStDigraph) -> Faces:
    """One row per interior face, read off its ring: a ring edge meets the
    next at the head edge's low end or at the child's high end, a corner
    that is the face's source when both leave it, its sink when both enter."""
    if "faces" in g._cache:
        return g._cache["faces"]
    inc = incidence(g)
    count, child = len(inc.head_of), g.nesting.order[1:]
    of_child = inc.outer[child]
    size = np.bincount(of_child, minlength=count) + 1
    last = size.cumsum() - 1
    start = last - size + 1
    ring = np.empty(count + len(child), dtype=np.int64)
    succ = np.arange(1, len(ring) + 1)      # the next ring edge's index
    ring[start] = inc.head_of
    ring[succ[:len(child)] + of_child] = child
    succ[last] = start
    ta, ha = g.tail[ring], g.head[ring]
    tb, hb = ta[succ], ha[succ]
    corner = np.maximum(ta, ha)
    corner[start] = np.minimum(ta[start], ha[start])
    src = (ta == corner) & (tb == corner)
    snk = (ha == corner) & (hb == corner)
    # each face of a plane st-digraph has one source and one sink corner
    if np.count_nonzero(src) != count or np.count_nonzero(snk) != count:
        raise InternalError("faces", "a face without one source and sink")
    face = np.arange(count).repeat(size)
    side = g.side[corner]
    side[src | snk] = -1
    src, snk = src.nonzero()[0], snk.nonzero()[0]
    f = Faces(corner[src], corner[snk],
              np.array((ha[src], hb[src])), np.array((ta[snk], tb[snk])),
              np.bincount(face[side == _LEFT], minlength=count),
              np.bincount(face[side == _RIGHT], minlength=count))
    g._cache["faces"] = f
    return f


@dataclass
class MedianScan:
    edges: np.ndarray          # edge indices that are medians, in input order
    left_witness: np.ndarray
    right_witness: np.ndarray


def median_scan(g: OuterplanarStDigraph) -> MedianScan:
    """Find every edge whose two faces fan out of its tail and into its
    head, with the fan tips on opposite chains: the edge is the (source,
    sink) pair of both faces, and its other source tips give one witness
    per chain."""
    if "median_scan" in g._cache:
        return g._cache["median_scan"]
    inc, f = incidence(g), faces(g)
    cand = ((inc.own >= 0) & (inc.outer >= 0)).nonzero()[0]
    x, y = inc.own[cand], inc.outer[cand]
    u, v = g.tail[cand], g.head[cand]
    fan = ((f.source[x] == u) & (f.sink[x] == v) & (f.source[y] == u)
           & (f.sink[y] == v))
    cand, x, y, u, v = cand[fan], x[fan], y[fan], u[fan], v[fan]
    # each face's other tip beside the edge
    (s1, s2), (t1, t2) = f.source_tips, f.sink_tips
    fa, fb = s1[x] + s2[x] - v, s1[y] + s2[y] - v
    ga, gb = t1[x] + t2[x] - u, t1[y] + t2[y] - u
    # side codes run 0..3: only a left and a right tip multiply to 2
    ok = ((g.side[fa] * g.side[fb] == _LEFT * _RIGHT)
          & (g.side[ga] * g.side[gb] == _LEFT * _RIGHT))
    cand, fa, fb = cand[ok], fa[ok], fb[ok]
    left = g.side[fa] == _LEFT
    scan = MedianScan(cand, np.where(left, fa, fb), np.where(left, fb, fa))
    g._cache["median_scan"] = scan
    return scan
