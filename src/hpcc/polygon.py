"""Channel costs inside st-polygons.

A hamiltonian path threads a polygon in one of four shapes: straight up
one chain then the other (one jump between the chains), or up a prefix of
one chain, across, and back for the suffix (two jumps).  Only the jumps
are completion edges, so each shape's cost is the jump crossing counts.

A polygon's boundary is a cycle of graph edges, so by planarity every edge
a jump crosses has both ends on the polygon, and the crossing engine's
chord index counts it (:func:`hpcc.crossings.crossing_counts`).
:func:`polygon_costs` prices every polygon of a :class:`PolygonTable`
with one such count: each chain run is swept bottom-up by jumps from
both ends of the other run, a one-jump channel reads one jump of a sweep,
and a two-jump channel takes the best split of two sweeps of one run.
"""

from __future__ import annotations

import math

import numpy as np

from .crossings import crossing_counts
from .decompose import PolygonTable
from .graph import OuterplanarStDigraph, ValidationError

CHANNELS = ("1L", "1R", "2L", "2R")

_BIG = np.iinfo(np.int64).max


class NotAnStPolygon(ValidationError):
    """The polygon does not describe an st-polygon of this graph."""


def _validate(g: OuterplanarStDigraph, t: PolygonTable) -> None:
    if t.n != g.n:
        raise NotAnStPolygon(f"polygons built for n={t.n}, graph has n={g.n}")
    s, k, pos = t.source, t.sink, g.topo_pos.take
    ok = ((np.minimum(s, k) >= 0) & (np.maximum(s, k) < g.n)
          & (pos(s, mode="clip") < pos(k, mode="clip"))
          & (1 <= t.left_lo) & (t.left_lo <= t.left_hi) & (t.left_hi <= g.k)
          & (1 <= t.right_lo) & (t.right_lo <= t.right_hi)
          & (t.right_hi <= g.m))
    if np.count_nonzero(ok) < len(ok):
        p = int(ok.argmin())
        raise NotAnStPolygon(f"polygon {s[p]}->{k[p]} needs a "
                             f"source below its sink among the graph's "
                             f"vertices and nonempty runs on both chains")
    bad = g.has_edges(s, k) != t.median
    if np.count_nonzero(bad):
        u, v = int(s[bad.argmax()]), int(k[bad.argmax()])
        raise NotAnStPolygon(f"polygon at {u} disagrees with the graph about "
                             f"the edge {u}->{v}")
    pit = t.owner[g.tail]
    bad = ((pit >= 0) & (pit == t.owner[g.head])
           & (g.side[g.tail] != g.side[g.head])).nonzero()[0]
    if len(bad):
        u, v = g.name(g.tail[bad[0]]), g.name(g.head[bad[0]])
        raise NotAnStPolygon(f"edge {u}->{v} joins the two chain runs "
                             f"inside one polygon")


def polygon_costs(g: OuterplanarStDigraph, t: PolygonTable):
    """Channel prices of every polygon of the table, as (cost, split).

    ``cost[p, c]`` prices channel ``CHANNELS[c]`` (inf where the run cannot
    be split); ``split[p, c]`` is the split realising it (lefts for 2L,
    rights for 2R, before the jump), 0 for the one-jump channels and
    where the run cannot be split.
    """
    P = len(t)
    if not P:
        return np.zeros((0, 4)), np.zeros((0, 4), dtype=np.int64)
    _validate(g, t)
    llo, lhi, rlo, rhi = t.left_lo, t.left_hi, t.right_lo, t.right_hi
    # every right run, then every left run, bottom-up (right rank j is id
    # n - j); the right run is swept from l_lo and l_hi, the left run
    # from r_lo and r_hi
    width = np.concatenate((rhi - rlo + 1, lhi - llo + 1))
    end = width.cumsum()
    start, N = end - width, int(end[-1])
    at = np.arange(N) - start.repeat(width)
    run = np.concatenate((rlo, llo)).repeat(width) + at
    run[:start[P]] = g.n - run[:start[P]]
    ends = np.concatenate((llo, g.n - rlo, lhi, g.n - rhi))
    lo, hi = crossing_counts(g, ends.repeat(np.concatenate((width, width))),
                             np.concatenate((run, run))).reshape(2, -1)
    # two jumps, split after q: lo[q] + hi[q + 1], the lowest q on ties
    enc = lo * N + at + 1
    enc[:-1] += hi[1:] * N
    enc[end - 1] = _BIG
    best = np.minimum.reduceat(enc, start)
    none = best == _BIG
    two, split = np.divmod(best, N)
    two = np.where(none, math.inf, two)
    split[none] = 0
    cut = np.zeros((P, 4), dtype=np.int64)
    cut[:, 2], cut[:, 3] = split[P:], split[:P]
    return np.array((lo[end[:P] - 1], hi[start[:P]], two[P:], two[:P])).T, cut
