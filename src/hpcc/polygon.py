"""Channel costs inside st-polygons.

A hamiltonian path threads a polygon in one of four shapes: straight up
one chain then the other (one jump between the chains), or up a prefix of
one chain, across, and back for the suffix (two jumps).  Only the jumps
are completion edges, so each shape's cost is the jump crossing counts.

Costing sweeps one jump endpoint along a chain run while the other stays
fixed.  For a fixed chord, the set of sweep ordinals it crosses is one
contiguous interval (or its complement), so every chord contributes a
constant number of difference-array events and all polygons of a
:class:`PolygonTable` are costed together in four vectorized passes
(:func:`polygon_costs`).
"""

from __future__ import annotations

import math

import numpy as np

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
    if not ok.all():
        p = int(np.flatnonzero(~ok)[0])
        raise NotAnStPolygon(f"polygon {s[p]}->{k[p]} needs a "
                             f"source below its sink among the graph's "
                             f"vertices and nonempty runs on both chains")
    bad = np.flatnonzero(g.has_edges(s, k) != t.median)
    if len(bad):
        u, v = int(s[bad[0]]), int(k[bad[0]])
        raise NotAnStPolygon(f"polygon at {u} disagrees with the graph about "
                             f"the edge {u}->{v}")


def _local_pairs(g: OuterplanarStDigraph, t: PolygonTable):
    """(edge id, polygon id) pairs; an edge shared by two polygons is listed
    under both.  Rejects edges that would pierce a polygon interior."""
    SIG, TAU = np.append(t.source, -1), np.append(t.sink, -1)
    pit, pih = t.owner[g.tail], t.owner[g.head]
    both = (pit >= 0) & (pit == pih)
    bad = both & (g.side[g.tail] != g.side[g.head])
    if bad.any():
        e = int(np.flatnonzero(bad)[0])
        raise NotAnStPolygon(
            f"edge {g.name(g.tail[e])}->{g.name(g.head[e])} joins the two "
            f"chain runs inside one polygon")
    ok_t = (pit >= 0) & (both | (g.head == SIG[pit]) | (g.head == TAU[pit]))
    ok_h = (pih >= 0) & (~both) & \
        ((g.tail == SIG[pih]) | (g.tail == TAU[pih]))

    med_p = np.flatnonzero(t.median)
    return (np.concatenate([np.flatnonzero(ok_t), np.flatnonzero(ok_h),
                            g.edge_ids(t.source[med_p], t.sink[med_p])]),
            np.concatenate([pit[ok_t], pih[ok_h], med_p]))


def _jump_costs(pa, pb, base, fixv, orda, ordb, lena, flat_len):
    """Crossing counts for one jump family, summed per sweep ordinal.

    pa/pb: chord endpoints (ids are cycle positions, so also positions).
    fixv: the jump's fixed endpoint per pair.  orda/ordb: the chord
    endpoints mapped to sweep ordinals; values in [1, lena] are on the
    moving run.  Returns the cumulative difference array.
    """
    d = np.zeros(flat_len, dtype=np.int64)
    skip = (pa == fixv) | (pb == fixv)
    in0 = (pa < fixv) & (fixv < pb)     # fixed endpoint ids == positions
    lo = np.maximum(np.minimum(orda, ordb) + 1, 1)
    hi = np.minimum(np.maximum(orda, ordb) - 1, lena)

    m = ~skip & ~in0 & (lo <= hi)       # crossed while moving inside chord
    np.add.at(d, base[m] + lo[m], 1)
    np.add.at(d, base[m] + hi[m] + 1, -1)

    m = ~skip & in0                     # crossed while moving outside
    np.add.at(d, base[m] + 1, 1)
    np.add.at(d, base[m] + lena[m] + 1, -1)
    mi = m & (lo <= hi)
    np.add.at(d, base[mi] + lo[mi], -1)
    np.add.at(d, base[mi] + hi[mi] + 1, 1)
    for q in (orda, ordb):              # shared endpoints never cross
        ms = m & (q >= 1) & (q <= lena)
        np.add.at(d, base[ms] + q[ms], -1)
        np.add.at(d, base[ms] + q[ms] + 1, 1)
    return np.cumsum(d)


def _segment_best(c_first, c_second, off, width, count):
    """min of c_first[q] + c_second[q+1] over q in 1..len-1, per segment."""
    n_flat = len(c_first)
    q = np.arange(n_flat) - np.repeat(off[:-1], width)
    valid = (q >= 1) & (q <= np.repeat(count - 1, width))
    shifted = np.concatenate([c_second[1:], [0]])
    enc = np.where(valid, (c_first + shifted) * n_flat + q, _BIG)
    best = np.minimum.reduceat(enc, off[:-1])
    cost = np.where(best == _BIG, -1, best // max(n_flat, 1))
    split = np.where(best == _BIG, 0, best % max(n_flat, 1))
    return cost, split


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
    pe, pp = _local_pairs(g, t)
    pa = np.minimum(g.tail[pe], g.head[pe])
    pb = np.maximum(g.tail[pe], g.head[pe])

    llo, lhi, rlo, rhi = t.left_lo, t.left_hi, t.right_lo, t.right_hi
    K, M = lhi - llo + 1, rhi - rlo + 1

    offR = np.zeros(P + 1, dtype=np.int64)
    np.cumsum(M + 2, out=offR[1:])
    offL = np.zeros(P + 1, dtype=np.int64)
    np.cumsum(K + 2, out=offL[1:])

    # moving right ordinal q: position n - rlo + 1 - q; moving left
    # ordinal i: position llo - 1 + i.  Ordinal in range iff the chord
    # endpoint lies on that run.
    cr = g.n - rlo[pp] + 1
    cl = llo[pp] - 1
    ra, rb = cr - pa, cr - pb
    la, lb = pa - cl, pb - cl
    baseR, baseL = offR[pp], offL[pp]
    mR, kL = M[pp], K[pp]

    f1 = _jump_costs(pa, pb, baseR, llo[pp], ra, rb, mR, int(offR[-1]))
    f2 = _jump_costs(pa, pb, baseR, lhi[pp], ra, rb, mR, int(offR[-1]))
    f3 = _jump_costs(pa, pb, baseL, g.n - rlo[pp], la, lb, kL, int(offL[-1]))
    f4 = _jump_costs(pa, pb, baseL, g.n - rhi[pp], la, lb, kL, int(offL[-1]))

    c2R, q2R = _segment_best(f1, f2, offR, M + 2, M)
    c2L, q2L = _segment_best(f3, f4, offL, K + 2, K)
    cost = np.stack([f1[offR[:-1] + M], f2[offR[:-1] + 1], c2L, c2R],
                    axis=1).astype(np.float64)
    cost[:, 2:][cost[:, 2:] < 0] = math.inf
    return cost, np.column_stack([np.zeros((P, 2), np.int64), q2L, q2R])
