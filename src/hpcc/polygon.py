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
(:func:`channel_costs`).  :class:`PolygonCosts` and :func:`channel_order`
are per-polygon views of the same numbers for the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import PolygonTable, StPolygon
from .graph import OuterplanarStDigraph, Edge, ValidationError

CHANNELS = ("1L", "1R", "2L", "2R")

_BIG = np.iinfo(np.int64).max


class NotAnStPolygon(ValidationError):
    """The polygon does not describe an st-polygon of this graph."""


@dataclass(frozen=True)
class PolygonCosts:
    polygon: StPolygon
    c1L: int
    c1R: int
    c2L: int | float        # inf when the left run cannot be split
    c2R: int | float
    q2L: int | None         # split point realising c2L (lefts before the jump)
    q2R: int | None
    w1L: tuple[Edge, ...]
    w1R: tuple[Edge, ...]
    w2L: tuple[Edge, ...] | None
    w2R: tuple[Edge, ...] | None

    def cost(self, tag: str) -> int | float:
        return getattr(self, "c" + tag)

    def jumps(self, tag: str) -> tuple[Edge, ...]:
        w = getattr(self, "w" + tag)
        if w is None:
            raise ValueError(f"channel {tag} is not available here")
        return w

    def split(self, tag: str) -> int | None:
        return getattr(self, "q" + tag) if tag in ("2L", "2R") else None

    def order(self, tag: str) -> list[int]:
        return channel_order(self.polygon, tag, self.split(tag))

    @property
    def left_best(self) -> tuple[int | float, str]:
        return (self.c1L, "1L") if self.c1L <= self.c2L else (self.c2L, "2L")

    @property
    def right_best(self) -> tuple[int | float, str]:
        return (self.c1R, "1R") if self.c1R <= self.c2R else (self.c2R, "2R")


def channel_order(p: StPolygon, tag: str, q: int | None = None) -> list[int]:
    """Vertex order a channel assigns to the polygon, source to sink."""
    lefts, rights = p.left_vertices, p.right_vertices
    if tag in ("2L", "2R"):
        run = lefts if tag == "2L" else rights
        if q is None or not 1 <= q < len(run):
            raise ValueError(f"channel {tag} needs a split in 1..{len(run) - 1}")
    if tag == "1L":
        mid = rights + lefts
    elif tag == "1R":
        mid = lefts + rights
    elif tag == "2L":
        mid = lefts[:q] + rights + lefts[q:]
    elif tag == "2R":
        mid = rights[:q] + lefts + rights[q:]
    else:
        raise ValueError(f"unknown channel {tag!r}")
    return [p.source] + mid + [p.sink]


def _table(g: OuterplanarStDigraph, polys: list[StPolygon]) -> PolygonTable:
    """Table over any polygon list, in its order; junctions all GAP."""
    for p in polys:
        if p.n != g.n:
            raise NotAnStPolygon(f"polygon built for n={p.n}, graph has n={g.n}")
    rows = np.array([(p.source, p.sink, p.left_lo, p.left_hi, p.right_lo,
                      p.right_hi, p.median is not None,
                      -1 if p.lower_limit is None else p.lower_limit[1],
                      -1 if p.upper_limit is None else p.upper_limit[0])
                     for p in polys], dtype=np.int64).reshape(-1, 9).T
    return PolygonTable(g.n, *rows[:6], rows[6] == 1, *rows[7:],
                        np.zeros(len(polys), np.int64), np.arange(len(polys)))


def _validate(g: OuterplanarStDigraph, t: PolygonTable) -> None:
    ok = ((1 <= t.left_lo) & (t.left_lo <= t.left_hi) & (t.left_hi <= g.k)
          & (1 <= t.right_lo) & (t.right_lo <= t.right_hi)
          & (t.right_hi <= g.m))
    if not ok.all():
        p = int(np.flatnonzero(~ok)[0])
        raise NotAnStPolygon(f"polygon at {t.source[p]} needs nonempty runs "
                             f"on both chains")
    bad = np.flatnonzero(g.has_edges(t.source, t.sink) != t.median)
    if len(bad):
        s, k = int(t.source[bad[0]]), int(t.sink[bad[0]])
        raise NotAnStPolygon(f"polygon at {s} disagrees with the graph about "
                             f"the edge {s}->{k}")


def _local_pairs(g: OuterplanarStDigraph, t: PolygonTable):
    """(edge id, polygon id) pairs; an edge shared by two polygons is listed
    under both.  Rejects edges that would pierce a polygon interior."""
    own = np.full(g.n, -1, dtype=np.int64)
    ids, pi = t.run_vertices()
    own[ids] = pi
    SIG, TAU = np.append(t.source, -1), np.append(t.sink, -1)

    pit, pih = own[g.tail], own[g.head]
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

    eids = np.arange(g.edge_count, dtype=np.int64)
    med_p = np.flatnonzero(t.median)
    keys = t.source[med_p] * g.n + t.sink[med_p]
    return (np.concatenate([eids[ok_t], eids[ok_h],
                            np.searchsorted(g._edge_keys, keys)]),
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


def channel_costs(g: OuterplanarStDigraph, t: PolygonTable):
    """Channel prices of every polygon of the table, as (cost, split).

    ``cost[p, c]`` prices channel ``CHANNELS[c]`` (inf where the run cannot
    be split); ``split[p, c]`` is the split realising it (lefts for 2L,
    rights for 2R, before the jump), 0 for the one-jump channels.
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


def polygon_costs(g: OuterplanarStDigraph,
                  polys: list[StPolygon]) -> list[PolygonCosts]:
    """All four channel costs for every polygon, with jump witnesses."""
    if not polys:
        return []
    costs, splits = channel_costs(g, _table(g, polys))
    out = []
    for p, c, (_, _, q2L, q2R) in zip(polys, costs.tolist(), splits.tolist()):
        lam1, lamK = p.left_lo, p.left_hi
        rho1, rhoM = g.n - p.right_lo, g.n - p.right_hi
        sl, sr = c[2] != math.inf, c[3] != math.inf   # splittable runs
        out.append(PolygonCosts(
            polygon=p, c1L=int(c[0]), c1R=int(c[1]),
            c2L=int(c[2]) if sl else math.inf,
            c2R=int(c[3]) if sr else math.inf,
            q2L=q2L if sl else None, q2R=q2R if sr else None,
            w1L=((rhoM, lam1),), w1R=((lamK, rho1),),
            w2L=((lam1 + q2L - 1, rho1), (rhoM, lam1 + q2L)) if sl else None,
            w2R=((rho1 - q2R + 1, lam1), (lamK, rho1 - q2R)) if sr else None))
    return out
