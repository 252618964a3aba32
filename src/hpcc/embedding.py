"""Rotation system, face enumeration and median detection.

Every edge appears as two half-edge rows (one per endpoint).  Rows are
grouped by their base vertex and sorted by clockwise angle, which on the
cycle layout is simply ``(other - base) mod n``.  Faces are orbits of the
permutation ``rot_next . twin``; the outer face walks the whole boundary
cycle, and its slots are exactly those whose ``other`` is ``base + 1``
(mod n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import OuterplanarStDigraph, _LEFT, _RIGHT


@dataclass
class Incidence:
    base: np.ndarray       # per slot: vertex the half-edge leaves
    other: np.ndarray      # per slot: vertex it points at
    out: np.ndarray        # per slot: True if the G-edge is directed base->other
    indptr: np.ndarray
    rot_next: np.ndarray
    rot_prev: np.ndarray
    twin: np.ndarray
    slot_at_tail: np.ndarray   # per edge: slot based at its tail
    slot_at_head: np.ndarray


def incidence(g: OuterplanarStDigraph) -> Incidence:
    if "incidence" in g._cache:
        return g._cache["incidence"]
    n, E = g.n, g.edge_count
    dt = np.int32 if 2 * E < 2**31 else np.int64
    base = np.concatenate([g.tail, g.head])
    other = np.concatenate([g.head, g.tail])
    # one key per slot, (base, angle); keys are distinct, as no edge is
    # given twice or in both directions
    order = (base * n + (other - base) % n).argsort().astype(dt)
    base, other = base[order].astype(dt), other[order].astype(dt)
    out = order < E     # the first E rows are the tail slots

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(base, minlength=n), out=indptr[1:])

    inv = np.empty(2 * E, dtype=dt)
    inv[order] = np.arange(2 * E, dtype=dt)
    slot_at_tail, slot_at_head = inv[:E], inv[E:]

    slots = np.arange(2 * E, dtype=dt)
    rot_next = slots + 1
    at_end = rot_next == indptr[base + 1]
    rot_next[at_end] = indptr[base[at_end]]
    rot_prev = slots - 1
    at_start = slots == indptr[base]
    rot_prev[at_start] = indptr[base[at_start] + 1] - 1

    twin = np.empty(2 * E, dtype=dt)
    twin[slot_at_tail] = slot_at_head
    twin[slot_at_head] = slot_at_tail

    inc = Incidence(base, other, out, indptr, rot_next, rot_prev,
                    twin, slot_at_tail, slot_at_head)
    g._cache["incidence"] = inc
    return inc


@dataclass
class Faces:
    count: int
    of_slot: np.ndarray    # compact face index per half-edge slot
    outer: int
    src_of: np.ndarray     # unique source corner vertex of interior faces
    snk_of: np.ndarray
    left_count: np.ndarray    # face vertices on the left chain, corners included
    right_count: np.ndarray
    src_nb1: np.ndarray    # the two face neighbours of the source corner
    src_nb2: np.ndarray


def faces(g: OuterplanarStDigraph) -> Faces:
    if "faces" in g._cache:
        return g._cache["faces"]
    inc = incidence(g)
    nslots, dt = len(inc.base), inc.base.dtype
    face_next = inc.rot_next[inc.twin]

    # the outer face walks the boundary cycle: exactly the slots that step
    # one up it, labelled with the first of them outright.  The doubling
    # then finds the smallest slot of each interior orbit
    on_outer = inc.other == (inc.base + 1) % g.n
    outer_slot = int(on_outer.argmax())
    lab = np.arange(nslots, dtype=dt)
    lab[on_outer] = outer_slot
    hop = face_next
    while True:
        new = np.minimum(lab, lab[hop])
        if np.array_equal(new, lab):
            break
        lab = new
        hop = hop[hop]

    # faces are numbered by their smallest slot, ascending
    first = lab == np.arange(nslots)
    number = np.cumsum(first, dtype=np.int32) - 1
    of_slot = number[lab]
    outer = int(number[outer_slot])
    count = int(number[-1]) + 1

    nxt = face_next
    src_corner = (~inc.out) & inc.out[nxt]
    snk_corner = inc.out & (~inc.out[nxt])
    corner_v = inc.other

    src_of = np.full(count, -1, dtype=np.int64)
    snk_of = np.full(count, -1, dtype=np.int64)
    src_of[of_slot[src_corner]] = corner_v[src_corner]
    snk_of[of_slot[snk_corner]] = corner_v[snk_corner]

    left_count = np.bincount(of_slot[g.side[corner_v] == _LEFT],
                             minlength=count)
    right_count = np.bincount(of_slot[g.side[corner_v] == _RIGHT],
                              minlength=count)

    src_nb1 = np.full(count, -1, dtype=np.int64)
    src_nb2 = np.full(count, -1, dtype=np.int64)
    src_nb1[of_slot[src_corner]] = inc.base[src_corner]
    src_nb2[of_slot[src_corner]] = inc.other[nxt[src_corner]]

    f = Faces(count, of_slot, outer, src_of, snk_of, left_count, right_count,
              src_nb1, src_nb2)
    g._cache["faces"] = f
    return f


@dataclass
class MedianScan:
    edges: np.ndarray          # edge indices that are medians, in input order
    left_witness: np.ndarray
    right_witness: np.ndarray


def median_scan(g: OuterplanarStDigraph) -> MedianScan:
    """Find every edge whose two incident faces fan out of its tail and into
    its head, with the fan tips on opposite chains.

    The flanking slots in the tail's rotation give one witness per chain.
    """
    if "median_scan" in g._cache:
        return g._cache["median_scan"]
    inc = incidence(g)
    n = g.n
    span = (g.head - g.tail) % n
    cand = np.flatnonzero((span != 1) & (span != n - 1))

    rt = inc.slot_at_tail[cand]
    rh = inc.slot_at_head[cand]
    fa = inc.other[inc.rot_prev[rt]].astype(np.int64)
    fb = inc.other[inc.rot_next[rt]].astype(np.int64)
    ga = inc.other[inc.rot_prev[rh]].astype(np.int64)
    gb = inc.other[inc.rot_next[rh]].astype(np.int64)

    def opposite(x, y):
        sx, sy = g.side[x], g.side[y]
        return ((sx == _LEFT) & (sy == _RIGHT)) | ((sx == _RIGHT) & (sy == _LEFT))

    ok = (inc.out[inc.rot_prev[rt]] & inc.out[inc.rot_next[rt]]
          & ~inc.out[inc.rot_prev[rh]] & ~inc.out[inc.rot_next[rh]]
          & opposite(fa, fb) & opposite(ga, gb))

    cand = cand[ok]
    fa, fb = fa[ok], fb[ok]
    lw = np.where(g.side[fa] == _LEFT, fa, fb)
    rw = np.where(g.side[fa] == _LEFT, fb, fa)
    scan = MedianScan(cand, lw, rw)
    g._cache["median_scan"] = scan
    return scan
