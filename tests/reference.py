"""Helpers only the tests need, built on the public API.

The edge test for one pair, face walks, rhombus seed listings, the
stored topological order and edge classes, the topological order as a
path, channel orders and their jumps, channel prices by plain loops,
one-row polygon tables,
polygon subgraphs and polygon edge lists, plain-Python
recomputations of the tables ``build_graph`` stores and of its
topological merge, random linear extensions, the solver's
original element-by-element DP and splice, the crossings of one
completion edge, the set-based verifier, the per-edge HP-extended
graph and the list form of ``build_hp_extended``'s arrays, book builder,
book validator and SVG renderer, and the dict payloads of the CLI's three
bulk documents.  The array-backed solver must reproduce that
reference order exactly, tie-breaks included, the array-backed verifier
and post-solve layers must reproduce their references' results and
problem lists, and
the direct JSON writers must reproduce ``indented(payload)`` byte for
byte.
"""

import importlib.util
import json
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hpcc import (FreeVertex, PolygonTable, StPolygon, build_graph,
                  crossings, decompose, polygon_costs)
from hpcc.book import (LEFT_PAGE, RIGHT_PAGE, BookEmbedding, EdgeDrawing,
                       InvalidSolution, Segment)
from hpcc.crossings import (CompletionSolution, CrossingRecord,
                            NotLinearExtension, SameSideCompletionEdge,
                            _batch_crossings,
                            _check_completion_pairs, build_hp_extended,
                            scan_order, solution_crossings)
from hpcc.graph import (_LEFT, _RIGHT, _SNK, _SRC, NotAPermutation,
                        ValidationError, is_linear_extension)
from hpcc.decompose import GAP
from hpcc.oracle import _NaiveScorer
from hpcc.polygon import CHANNELS, _validate
from hpcc.render import _MARGIN, _STEP, _bulge, _xml_text
from hpcc.solver import solution_problems

_L, _R = 0, 1
LADDER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.py"


def ladder_module():
    """The benchmark's ladder generator, imported by path."""
    name = "perfbench_ladder"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, LADDER_PY)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod      # dataclasses resolve their module
        spec.loader.exec_module(mod)
    return sys.modules[name]


def has_edge(g, u, v):
    """Whether ``(u, v)`` is an edge of ``g``."""
    return bool(g.edge_ids(u, v) >= 0)


def indented(payload):
    """The bytes the CLI wrote for a payload before its direct writers."""
    return json.dumps(payload, indent=2, sort_keys=True)


def graph_payload(g):
    return {
        "left": [g.names[v] for v in g.left_seq],
        "right": [g.names[v] for v in g.right_seq],
        "s": g.names[g.s],
        "t": g.names[g.t],
        "edges": [[g.names[int(u)], g.names[int(v)]]
                  for u, v in zip(g.tail, g.head)],
    }


def solution_payload(g, sol):
    return {
        "crossings": sol.crossings,
        "order": g.names_of(sol.order),
        "completion_edges": [[g.name(u), g.name(v)]
                             for u, v in sol.completion_edges],
        "records": [
            {
                "completion_edge": [g.name(r.completion_edge[0]),
                                    g.name(r.completion_edge[1])],
                "crossed_edge": [g.name(r.crossed_edge[0]),
                                 g.name(r.crossed_edge[1])],
                "ordinal": r.ordinal,
            }
            for r in sol.records
        ],
    }


def book_payload(g, be):
    return {
        "spine": [g.name(v) for v in be.spine],
        "edges": [
            {
                "edge": [g.name(d.edge[0]), g.name(d.edge[1])],
                "segments": [
                    {"page": s.page, "from": s.start, "to": s.end}
                    for s in d.segments
                ],
                "spine_crossings": list(d.spine_crossings),
            }
            for d in be.drawings
        ],
    }


def rotation_faces(g):
    """Every face of the rotation system as a vertex cycle, and the face of
    each slot (u, v), by plain loops.

    Each vertex's neighbours are sorted by ``(other - base) mod n``, and the
    successor of a slot (u, v) is ``rot_next`` of its twin (v, u): the
    neighbour after u around v.  The walk from slot (0, 1), which steps
    once up the vertex cycle everywhere, is the outer face, face 0; the
    interior faces follow in the order of their smallest slots."""
    n = g.n
    rot = defaultdict(list)
    for u, v in zip(g.tail.tolist(), g.head.tolist()):
        rot[u].append(v)
        rot[v].append(u)
    for u, ring in rot.items():
        ring.sort(key=lambda w: (w - u) % n)
    cycles, face_of = [], {}
    for start in [(0, 1)] + [(u, v) for u in sorted(rot) for v in rot[u]]:
        cycle, slot = [], start
        while slot not in face_of:
            face_of[slot] = len(cycles)
            cycle.append(slot[0])
            u, v = slot
            ring = rot[v]
            slot = (v, ring[(ring.index(u) + 1) % len(ring)])
        if cycle:
            cycles.append(tuple(cycle))
    return cycles, face_of


def face_vertices(g):
    """Every face's vertex cycle, the outer face first."""
    return rotation_faces(g)[0]


def interior_faces_as_sets(g):
    return [frozenset(cycle) for cycle in face_vertices(g)[1:]]


@dataclass(frozen=True)
class FaceRow:
    """One interior face as ``faces`` describes it, with every corner whose
    two face edges both leave it (sources) or both enter it (sinks)."""
    source: int
    sink: int
    source_tips: frozenset
    sink_tips: frozenset
    left_run: int       # face vertices on the left chain, source and sink
    right_run: int      # excluded
    sources: tuple
    sinks: tuple


def face_rows(g):
    """One :class:`FaceRow` per interior face, in walk order."""
    edges = g.edge_set
    rows = []
    for cycle in face_vertices(g)[1:]:
        src, snk = [], []
        for i, b in enumerate(cycle):
            a, c = cycle[i - 1], cycle[(i + 1) % len(cycle)]
            if (b, a) in edges and (b, c) in edges:
                src.append((b, frozenset({a, c})))
            if (a, b) in edges and (c, b) in edges:
                snk.append((b, frozenset({a, c})))
        (source, source_tips), (sink, sink_tips) = src[0], snk[0]
        sides = [int(g.side[v]) for v in cycle if v not in (source, sink)]
        rows.append(FaceRow(source, sink, source_tips, sink_tips,
                            sides.count(_LEFT), sides.count(_RIGHT),
                            tuple(v for v, _ in src),
                            tuple(v for v, _ in snk)))
    return rows


def median_candidates(g):
    """Median edges with their fan witnesses, bottom-up: edges whose two
    faces are interior with the edge's tail as source and head as sink,
    whose other source tips lie on opposite chains, and whose other sink
    tips do too."""
    _, face_of = rotation_faces(g)
    rows = face_rows(g)
    ti = g.topo_pos

    def opposite(x, y):
        return {int(g.side[x]), int(g.side[y])} == {_LEFT, _RIGHT}

    out = []
    for u, v in g.edge_set:
        fa, fb = face_of[(u, v)], face_of[(v, u)]
        if not (fa and fb):
            continue
        ra, rb = rows[fa - 1], rows[fb - 1]
        if (ra.source, ra.sink, rb.source, rb.sink) != (u, v, u, v):
            continue
        (a,), (b,) = ra.source_tips - {v}, rb.source_tips - {v}
        (c,), (d,) = ra.sink_tips - {u}, rb.sink_tips - {u}
        if opposite(a, b) and opposite(c, d):
            lw, rw = (a, b) if g.side[a] == _LEFT else (b, a)
            out.append(((u, v), (lw, rw)))
    out.sort(key=lambda m: (ti[m[0][0]], ti[m[0][1]]))
    return out


def weak_polygon_seeds(g):
    """Faces with chain vertices on both sides and no (source, sink) edge,
    bottom-up, as (source, chain vertices by side and rank, sink) with the
    limits of the polygon each one seeds."""
    ti = g.topo_pos
    limits = {(p.source, p.sink): (p.lower_limit, p.upper_limit)
              for p in decompose(g) if isinstance(p, StPolygon)}
    out = []
    for cycle, row in zip(face_vertices(g)[1:], face_rows(g)):
        src, snk = row.source, row.sink
        if has_edge(g, src, snk):
            continue
        mids = sorted((v for v in cycle if v not in (src, snk)),
                      key=lambda v: (int(g.side[v]),
                                     max(g.lcoord[v], g.rcoord[v])))
        if len({int(g.side[v]) for v in mids}) == 2:
            out.append(((src, *mids, snk), limits[(src, snk)]))
    out.sort(key=lambda seed: (ti[seed[0][0]], ti[seed[0][-1]]))
    return out


def topological_order(g):
    """The canonical topological order, from the positions ``build_graph``
    stores."""
    return tuple(np.argsort(g.topo_pos).tolist())


def random_linear_extension(g, rng):
    """A linear extension drawn by ``rng``: each step places a random
    vertex whose in-neighbours are all placed."""
    indeg = np.bincount(g.head, minlength=g.n).tolist()
    out = [[] for _ in range(g.n)]
    for u, v in zip(g.tail.tolist(), g.head.tolist()):
        out[u].append(v)
    ready, order = [g.s], []
    while ready:
        u = ready.pop(rng.randrange(len(ready)))
        order.append(u)
        for v in out[u]:
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return order


def edge_classes(g):
    """Class code per edge, aligned with g.tail/g.head."""
    return g.classes


def extract_hamiltonian_path(g):
    """The topological order as a path, or None if some hop is not an edge."""
    order = np.argsort(g.topo_pos)
    if bool(g.has_edges(order[:-1], order[1:]).all()):
        return tuple(int(v) for v in order)
    return None


def channel_order(p, tag, q=None):
    """Vertex order a channel assigns to the polygon, source to sink; q is
    the split of a two-jump channel (lefts for 2L, rights for 2R, before
    the jump)."""
    lefts, rights = p.left_vertices, p.right_vertices
    if tag in ("2L", "2R"):
        run = lefts if tag == "2L" else rights
        if q is None or not 1 <= q < len(run):
            raise ValueError(f"channel {tag} needs a split in "
                             f"1..{len(run) - 1}")
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


def channel_gaps(g, p, tag, q=None):
    """The channel order's hops that are not edges: its jumps."""
    order = channel_order(p, tag, q)
    return [(u, v) for u, v in zip(order, order[1:])
            if not has_edge(g, u, v)]


def reference_polygon_costs(g):
    """``polygon_costs`` of the decomposition by plain loops: every channel
    and split of every polygon, its jumps' crossings counted pairwise, the
    lowest split kept on ties."""
    naive = _NaiveScorer(g)
    polys = [p for p in decompose(g) if isinstance(p, StPolygon)]
    cost = np.full((len(polys), len(CHANNELS)), math.inf)
    split = np.zeros(cost.shape, dtype=np.int64)
    for i, p in enumerate(polys):
        for c, tag in enumerate(CHANNELS):
            run = p.left_vertices if tag == "2L" else p.right_vertices
            for q in range(1, len(run)) if tag[0] == "2" else [None]:
                price = sum(len(naive.crossings_of(*ce))
                            for ce in channel_gaps(g, p, tag, q))
                if price < cost[i, c]:
                    cost[i, c], split[i, c] = price, q or 0
    return cost, split


def polygon_table(p):
    """A one-row PolygonTable holding the polygon, junction GAP."""
    def col(x):
        return np.array([x], dtype=np.int64)
    return PolygonTable(
        p.n, col(p.source), col(p.sink), col(p.left_lo), col(p.left_hi),
        col(p.right_lo), col(p.right_hi), np.array([p.median is not None]),
        col(-1 if p.lower_limit is None else p.lower_limit[1]),
        col(-1 if p.upper_limit is None else p.upper_limit[0]),
        col(GAP), col(0))


def polygon_subgraph(g, p):
    """The polygon as a standalone instance; vertex names carry over."""
    _validate(g, polygon_table(p))
    held = {p.source, p.sink, *p.left_vertices, *p.right_vertices}
    edges = [(g.name(u), g.name(v))
             for u, v in zip(g.tail.tolist(), g.head.tolist())
             if u in held and v in held]
    return build_graph([g.name(v) for v in p.left_vertices],
                       [g.name(v) for v in p.right_vertices],
                       edges, s=g.name(p.source), t=g.name(p.sink))


def local_edges(g, p):
    """Edges with both endpoints on the polygon, boundary included."""
    sub = polygon_subgraph(g, p)
    return sorted((g.vid(sub.name(u)), g.vid(sub.name(v)))
                  for u, v in zip(sub.tail.tolist(), sub.head.tolist()))


# -- the graph's stored tables, recomputed ---------------------------------

@dataclass
class Tables:
    lcoord: list
    rcoord: list
    classes: list
    lo_out: list
    hi_in: list
    # both one-sided families as one family on the joint line (the right
    # line shifted past t's left coordinate), as ChordIndex stores it
    opened: list
    under: list
    depth_key: list
    deid: list
    two: list       # chords as (left rank, right rank, edge id)
    # edge ids by (nesting depth, lo, -hi) of their cycle intervals, and
    # the innermost interval containing each, -1 for the root
    nested: list
    parent: list
    topo: list
    topo_pos: list  # topo's inverse: each vertex's position in it


def reference_tables(g):
    """Every table ``build_graph`` stores, recomputed with plain loops from
    ``g.tail``, ``g.head`` and ``g.side`` (vertex ids are cycle positions)."""
    n, side = g.n, g.side.tolist()
    edges = list(zip(g.tail.tolist(), g.head.tolist()))
    s, t = side.index(_SRC), side.index(_SNK)
    chains = ([v for v in range(n) if side[v] == _LEFT],
              [v for v in reversed(range(n)) if side[v] == _RIGHT])
    lcoord, rcoord = [-1] * n, [-1] * n
    for chain, coord in zip(chains, (lcoord, rcoord)):
        coord[s], coord[t] = 0, len(chain) + 1
        for r, v in enumerate(chain, 1):
            coord[v] = r
    rank = [max(a, b) for a, b in zip(lcoord, rcoord)]   # on chain vertices

    def edge_class(u, v):
        sides = {side[u], side[v]}
        if _LEFT in sides and _RIGHT in sides:
            return 2
        return 1 if _RIGHT in sides else 0

    classes = [edge_class(u, v) for u, v in edges]
    lo, hi = {}, {}
    chords = ([], [], [])
    for e, ((u, v), c) in enumerate(zip(edges, classes)):
        if c == 2:
            lo[u] = min(lo.get(u, n), rank[v])
            hi[v] = max(hi.get(v, -1), rank[u])
            a, b = (u, v) if side[u] == _LEFT else (v, u)
            chords[2].append((lcoord[a], rcoord[b], e))
            continue
        coord = lcoord if c == 0 else rcoord
        a, b = sorted((coord[u], coord[v]))
        if b - a >= 2:
            chords[c].append((a, b, e))

    preds = [set() for _ in range(n)]
    for u, v in edges:
        preds[v].add(u)
    topo, (left, right), i, j = [s], chains, 0, 0
    while i < len(left) or j < len(right):
        ok_l = i < len(left) and preds[left[i]] <= set(topo)
        ok_r = j < len(right) and preds[right[j]] <= set(topo)
        assert ok_l or ok_r, "no chain head is ready"
        if ok_l and (not ok_r or i <= j):
            topo.append(left[i])
            i += 1
        else:
            topo.append(right[j])
            j += 1
    topo.append(t)
    topo_pos = [0] * n
    for i, v in enumerate(topo):
        topo_pos[v] = i

    lt, rt = lcoord[t], rcoord[t]
    joint = sorted(chords[0] + [(a + lt + 1, b + lt + 1, e)
                                for a, b, e in chords[1]],
                   key=lambda c: (c[0], -c[1]))
    line = range(lt + rt + 2)
    opened = [sum(a < q for a, _, _ in joint) for q in line]
    under = [sum(a < q < b for a, b, _ in joint) for q in line]
    # nesting depth: the other chords containing the chord
    depth = [sum(a2 <= a and b <= b2 for a2, b2, _ in joint) - 1
             for a, b, _ in joint]
    by_depth = sorted(range(len(joint)), key=lambda i: (depth[i], i))
    spans = [sorted(uv) for uv in edges]
    around = [[f for f, (c, d) in enumerate(spans) if f != e and c <= a
               and b <= d] for e, (a, b) in enumerate(spans)]
    nested = sorted(range(len(edges)), key=lambda e: (
        len(around[e]), spans[e][0], -spans[e][1], e))
    parent = [min(around[e], key=lambda f: spans[f][1] - spans[f][0])
              if around[e] else -1 for e in nested]
    return Tables(lcoord, rcoord, classes,
                  [lo.get(v, 0) for v in range(n)],
                  [hi.get(v, -1) for v in range(n)],
                  opened, under,
                  [depth[i] * len(joint) + i for i in by_depth],
                  [joint[i][2] for i in by_depth],
                  sorted(chords[2]), nested, parent, topo, topo_pos)


def cycle_crossings(left, right, edges, s, t):
    """Every pair of edges whose chords on the vertex cycle (s, the left
    chain bottom-up, t, the right chain top-down) strictly interleave, as
    a set of frozensets of name pairs, by a plain pairwise loop."""
    pos = {v: i for i, v in enumerate([s, *left, t, *reversed(right)])}
    spans = [sorted((pos[u], pos[v])) for u, v in edges]
    pairs = set()
    for i, (a, b) in enumerate(spans):
        for j, (c, d) in enumerate(spans[:i]):
            if a < c < b < d or c < a < d < b:
                pairs.add(frozenset((tuple(edges[i]), tuple(edges[j]))))
    return pairs


def reference_toposort(k, m, hi_in):
    """Topological positions by the plain merge loop over the chain heads,
    lowest rank first, left on ties; None where the merge gets stuck."""
    n = k + m + 2
    rl = np.maximum.accumulate(hi_in[:k + 1]).tolist()
    rr = np.maximum.accumulate(
        np.concatenate(([-1], hi_in[:k + 1:-1]))).tolist()
    order, i, j = [0], 1, 1
    while i <= k or j <= m:
        left_ok = i <= k and rl[i] < j
        right_ok = j <= m and rr[j] < i
        if left_ok and (not right_ok or i <= j):
            order.append(i)
            i += 1
        elif right_ok:
            order.append(n - j)
            j += 1
        else:
            return None
    order.append(k + 1)
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    return pos


# -- the original per-element DP and splice --------------------------------

def _junction(prev, nxt):
    if isinstance(prev, StPolygon) and isinstance(nxt, StPolygon):
        if prev.sink == nxt.source:
            return "vertex"
        if nxt.lower_limit == (nxt.source, prev.sink):
            return "edge"
    return "gap"


def _shared_edge_terms(cL, cR, row, sink_on_left):
    c1L, c1R, c2L, c2R = row
    if sink_on_left:
        terms_l = ((cL + c1L + 1, _L, "1L"), (cR + c1L, _R, "1L"),
                   (cL + c2L, _L, "2L"), (cR + c2L, _R, "2L"))
        terms_r = ((cL + c1R, _L, "1R"), (cR + c1R, _R, "1R"),
                   (cL + c2R + 1, _L, "2R"), (cR + c2R, _R, "2R"))
    else:
        terms_l = ((cL + c1L, _L, "1L"), (cR + c1L, _R, "1L"),
                   (cL + c2L, _L, "2L"), (cR + c2L + 1, _R, "2L"))
        terms_r = ((cL + c1R, _L, "1R"), (cR + c1R + 1, _R, "1R"),
                   (cL + c2R, _L, "2R"), (cR + c2R, _R, "2R"))
    return min(terms_l, key=lambda t: t[0]), min(terms_r, key=lambda t: t[0])


def _plan(g, elements, cost):
    back = []
    cL = cR = None
    prev = None
    ci = 0
    for el in elements:
        if cL is None:
            base, bprev = 0, None
        else:
            base, bprev = (cR, _R) if cR <= cL else (cL, _L)
        if isinstance(el, FreeVertex):
            nL = nR = base
            row = (bprev, None, bprev, None)
        else:
            c1L, c1R, c2L, c2R = c = cost[ci].tolist()
            ci += 1
            if prev is not None and _junction(prev, el) == "edge":
                on_left = 1 <= prev.sink <= g.k      # left chain ids
                (nL, pL, tL), (nR, pR, tR) = \
                    _shared_edge_terms(cL, cR, c, on_left)
                row = (pL, tL, pR, tR)
            else:
                vL, tL = (c1L, "1L") if c1L <= c2L else (c2L, "2L")
                vR, tR = (c1R, "1R") if c1R <= c2R else (c2R, "2R")
                nL, nR = base + vL, base + vR
                row = (bprev, tL, bprev, tR)
        back.append(row)
        cL, cR = nL, nR
        prev = el
    if cL is None:
        return 0, []
    cell = _R if cR <= cL else _L
    best = cR if cell == _R else cL
    tags = [None] * len(elements)
    for i in reversed(range(len(elements))):
        pL, tL, pR, tR = back[i]
        tags[i] = tR if cell == _R else tL
        cell = pR if cell == _R else pL
    return int(best), tags


def _splice(g, elements, split, tags):
    order = []
    prev = None
    ci = 0
    for el, tag in zip(elements, tags):
        if isinstance(el, FreeVertex):
            local = [el.vertex]
        else:
            local = channel_order(el, tag,
                                  int(split[ci, CHANNELS.index(tag)]))
            ci += 1
        if not order:
            order = local
        else:
            kind = _junction(prev, el)
            if kind == "vertex":
                assert order[-1] == el.source
                order.extend(local[1:])
            elif kind == "edge":
                t_prev = prev.sink
                assert order[-1] == t_prev
                at = local.index(t_prev)
                mid, rest = local[1:at], local[at + 1:]
                if mid:
                    i = len(order) - 2
                    while g.side[order[i]] == g.side[t_prev]:
                        i -= 1
                    assert order[i] == el.source
                    order[i + 1:i + 1] = mid
                order.extend(rest)
            else:
                assert has_edge(g, order[-1], local[0])
                order.extend(local)
        prev = el
    if not order or order[0] != g.s:
        assert not order or has_edge(g, g.s, order[0])
        order.insert(0, g.s)
    if order[-1] != g.t:
        assert has_edge(g, order[-1], g.t)
        order.append(g.t)
    return order


def reference_plan(g, cost):
    """(best, channel code per polygon) from the element-by-element DP."""
    best, tags = _plan(g, decompose(g), cost)
    return best, [CHANNELS.index(tag) for tag in tags if tag is not None]


def reference_splice(g, split, ch):
    """The element-by-element splice of channel codes ``ch``."""
    elements = decompose(g)
    names = iter([CHANNELS[c] for c in ch])
    return _splice(g, elements, split, [
        None if isinstance(el, FreeVertex) else next(names)
        for el in elements])


def reference_solution(g):
    """(planned crossings, order) from the element-by-element solver."""
    elements = decompose(g)
    cost, split = polygon_costs(g, elements.table)
    best, tags = _plan(g, elements, cost)
    return best, _splice(g, elements, split, tags)


# -- single completion edges and the set-based verifier --------------------

def edge_crossings(g, ce):
    """Graph edges crossed by the completion edge, in order along it."""
    f, h = ce
    if not (0 <= f < g.n and 0 <= h < g.n) or f == h:
        raise SameSideCompletionEdge(f"not a chord: ({f}, {h})")
    fa = np.array([f], dtype=np.int64)
    ha = np.array([h], dtype=np.int64)
    _check_completion_pairs(g, fa, ha)
    _, pe = _batch_crossings(g, fa, ha)
    return [(int(g.tail[e]), int(g.head[e])) for e in pe]


def element_owners(g):
    """Per vertex, the index of the first element holding it (a polygon
    holds its source, chain runs and sink); s and t belong to the first
    and the last element."""
    elements = decompose(g)
    none = len(elements)
    own = [none] * g.n
    for i, el in enumerate(elements):
        held = ([el.vertex] if isinstance(el, FreeVertex) else
                [el.source, *el.left_vertices, *el.right_vertices, el.sink])
        for v in held:
            if own[v] == none:
                own[v] = i
    own[g.s], own[g.t] = 0, max(none - 1, 0)
    return own


def reference_solution_problems(g, sol):
    """The verifier's problem list, comparing claims as sets of records."""
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
    hits = {}
    for r in records:
        if r.crossed_edge in limit_of:
            hits.setdefault(r.crossed_edge, []).append(r.completion_edge)
    own = element_owners(g) if hits else []
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


def verify_solution(g, sol):
    return not solution_problems(g, sol)


# -- the post-solve layers, one Python pass per edge or crossing ------------

@dataclass
class HpExtended:
    names: list
    n_original: int
    edges: list
    hamiltonian_order: list
    crossing_of: dict


def hp_lists(g, hp):
    """``build_hp_extended``'s arrays and scan in ``HpExtended``'s fields."""
    records = CompletionSolution.of_scan(g, None, hp.scan).records
    return HpExtended(
        list(g.names) + [f"x{i}" for i in range(hp.scan.total)], g.n,
        list(zip(hp.tail.tolist(), hp.head.tolist())), hp.order.tolist(),
        dict(enumerate(records, g.n)))


def reference_hp_extended(g, order):
    """The HP-extended graph, chain by chain; raises NotLinearExtension."""
    order = list(order)
    scan = scan_order(g, order)
    n = g.n
    P = scan.total
    names = list(g.names) + [f"x{i}" for i in range(P)]

    ces = list(zip(scan.ce_tail.tolist(), scan.ce_head.tolist()))
    crossing_of = {}
    by_row = {}
    for i in range(P):
        r = int(scan.pair_ce[i])
        e = int(scan.pair_eid[i])
        crossing_of[n + i] = CrossingRecord(
            ces[r], (int(g.tail[e]), int(g.head[e])),
            int(scan.pair_ordinal[i]))
        by_row.setdefault(r, []).append(n + i)

    edges = []
    order_ext = []
    ce_at_spine = {int(s): r for r, s in enumerate(scan.ce_spine.tolist())}
    for i, v in enumerate(order):
        order_ext.append(int(v))
        r = ce_at_spine.get(i)
        if r is not None:
            chain = [ces[r][0]] + by_row.get(r, []) + [ces[r][1]]
            edges.extend(zip(chain, chain[1:]))
            order_ext.extend(chain[1:-1])

    # graph edges: subdivision points sorted by distance from the tail
    split = {}
    for r in crossings.crossings_along_edges(g, scan).tolist():
        split.setdefault(int(scan.pair_eid[r]), []).append(n + r)
    for e in range(g.edge_count):
        u, v = int(g.tail[e]), int(g.head[e])
        mids = split.get(e)
        if mids:
            chain = [u] + mids + [v]
            edges.extend(zip(chain, chain[1:]))
        else:
            edges.append((u, v))

    pos_of = {v: i for i, v in enumerate(order_ext)}
    for u, v in edges:
        if pos_of[u] >= pos_of[v]:
            raise NotLinearExtension(
                f"extended edge ({names[u]}, {names[v]}) runs backwards")
    return HpExtended(names, n, edges, order_ext, crossing_of)


def _first_page(g, pos, spine, u, v, cls):
    if pos[v] == pos[u] + 1:
        # one-sided edges keep their side's page, two-sided ones the tail's
        if cls == 2:
            return LEFT_PAGE if g.side[u] == _LEFT else RIGHT_PAGE
        return LEFT_PAGE if cls == 0 else RIGHT_PAGE
    # rotation at u: the page is the side of the spine line on which the
    # edge leaves, read off the vertex cycle between the directions of
    # the spine successor and predecessor of u
    n = g.n
    k_out = (spine[pos[u] + 1] - u) % n
    k_in = (spine[pos[u] - 1] - u) % n if pos[u] > 0 else 0
    k_e = (v - u) % n
    return LEFT_PAGE if (k_out - k_e) % n < (k_out - k_in) % n else RIGHT_PAGE


def reference_book_embedding(g, sol):
    """The book embedding, one edge drawing at a time."""
    return BookEmbedding(*reference_drawings(g, sol))


def reference_drawings(g, sol):
    """The book embedding's spine and drawings as plain tuples."""
    probs = solution_problems(g, sol)
    if probs:
        raise InvalidSolution("; ".join(probs))

    spine = list(sol.order)
    pos = {v: i for i, v in enumerate(spine)}
    per_ce = Counter(r.completion_edge for r in sol.records)
    dives = defaultdict(list)
    for r in sol.records:
        slot = pos[r.completion_edge[0]]
        c = slot + (r.ordinal + 1) / (per_ce[r.completion_edge] + 1)
        dives[r.crossed_edge].append(c)

    drawings = []
    for u, v, cls in zip(g.tail.tolist(), g.head.tolist(),
                         g.classes.tolist()):
        coords = sorted(dives.get((u, v), ()))
        page = _first_page(g, pos, spine, u, v, cls)
        stops = [float(pos[u])] + coords + [float(pos[v])]
        segs = []
        for a, b in zip(stops, stops[1:]):
            segs.append(Segment(page, a, b))
            page = RIGHT_PAGE if page == LEFT_PAGE else LEFT_PAGE
        drawings.append(EdgeDrawing(
            (u, v), tuple(segs), tuple(int(math.floor(c)) for c in coords)))
    return tuple(spine), tuple(drawings)


def _page_planarity(segs):
    probs = []
    by_coord = {}
    for s in segs:
        by_coord.setdefault(s.end, ([], []))[0].append(s)
        by_coord.setdefault(s.start, ([], []))[1].append(s)
    stack = []
    for c in sorted(by_coord):
        ending, starting = by_coord[c]
        for _ in ending:
            if not stack or stack[-1].end != c:
                open_ends = [s.end for s in stack[-3:]]
                probs.append(f"arcs interleave on a page near coordinate "
                             f"{c} (open arc ends {open_ends})")
                return probs
            stack.pop()
        stack.extend(sorted(starting, key=lambda s: -s.end))
    if stack:
        probs.append("an arc never closes")
    return probs


def reference_book_problems(be, g=None):
    """The book validator's problem list, drawing by drawing."""
    probs = []
    if not be.spine:
        return ["empty spine"]
    if len(set(be.spine)) != len(be.spine):
        return ["spine repeats a vertex"]
    pos = {v: i for i, v in enumerate(be.spine)}

    junctions = []
    for d in be.drawings:
        u, v = d.edge
        tag = f"edge {u}->{v}"
        if u not in pos or v not in pos:
            probs.append(f"{tag} uses a vertex missing from the spine")
            continue
        if not d.segments:
            probs.append(f"{tag} has no segments")
            continue
        if d.segments[0].start != pos[u] or d.segments[-1].end != pos[v]:
            probs.append(f"{tag} does not run endpoint to endpoint")
        if len(d.spine_crossings) != len(d.segments) - 1:
            probs.append(f"{tag} declares {len(d.spine_crossings)} dives "
                         f"for {len(d.segments)} segments")
            continue
        for a, b in zip(d.segments, d.segments[1:]):
            if a.end != b.start:
                probs.append(f"{tag} has a gap between segments")
            if a.page == b.page:
                probs.append(f"{tag} stays on one page across a dive")
        for s in d.segments:
            if s.page not in (LEFT_PAGE, RIGHT_PAGE):
                probs.append(f"{tag} names unknown page {s.page!r}")
            if not s.start < s.end:
                probs.append(f"{tag} has a non-ascending segment")
        for slot, s in zip(d.spine_crossings, d.segments):
            c = s.end
            if float(c).is_integer():
                probs.append(f"{tag} dives at the integer coordinate {c}")
            elif math.floor(c) != slot:
                probs.append(f"{tag} dive {c} is outside slot {slot}")
            junctions.append(c)
    if probs:
        return probs

    if len(set(junctions)) != len(junctions):
        probs.append("two dives share a coordinate")
    for page in (LEFT_PAGE, RIGHT_PAGE):
        segs = [s for d in be.drawings for s in d.segments if s.page == page]
        probs.extend(_page_planarity(segs))
    if probs or g is None:
        return probs

    try:
        ces, records, _ = solution_crossings(g, list(be.spine))
    except NotLinearExtension as exc:
        return [f"spine is not a linear extension: {exc}"]
    if Counter(d.edge for d in be.drawings) != Counter(g.edge_set):
        probs.append("drawn edges do not match the graph")
        return probs
    ce_pos = {ce: pos[ce[0]] for ce in ces}
    want = defaultdict(list)
    per_ce = Counter(r.completion_edge for r in records)
    for r in records:
        want[r.crossed_edge].append(
            ce_pos[r.completion_edge]
            + (r.ordinal + 1) / (per_ce[r.completion_edge] + 1))
    for d in be.drawings:
        have = [s.end for s in d.segments[:-1]]
        if sorted(want.get(d.edge, [])) != have:
            probs.append(f"edge {d.edge[0]}->{d.edge[1]} dives do not match "
                         f"the spine's crossings")
    return probs


def reference_svg(g, be):
    """The SVG of a book embedding, drawing by drawing."""
    n = len(be.spine)
    reach = {True: 1.0, False: 1.0}
    for d in be.drawings:
        for s in d.segments:
            left = s.page == LEFT_PAGE
            reach[left] = max(reach[left], s.end - s.start)
    x = _MARGIN + _bulge(reach[True])
    width = x + _bulge(reach[False]) + _MARGIN + 46.0
    height = 2 * _MARGIN + (n - 1) * _STEP + 18.0

    def y(c):
        return height - _MARGIN - c * _STEP

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<text x="{_MARGIN:.2f}" y="16" font-size="12" '
        f'font-family="sans-serif" fill="#333">'
        f'{be.spine_crossing_count} spine crossing'
        f'{"" if be.spine_crossing_count == 1 else "s"}</text>',
        f'<line x1="{x:.2f}" y1="{y(0):.2f}" x2="{x:.2f}" '
        f'y2="{y(n - 1):.2f}" stroke="#bbb" stroke-width="1"/>',
    ]
    for i in range(n - 1):
        if not has_edge(g, be.spine[i], be.spine[i + 1]):
            out.append(
                f'<line x1="{x:.2f}" y1="{y(i):.2f}" x2="{x:.2f}" '
                f'y2="{y(i + 1):.2f}" stroke="#777" stroke-width="1.6" '
                f'stroke-dasharray="5 4"/>')
    for d in be.drawings:
        for s in d.segments:
            left = s.page == LEFT_PAGE
            ry = (s.end - s.start) * _STEP / 2.0
            path = (f'M {x:.2f} {y(s.start):.2f} '
                    f'A {_bulge(s.end - s.start):.2f} {ry:.2f} 0 0 '
                    f'{1 if left else 0} {x:.2f} {y(s.end):.2f}')
            color = "#2166ac" if left else "#b2182b"
            out.append(f'<path d="{path}" fill="none" '
                       f'stroke="{color}" stroke-width="1.4"/>')
        for s in d.segments[:-1]:
            out.append(
                f'<line x1="{x - 4:.2f}" y1="{y(s.end):.2f}" '
                f'x2="{x + 4:.2f}" y2="{y(s.end):.2f}" '
                f'stroke="#444" stroke-width="1"/>')
    for i, v in enumerate(be.spine):
        out.append(f'<circle cx="{x:.2f}" cy="{y(i):.2f}" r="3.4" '
                   f'fill="#111"/>')
        out.append(f'<text x="{x + 9:.2f}" y="{y(i) + 4:.2f}" '
                   f'font-size="12" font-family="sans-serif" '
                   f'fill="#111">{_xml_text(g.name(v))}</text>')
    out.append("</svg>")
    return "\n".join(out)
