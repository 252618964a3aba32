"""Embedded outerplanar st-digraphs with two boundary chains.

The vertex universe is a cycle: the source ``s``, the left chain bottom-up,
the sink ``t``, then the right chain top-down.  Internally every vertex is
identified with its position on that cycle, so ``s`` is always id 0, the
left chain occupies ids ``1..k``, ``t`` is ``k+1`` and the right chain runs
``k+2..n-1`` from the topmost right vertex down to the lowest.  All geometric
reasoning (planarity, crossings, faces) happens in this coordinate system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import inf

import numpy as np

VertexId = int
Edge = tuple[int, int]


class ParseError(ValueError):
    """Malformed input document (bad JSON, missing keys, wrong types)."""


class ValidationError(ValueError):
    """Base class for graph and solution validation failures."""


class MultipleSources(ValidationError):
    pass


class MultipleSinks(ValidationError):
    pass


class CycleDetected(ValidationError):
    pass


class SideNotAPath(ValidationError):
    pass


class EmbeddingNotPlane(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class UnknownVertex(ValidationError):
    pass


class EdgeNotInGraph(ValidationError):
    pass


class NotAPermutation(ValidationError):
    pass


class InternalError(RuntimeError):
    """A solver invariant failed (an explicit raise, which ``python -O``
    keeps); ``stage`` names the pipeline stage."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


class SideKind(Enum):
    SOURCE = "Source"
    LEFT = "Left"
    RIGHT = "Right"
    SINK = "Sink"


class EdgeClass(Enum):
    ONE_SIDED_LEFT = "OneSidedLeft"
    ONE_SIDED_RIGHT = "OneSidedRight"
    TWO_SIDED = "TwoSided"


@dataclass(frozen=True)
class SidePosition:
    kind: SideKind
    rank: float  # 0 for the source, 1..k/1..m along a chain, +inf for the sink


# side codes used in numpy arrays
_SRC, _LEFT, _RIGHT, _SNK = 0, 1, 2, 3
_KIND_OF_CODE = {_SRC: SideKind.SOURCE, _LEFT: SideKind.LEFT,
                 _RIGHT: SideKind.RIGHT, _SNK: SideKind.SINK}


class OuterplanarStDigraph:
    """Validated, immutable instance.  Construct via :func:`build_graph`."""

    def __init__(self, names, k, m, tail, head, side, rank, topo):
        self.names: list[str] = names
        self.n: int = len(names)
        self.k: int = k
        self.m: int = m
        self.s: VertexId = 0
        self.t: VertexId = k + 1
        self.tail: np.ndarray = tail
        self.head: np.ndarray = head
        self.side: np.ndarray = side
        self.rank: np.ndarray = rank
        self._topo = topo
        self._ids = {nm: i for i, nm in enumerate(names)}
        self._edge_keys = np.sort(tail.astype(np.int64) * self.n + head)
        self._cache: dict = {}

    # -- identity helpers -------------------------------------------------

    def vid(self, name: str) -> VertexId:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownVertex(name) from None

    def vids(self, names) -> list[VertexId]:
        return [self.vid(nm) for nm in names]

    def name(self, v: VertexId) -> str:
        return self.names[v]

    def names_of(self, seq) -> list[str]:
        return [self.names[v] for v in seq]

    @property
    def left_seq(self) -> list[VertexId]:
        return list(range(1, self.k + 1))

    @property
    def right_seq(self) -> list[VertexId]:
        # rank j lives at position n-j, so bottom-up means descending ids
        return list(range(self.n - 1, self.k + 1, -1))

    @property
    def edge_count(self) -> int:
        return len(self.tail)

    @property
    def edge_set(self) -> frozenset[Edge]:
        if "edge_set" not in self._cache:
            self._cache["edge_set"] = frozenset(
                zip(self.tail.tolist(), self.head.tolist()))
        return self._cache["edge_set"]

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        key = u * self.n + v
        i = np.searchsorted(self._edge_keys, key)
        return i < len(self._edge_keys) and self._edge_keys[i] == key

    def has_edges(self, us, vs) -> np.ndarray:
        keys = np.asarray(us, dtype=np.int64) * self.n + np.asarray(vs)
        idx = np.searchsorted(self._edge_keys, keys)
        idx_c = np.minimum(idx, len(self._edge_keys) - 1)
        return self._edge_keys[idx_c] == keys

    def side_position(self, v: VertexId) -> SidePosition:
        code = int(self.side[v])
        r = inf if code == _SNK else float(self.rank[v])
        return SidePosition(_KIND_OF_CODE[code], r)

    # -- local coordinates used by the crossing geometry ------------------

    @property
    def lcoord(self) -> np.ndarray:
        """Left-line coordinate: s=0, l_i=i, t=k+1, right vertices -1."""
        if "lcoord" not in self._cache:
            c = np.full(self.n, -1, dtype=np.int64)
            c[0:self.k + 2] = np.arange(self.k + 2)
            self._cache["lcoord"] = c
        return self._cache["lcoord"]

    @property
    def rcoord(self) -> np.ndarray:
        """Right-line coordinate: s=0, r_j=j, t=m+1, left vertices -1."""
        if "rcoord" not in self._cache:
            c = np.full(self.n, -1, dtype=np.int64)
            c[0] = 0
            c[self.k + 1] = self.m + 1
            if self.m:
                c[self.k + 2:] = np.arange(self.m, 0, -1)
            self._cache["rcoord"] = c
        return self._cache["rcoord"]

    def __repr__(self):
        return (f"OuterplanarStDigraph(n={self.n}, k={self.k}, m={self.m}, "
                f"edges={self.edge_count})")


def _edge_class_codes(n, k, m, tail, head, side):
    """Per-edge class code: 0 left, 1 right, 2 two-sided.

    Edges touching s or t take the side of the other endpoint; (s,t) is
    one-sided left by convention.
    """
    ts, hs = side[tail], side[head]
    cls = np.full(len(tail), 2, dtype=np.int8)
    left_ish = lambda c: (c == _LEFT) | (c == _SRC) | (c == _SNK)
    right_ish = lambda c: (c == _RIGHT) | (c == _SRC) | (c == _SNK)
    cls[left_ish(ts) & left_ish(hs)] = 0
    # right-classification loses to left for (s,t), hence the order
    only_right = right_ish(ts) & right_ish(hs) & ((ts == _RIGHT) | (hs == _RIGHT))
    cls[only_right] = 1
    return cls


def _check_plane(n, k, m, tail, head, cls, lcoord, rcoord, names):
    """Reject any pair of edges whose position chords strictly interleave.

    Decomposes the check by edge class: each one-sided family must be laminar
    on its own line, two-sided chords must form a rank-monotone chain, and no
    two-sided endpoint may sit strictly under a one-sided chord.  Cross-line
    one-sided pairs can never interleave, so nothing else needs checking.
    """
    def laminar(alpha, beta, label):
        span = beta - alpha
        chord = span >= 2
        a, b = alpha[chord], beta[chord]
        order = np.lexsort((-b, a))
        a, b = a[order].tolist(), b[order].tolist()
        stack = []
        for x, y in zip(a, b):
            while stack and stack[-1] <= x:
                stack.pop()
            if stack and stack[-1] < y:
                raise EmbeddingNotPlane(f"interleaving {label} chords")
            stack.append(y)
        return a, b

    lmask = cls == 0
    rmask = cls == 1
    tmask = cls == 2

    la = np.minimum(lcoord[tail[lmask]], lcoord[head[lmask]])
    lb = np.maximum(lcoord[tail[lmask]], lcoord[head[lmask]])
    ra = np.minimum(rcoord[tail[rmask]], rcoord[head[rmask]])
    rb = np.maximum(rcoord[tail[rmask]], rcoord[head[rmask]])
    laminar(la, lb, "left")
    laminar(ra, rb, "right")

    if tmask.any():
        tt, th = tail[tmask], head[tmask]
        li = np.where(lcoord[tt] >= 0, lcoord[tt], lcoord[th])
        rj = np.where(rcoord[tt] >= 0, rcoord[tt], rcoord[th])
        order = np.lexsort((rj, li))
        rj_sorted = rj[order]
        if np.any(np.diff(rj_sorted) < 0):
            raise EmbeddingNotPlane("two-sided chords out of chain order")

        # one-sided chords may not strictly cover a two-sided endpoint
        for a, b, coords, size in ((la, lb, li, k), (ra, rb, rj, m)):
            cover = np.zeros(size + 3, dtype=np.int64)
            chord = (b - a) >= 2
            np.add.at(cover, a[chord] + 1, 1)
            np.add.at(cover, b[chord], -1)
            depth = np.cumsum(cover)
            if np.any(depth[coords] > 0):
                raise EmbeddingNotPlane("two-sided chord under a covering chord")


def _toposort(k, m, tail, head, side, rank):
    """Deterministic merge of the two chains, lowest rank first, left on ties.

    Readiness of a chain head is gated by its highest-ranked predecessor on
    the opposite chain; a stuck merge means a cycle through two-sided edges.
    """
    n = k + m + 2
    req_l = np.zeros(k + 2, dtype=np.int64)
    req_r = np.zeros(m + 2, dtype=np.int64)
    two = (side[tail] == _RIGHT) & (side[head] == _LEFT)
    np.maximum.at(req_l, rank[head[two]], rank[tail[two]])
    two = (side[tail] == _LEFT) & (side[head] == _RIGHT)
    np.maximum.at(req_r, rank[head[two]], rank[tail[two]])
    np.maximum.accumulate(req_l, out=req_l)
    np.maximum.accumulate(req_r, out=req_r)
    rl = req_l.tolist()
    rr = req_r.tolist()

    order = [0]
    append = order.append
    i, j = 1, 1
    while i <= k or j <= m:
        left_ok = i <= k and rl[i] < j
        right_ok = j <= m and rr[j] < i
        if left_ok and (not right_ok or i <= j):
            append(i)
            i += 1
        elif right_ok:
            append(n - j)
            j += 1
        else:
            raise CycleDetected("two-sided edges force a cycle")
    append(k + 1)
    return tuple(order)


def _has_duplicate(values):
    try:
        arr = np.asarray(values)
    except ValueError:
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "USiuf":
        return len(set(values)) != len(values)
    if arr.size < 2:
        return False
    srt = np.sort(arr)
    return bool((srt[1:] == srt[:-1]).any())


def _infer_terminals(side_names, edges):
    """Unique source and sink of the edge relation, by degree count."""
    endpoints = set()
    for e in edges:
        if len(e) != 2:
            raise ParseError(f"edge {e!r} is not a pair")
        endpoints.add(e[0])
        endpoints.add(e[1])
    universe = set(side_names) | endpoints
    extras = endpoints - set(side_names)
    if len(extras) > 2:
        raise UnknownVertex(sorted(extras)[2])
    indeg = dict.fromkeys(universe, 0)
    outdeg = dict.fromkeys(universe, 0)
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    sources = [v for v in universe if indeg[v] == 0]
    sinks = [v for v in universe if outdeg[v] == 0]
    if not sources:
        raise CycleDetected("every vertex has an incoming edge")
    if len(sources) > 1:
        raise MultipleSources(str(sorted(map(str, sources))))
    if not sinks:
        raise CycleDetected("every vertex has an outgoing edge")
    if len(sinks) > 1:
        raise MultipleSinks(str(sorted(map(str, sinks))))
    return sources[0], sinks[0]


def _edge_endpoint_ids(names, edges):
    """Tail and head id arrays for name-pair edges.

    Sorted-array binary search keeps huge string-named instances off the
    Python hash path; exotic name types fall back to a dict.
    """
    if edges:
        try:
            earr = np.asarray(edges)
        except ValueError:
            earr = None
        name_arr = np.asarray(names)
        if (earr is not None and earr.ndim == 2 and earr.shape[1] == 2
                and earr.dtype.kind in "USiuf"
                and earr.dtype.kind == name_arr.dtype.kind):
            order = np.argsort(name_arr, kind="stable")
            snames = name_arr[order]
            flat = earr.reshape(-1)
            pos = np.searchsorted(snames, flat)
            np.clip(pos, 0, snames.size - 1, out=pos)
            bad = snames[pos] != flat
            if bad.any():
                raise UnknownVertex(str(flat[int(np.flatnonzero(bad)[0])]))
            ids = order[pos]
            return ids[0::2], ids[1::2]
    lut = {nm: i for i, nm in enumerate(names)}
    tail = np.empty(len(edges), dtype=np.int64)
    head = np.empty(len(edges), dtype=np.int64)
    for i, e in enumerate(edges):
        if len(e) != 2:
            raise ParseError(f"edge {e!r} is not a pair")
        u, v = e
        try:
            tail[i] = lut[u]
            head[i] = lut[v]
        except KeyError as exc:
            raise UnknownVertex(str(exc.args[0])) from None
    return tail, head


def build_graph(left_seq, right_seq, edges, s=None, t=None):
    """Validate and index an instance given as vertex names.

    ``left_seq`` and ``right_seq`` list the chain vertices bottom-up; ``edges``
    is an iterable of (from, to) name pairs.  When ``s``/``t`` are omitted they
    are inferred as the unique source and sink of the edge relation.
    """
    left_seq = list(left_seq)
    right_seq = list(right_seq)
    edges = list(edges)
    k, m = len(left_seq), len(right_seq)

    side_names = left_seq + right_seq
    if _has_duplicate(side_names):
        raise SideNotAPath("repeated vertex in side sequences")

    if s is None and t is None:
        s, t = _infer_terminals(side_names, edges)
        if s in side_names or t in side_names:
            raise SideNotAPath("inferred s/t lies inside a side sequence")
    else:
        if s is None or t is None or s == t:
            raise ParseError("s and t must both be given and distinct")
        if s in side_names or t in side_names:
            raise SideNotAPath("s/t may not appear inside a side sequence")

    n = k + m + 2
    names = [s] + left_seq + [t] + right_seq[::-1]
    tail, head = _edge_endpoint_ids(names, edges)

    loops = np.flatnonzero(tail == head)
    if loops.size:
        raise CycleDetected(f"self-loop at {names[int(tail[int(loops[0])])]!r}")
    indeg = np.bincount(head, minlength=n)
    outdeg = np.bincount(tail, minlength=n)
    if indeg[0]:
        raise CycleDetected("edge into the source")
    if outdeg[k + 1]:
        raise CycleDetected("edge out of the sink")
    if np.count_nonzero(indeg == 0) > 1:
        offn = [str(names[i]) for i in np.flatnonzero(indeg == 0)]
        raise MultipleSources(str(sorted(offn)))
    if np.count_nonzero(outdeg == 0) > 1:
        offn = [str(names[i]) for i in np.flatnonzero(outdeg == 0)]
        raise MultipleSinks(str(sorted(offn)))

    keys = tail * n + head
    order = np.argsort(keys, kind="stable")
    keys, tail, head = keys[order], tail[order], head[order]
    if len(keys) and np.any(np.diff(keys) == 0):
        dup = int(np.flatnonzero(np.diff(keys) == 0)[0])
        raise DuplicateEdge(f"({names[int(tail[dup])]}, {names[int(head[dup])]})")

    side = np.empty(n, dtype=np.int8)
    side[0] = _SRC
    side[1:k + 1] = _LEFT
    side[k + 1] = _SNK
    side[k + 2:] = _RIGHT
    rank = np.zeros(n, dtype=np.int64)
    rank[1:k + 1] = np.arange(1, k + 1)
    rank[k + 1] = n  # sink sentinel, above every chain rank
    if m:
        rank[k + 2:] = np.arange(m, 0, -1)

    # required boundary path along each side
    wu = np.concatenate((np.arange(k + 1), [0], np.arange(n - 1, k + 1, -1)))
    wv = np.concatenate((np.arange(1, k + 2),
                         np.arange(n - 1, k + 1, -1), [k + 1]))
    want = wu * n + wv
    pos = np.searchsorted(keys, want)
    hit = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == want)
    if not hit.all():
        b = int(np.flatnonzero(~hit)[0])
        raise SideNotAPath(
            f"missing boundary edge ({names[int(wu[b])]}, {names[int(wv[b])]})")

    g_tmp_l = np.full(n, -1, dtype=np.int64)
    g_tmp_l[:k + 2] = np.arange(k + 2)
    g_tmp_r = np.full(n, -1, dtype=np.int64)
    g_tmp_r[0] = 0
    g_tmp_r[k + 1] = m + 1
    if m:
        g_tmp_r[k + 2:] = np.arange(m, 0, -1)

    cls = _edge_class_codes(n, k, m, tail, head, side)
    lft = cls == 0
    if np.any(g_tmp_l[tail[lft]] >= g_tmp_l[head[lft]]):
        raise CycleDetected("descending edge on the left side")
    rgt = cls == 1
    if np.any(g_tmp_r[tail[rgt]] >= g_tmp_r[head[rgt]]):
        raise CycleDetected("descending edge on the right side")

    _check_plane(n, k, m, tail, head, cls, g_tmp_l, g_tmp_r, names)
    topo = _toposort(k, m, tail, head, side, rank)

    g = OuterplanarStDigraph(names, k, m, tail, head, side, rank, topo)
    g._cache["cls"] = cls
    return g


def classify_edge(g: OuterplanarStDigraph, e: Edge) -> EdgeClass:
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise EdgeNotInGraph(str(e))
    ls, rs = g.side[u], g.side[v]
    if ls == _LEFT or rs == _LEFT:
        return EdgeClass.TWO_SIDED if (ls == _RIGHT or rs == _RIGHT) \
            else EdgeClass.ONE_SIDED_LEFT
    if ls == _RIGHT or rs == _RIGHT:
        return EdgeClass.ONE_SIDED_RIGHT
    return EdgeClass.ONE_SIDED_LEFT  # the (s,t) convention


def edge_classes(g: OuterplanarStDigraph) -> np.ndarray:
    """Per-edge class codes aligned with g.tail/g.head (0=L, 1=R, 2=two-sided)."""
    if "cls" not in g._cache:
        g._cache["cls"] = _edge_class_codes(
            g.n, g.k, g.m, g.tail, g.head, g.side)
    return g._cache["cls"]


def topological_order(g: OuterplanarStDigraph) -> tuple[VertexId, ...]:
    return g._topo


def topo_index(g: OuterplanarStDigraph) -> np.ndarray:
    """Position of each vertex in the canonical topological order."""
    if "topo_index" not in g._cache:
        idx = np.empty(g.n, dtype=np.int64)
        idx[np.fromiter(g._topo, dtype=np.int64, count=g.n)] = np.arange(g.n)
        g._cache["topo_index"] = idx
    return g._cache["topo_index"]


def is_linear_extension(g: OuterplanarStDigraph, order) -> bool:
    order = list(order)
    if len(order) != g.n:
        raise NotAPermutation(f"length {len(order)}, expected {g.n}")
    pos = np.full(g.n, -1, dtype=np.int64)
    arr = np.asarray(order, dtype=np.int64)
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= g.n:
        raise NotAPermutation("vertex id out of range")
    pos[arr] = np.arange(g.n)
    if np.any(pos < 0):
        raise NotAPermutation("repeated vertex")
    return bool(np.all(pos[g.tail] < pos[g.head]))


# -- JSON input/output -----------------------------------------------------

def graph_from_json(text: str) -> OuterplanarStDigraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    for key in ("left", "right", "s", "t", "edges"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    left, right, edges = doc["left"], doc["right"], doc["edges"]
    if not isinstance(left, list) or not isinstance(right, list):
        raise ParseError("'left' and 'right' must be arrays")
    if not isinstance(doc["s"], str) or not isinstance(doc["t"], str):
        raise ParseError("'s' and 't' must be strings")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be an array")
    for e in edges:
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, str) for x in e)):
            raise ParseError(f"edge {e!r} must be a pair of names")
    return build_graph(left, right, [tuple(e) for e in edges],
                       s=doc["s"], t=doc["t"])


def graph_to_json(g: OuterplanarStDigraph) -> str:
    doc = {
        "left": [g.names[v] for v in g.left_seq],
        "right": [g.names[v] for v in g.right_seq],
        "s": g.names[g.s],
        "t": g.names[g.t],
        "edges": [[g.names[int(u)], g.names[int(v)]]
                  for u, v in zip(g.tail, g.head)],
    }
    return json.dumps(doc, sort_keys=True, indent=2)
