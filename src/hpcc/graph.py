"""Embedded outerplanar st-digraphs with two boundary chains.

The vertex universe is a cycle: the source ``s``, the left chain bottom-up,
the sink ``t``, then the right chain top-down.  Internally every vertex is
identified with its position on that cycle, so ``s`` is always id 0, the
left chain occupies ids ``1..k``, ``t`` is ``k+1`` and the right chain runs
``k+2..n-1`` from the topmost right vertex down to the lowest.  All geometric
reasoning (planarity, crossings, faces) happens in this coordinate system.

:func:`build_graph` is the one place that derives the per-graph tables;
each is built by one function here and stored on the graph:

- ``lcoord``/``rcoord`` (:func:`_line_coords`): each vertex's position on
  the left and right chain lines;
- ``classes`` (:func:`_edge_class_codes`): each edge's class code;
- ``nesting`` (:func:`_cycle_nesting`): the edges' cycle intervals by
  :func:`nesting`, laminar exactly when the embedding is plane;
- ``chords`` (:func:`_chord_index`): the two-sided chords sorted by rank,
  and both one-sided families joined into one laminar family ordered by
  nesting depth, which the crossing geometry queries;
- ``lo_out``/``hi_in`` (:func:`_limit_tables`): each vertex's extreme
  two-sided neighbours, which gate the topological merge and bound every
  st-polygon of the decomposition;
- ``topo_pos`` (:func:`_toposort`): each vertex's position in the canonical
  topological order;
- the sorted edge keys behind :meth:`OuterplanarStDigraph.edge_ids`.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from functools import wraps
from itertools import chain

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


class NotAPermutation(ValidationError):
    pass


class InternalError(RuntimeError):
    """A solver invariant failed (an explicit raise, which ``python -O``
    keeps); ``stage`` names the pipeline stage."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


# side codes used in numpy arrays
_SRC, _LEFT, _RIGHT, _SNK = 0, 1, 2, 3


def int_array(values) -> np.ndarray:
    """Integer ids (vertices, slots, ordinals) as int64, an int64 array as
    it is: the one reader of orders, spines and claims.  Floats, strings
    and ids past int64, which numpy would truncate, parse or wrap, raise
    TypeError."""
    if type(values) is np.ndarray and values.dtype == np.int64:
        return values
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iub" or arr.dtype == np.uint64
                     and arr.max() > np.iinfo(np.int64).max):
        raise TypeError(f"integer ids expected, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


@dataclass
class Nesting:
    order: np.ndarray    # interval ids by depth, then (lo, -hi) preorder
    key: np.ndarray      # per entry: depth * count + preorder index, ascending
    parent: np.ndarray   # per entry: its parent's entry, -1 at depth 0
    leaves: np.ndarray   # the entries that end past their parent's end


def nesting(lo, hi, size, parents=True) -> Nesting:
    """Intervals ``[lo[i], hi[i]]`` below ``size`` by nesting.  In (lo, -hi)
    preorder an interval's depth is its index less the intervals ending at
    or before its start; its parent, the last interval one level up before
    it, is the innermost one open at its start while those before it are
    laminar.  So the first in preorder to leave its parent crosses it.
    Without ``parents``, ``parent`` and ``leaves`` are left None."""
    count = len(lo)
    pre = (lo * size + (size - hi)).argsort(kind="stable")
    at = np.arange(count)
    key = at - np.bincount(hi, minlength=size).cumsum()[lo[pre]]
    key *= count
    key += at
    key.sort()
    order = pre[key % count]
    if not parents:
        return Nesting(order, key, None, None)
    parent = key.searchsorted(key - count) - 1
    end = hi[order]
    return Nesting(order, key, parent,
                   ((parent >= 0) & (end > end[parent])).nonzero()[0])


@dataclass
class ChordIndex:
    """The graph's chords by family, as parallel arrays with edge ids."""
    ti: np.ndarray   # two-sided chords: left rank, right rank, both ascending
    tj: np.ndarray
    teid: np.ndarray
    # both one-sided families as one laminar family on the joint line (the
    # right line shifted past t's left coordinate): per joint coordinate q,
    # the chords starting before q and those strictly covering q; and per
    # chord in (nesting depth, index) order, depth * count + index and the
    # edge id
    opened: np.ndarray
    under: np.ndarray
    depth_key: np.ndarray
    deid: np.ndarray


class OuterplanarStDigraph:
    """Validated, immutable instance.  Construct via :func:`build_graph`,
    which derives every table passed in here."""

    def __init__(self, names, ids, k, m, tail, head, keys, side, coord,
                 classes, nest, chords, lo_out, hi_in, topo_pos):
        self.names: list[str] = names
        self.n: int = len(names)
        self.k: int = k
        self.m: int = m
        self.s: VertexId = 0
        self.t: VertexId = k + 1
        self.tail: np.ndarray = tail    # edges sorted by (tail, head)
        self.head: np.ndarray = head
        self.side: np.ndarray = side
        # left line: s=0, l_i=i, t=k+1; right line: s=0, r_j=j, t=m+1;
        # -1 off the line; the rows of coord
        self.coord: np.ndarray = coord
        self.lcoord, self.rcoord = coord
        self.classes: np.ndarray = classes  # 0 left, 1 right, 2 two-sided
        self.nesting: Nesting = nest        # the edges' cycle intervals
        self.chords: ChordIndex = chords
        self.lo_out: np.ndarray = lo_out
        self.hi_in: np.ndarray = hi_in
        self.topo_pos: np.ndarray = topo_pos
        self._ids: dict = ids            # name -> id
        self._edge_keys = keys          # tail * n + head, ascending
        self._cache: dict = {}

    # -- identity helpers -------------------------------------------------

    def vid(self, name: str) -> VertexId:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownVertex(name) from None

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
        return frozenset(zip(self.tail.tolist(), self.head.tolist()))

    def edge_ids(self, us, vs) -> np.ndarray:
        """The id of each edge (us[i], vs[i]), or -1 where there is none."""
        keys = int_array(us) * self.n + int_array(vs)
        i = np.minimum(self._edge_keys.searchsorted(keys),
                       len(self._edge_keys) - 1)
        return np.where(self._edge_keys[i] == keys, i, -1)

    def has_edges(self, us, vs) -> np.ndarray:
        return self.edge_ids(us, vs) >= 0

    def __repr__(self):
        return (f"OuterplanarStDigraph(n={self.n}, k={self.k}, m={self.m}, "
                f"edges={self.edge_count})")


def _line_coords(k, m):
    """Left- and right-line coordinates of every vertex, -1 off the line."""
    n = k + m + 2
    coord = np.empty((2, n), dtype=np.int64)
    coord[0] = np.arange(n)             # s = 0, l_i = i, t = k + 1
    coord[1] = n - coord[0]             # r_j = j at id n - j, t = m + 1
    coord[0, k + 2:] = coord[1, 1:k + 1] = -1
    coord[1, 0] = 0
    return coord


# edge class code by tail side * 4 + head side (s, left, right, t)
_CLASS = np.array((0, 0, 1, 0, 0, 0, 2, 0, 1, 2, 1, 1, 0, 0, 1, 0),
                  dtype=np.int8)


def _edge_class_codes(tail, head, side):
    """Per-edge class code: 0 left, 1 right, 2 two-sided.

    Edges touching s or t take the side of the other endpoint; (s,t) is
    one-sided left by convention.
    """
    return _CLASS[side[tail] * 4 + side[head]]


def _cycle_nesting(names, tail, head) -> Nesting:
    """The edges' cycle intervals by nesting: every vertex is on the cycle,
    so the embedding is plane exactly when they are laminar."""
    nest = nesting(np.minimum(tail, head), np.maximum(tail, head), len(names))
    if len(nest.leaves):
        x = nest.leaves[(nest.key[nest.leaves] % len(tail)).argmin()]
        a, b = nest.order[[nest.parent[x], x]]
        raise EmbeddingNotPlane("edges ({}, {}) and ({}, {}) cross".format(
            *(names[v] for v in (tail[a], head[a], tail[b], head[b]))))
    return nest


def _chord_index(tail, head, cls, a, b, n) -> ChordIndex:
    """Sort each chord family once: two-sided chords by (left, right) rank,
    one-sided chords spanning two line steps or more by nesting on the
    joint line, where edge ``e`` runs from ``a[e]`` up to ``b[e]``."""
    e = ((cls < 2) & (b - a >= 2)).nonzero()[0]
    a, b = a[e], b[e]
    nest = nesting(a, b, n + 2, parents=False)

    # a two-sided edge joins left rank i (its lower id) and right rank j
    two = (cls == 2).nonzero()[0]
    ti = np.minimum(tail[two], head[two])
    tj = n - np.maximum(tail[two], head[two])
    by_rank = (ti * n + tj).argsort(kind="stable")

    opened = np.bincount(a + 1, minlength=n + 2).cumsum(dtype=np.int32)
    closed = np.bincount(b, minlength=n + 2).cumsum(dtype=np.int32)
    return ChordIndex(ti[by_rank], tj[by_rank], two[by_rank],
                      opened, opened - closed, nest.key, e[nest.order])


def _limit_tables(n, tail, head, cls, coord):
    """Per-vertex extreme two-sided neighbours, as opposite-chain ranks.

    lo_out[v] = rank of v's lowest out-neighbour on the other chain,
    hi_in[v] the highest such in-neighbour; 0 / -1 where none exists.
    Only two-sided edges contribute, which is all a polygon limit can be.
    """
    lo_out = np.full(n, n, dtype=np.int64)
    hi_in = np.full(n, -1, dtype=np.int64)
    two = cls == 2
    u, v = tail[two], head[two]
    # a chain vertex is off the other line (-1): the maximum is its own
    np.minimum.at(lo_out, u, np.maximum(*coord[:, v]))
    np.maximum.at(hi_in, v, np.maximum(*coord[:, u]))
    lo_out[lo_out == n] = 0
    return lo_out, hi_in


def _toposort(k, m, hi_in):
    """Each vertex's position in the deterministic merge of the two chains,
    lowest rank first, left on ties.

    Readiness of a chain head is gated by the highest-ranked two-sided
    in-neighbour of it or of any vertex below it on its chain (a prefix
    maximum of ``hi_in``); a stuck merge means a cycle through two-sided
    edges.  The merge is solved in closed form: ``J[i - 1]`` is the right
    rank due next when left rank ``i`` is placed.  It is at least one past
    that vertex's gate; short of that, the right chain runs ahead while its
    head is ready and its rank is below ``i``; and it never falls back.
    """
    n = k + m + 2
    # prefix maxima by chain rank from rank 1, as s has no in-edges; right
    # rank j is id n - j
    rl = np.maximum.accumulate(hi_in[1:k + 1])
    rr = np.maximum.accumulate(hi_in[:k + 1:-1])
    i = np.arange(1, k + 1)
    stuck = rr.searchsorted(i) + 1      # lowest right rank not ready for i
    J = np.maximum.accumulate(np.maximum(rl + 1, np.minimum(stuck, i)))
    # a right vertex placed before left i but not ready for it: stuck
    if np.count_nonzero(J > stuck):
        raise CycleDetected("two-sided edges force a cycle")
    j = np.arange(1, m + 1)
    pos = np.empty(n, dtype=np.int64)
    pos[0], pos[k + 1] = 0, n - 1
    pos[1:k + 1] = i + J - 1
    pos[:k + 1:-1] = j + J.searchsorted(j, "right")
    return pos


def _edge_endpoint_ids(ids, edges):
    """Tail and head id arrays for name-pair edges, looked up in ``ids``."""
    if set(map(len, edges)) - {2}:
        bad = next(e for e in edges if len(e) != 2)
        raise ParseError(f"edge {bad!r} is not a pair")
    try:
        flat = np.fromiter(map(ids.__getitem__, chain.from_iterable(edges)),
                           dtype=np.int64, count=2 * len(edges))
    except KeyError as exc:
        raise UnknownVertex(str(exc.args[0])) from None
    return flat[0::2], flat[1::2]


def build_graph(left_seq, right_seq, edges, s=None, t=None):
    """Validate and index an instance given as vertex names.

    ``left_seq`` and ``right_seq`` list the chain vertices bottom-up; ``edges``
    is an iterable of (from, to) name pairs; ``s`` and ``t`` are required.
    Derives every per-graph table once and stores it on the result.
    """
    left_seq = list(left_seq)
    right_seq = list(right_seq)
    edges = list(edges)
    k, m = len(left_seq), len(right_seq)

    n = k + m + 2
    names = [s] + left_seq + [t] + right_seq[::-1]
    try:
        ids = dict(zip(names, range(n)))
    except TypeError:       # an unhashable name: a fault below still comes first
        ids = {}
    if len(ids) < n or s is None or t is None:
        # some name repeats or is missing: find which, in this order
        side_names = left_seq + right_seq
        if len(set(side_names)) != len(side_names):
            raise SideNotAPath("repeated vertex in side sequences")
        if s is None or t is None or s == t:
            raise ParseError("s and t must both be given and distinct")
        if s in side_names or t in side_names:
            raise SideNotAPath("s/t may not appear inside a side sequence")
        ids = dict(zip(names, range(n)))    # none did: raises the TypeError
    tail, head = _edge_endpoint_ids(ids, edges)

    if np.count_nonzero(tail == head):
        loop = tail[(tail == head).argmax()]
        raise CycleDetected(f"self-loop at {names[loop]!r}")
    indeg = np.bincount(head, minlength=n)
    outdeg = np.bincount(tail, minlength=n)
    if indeg[0]:
        raise CycleDetected("edge into the source")
    if outdeg[k + 1]:
        raise CycleDetected("edge out of the sink")
    if np.count_nonzero(indeg == 0) > 1:
        offn = [str(names[i]) for i in (indeg == 0).nonzero()[0]]
        raise MultipleSources(str(sorted(offn)))
    if np.count_nonzero(outdeg == 0) > 1:
        offn = [str(names[i]) for i in (outdeg == 0).nonzero()[0]]
        raise MultipleSinks(str(sorted(offn)))

    keys = tail * n + head
    order = keys.argsort(kind="stable")
    keys, tail, head = keys[order], tail[order], head[order]
    same = keys[1:] == keys[:-1]
    if np.count_nonzero(same):
        dup = same.argmax()
        raise DuplicateEdge(f"({names[tail[dup]]}, {names[head[dup]]})")

    side = np.empty(n, dtype=np.int8)
    side[0] = _SRC
    side[1:k + 1] = _LEFT
    side[k + 1] = _SNK
    side[k + 2:] = _RIGHT

    # the boundary paths: left steps i -> i + 1 from s to t, right steps
    # j + 1 -> j down the ids to t, and (s, n - 1); with no edge repeated,
    # all n are there when n edges are such steps ((s, t) twice when n = 2)
    d = head - tail
    if (np.count_nonzero((d == 1) & (tail <= k))
            + np.count_nonzero((d == -1) & (tail > k + 1))
            + np.count_nonzero(d == n - 1)) != n:
        have = set(zip(tail.tolist(), head.tolist()))
        u, v = next(e for e in zip(
            [*range(k + 1), 0, *range(n - 1, k + 1, -1)],
            [*range(1, k + 2), *range(n - 1, k, -1)]) if e not in have)
        raise SideNotAPath(f"missing boundary edge ({names[u]}, {names[v]})")

    coord = _line_coords(k, m)
    cls = _edge_class_codes(tail, head, side)
    # every edge's ends on the joint line: a right edge reads the right
    # line, shifted past t's left coordinate k + 1, any other the left line
    joint = coord.flatten()
    joint[n:] += k + 2
    off = (cls == 1) * n
    a, b = joint[tail + off], joint[head + off]
    down = (a >= b) & (cls < 2)
    if np.count_nonzero(down):
        raise CycleDetected("descending edge on the {} side".format(
            "left" if np.count_nonzero(down & (cls == 0)) else "right"))
    del d, joint, off, down     # edge-sized scratch, before the big tables
    nest = _cycle_nesting(names, tail, head)
    chords = _chord_index(tail, head, cls, a, b, n)
    lo_out, hi_in = _limit_tables(n, tail, head, cls, coord)
    topo_pos = _toposort(k, m, hi_in)
    return OuterplanarStDigraph(names, ids, k, m, tail, head, keys, side,
                                coord, cls, nest, chords, lo_out, hi_in,
                                topo_pos)


def is_linear_extension(g: OuterplanarStDigraph, order) -> bool:
    pos = order_positions(g, order)
    return not np.count_nonzero(pos[g.tail] > pos[g.head])


def order_positions(g: OuterplanarStDigraph, order) -> np.ndarray:
    """Each vertex's place in ``order``, which must be a permutation of the
    vertices (:class:`NotAPermutation` otherwise)."""
    arr = int_array(order)
    if len(arr) != g.n:
        raise NotAPermutation(f"length {len(arr)}, expected {g.n}")
    if np.count_nonzero(arr.view(np.uint64) >= g.n):   # negatives wrap up
        raise NotAPermutation("vertex id out of range")
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[arr] = np.arange(g.n)
    if np.count_nonzero(pos < 0):
        raise NotAPermutation("repeated vertex")
    return pos


# -- JSON input/output -----------------------------------------------------
#
# Documents are written exactly as ``json.dumps(doc, indent=2,
# sort_keys=True)`` writes them, but straight from their fixed schema:
# that call's indenting encoder is pure Python and formats item by item.
# Here the scalars go through the C encoder in bulk, and :func:`json_rows`
# lays an array's item out once, as literal text between encoded columns,
# then fills one token array per chunk of rows by index arithmetic with
# whole columns and literal runs, and joins it once.

_CHUNK_ROWS = 2048      # bounds the token array, and so the writer's peak


def json_scalars(values) -> np.ndarray:
    """``json.dumps`` of each str, int or float value, as an object array.

    One C-encoder call: an encoded scalar never holds a raw newline, so
    newline-separated output splits back into the items.
    """
    kinds = set(map(type, values))
    if not all(issubclass(k, (str, int, float)) for k in kinds):
        raise TypeError(f"only str, int and float values are written, "
                        f"got {sorted(k.__name__ for k in kinds)}")
    return np.array(json.dumps(values, separators=("\n", ": "))[1:-1]
                    .split("\n") if values else [], dtype=object)


class Nested:
    """A variable-length array field: row ``r`` holds items ``offsets[r]``
    to ``offsets[r + 1] - 1`` of ``item``, a shape with no nested field.
    A plain class: a dataclass would cost every ``import hpcc`` 1-2 ms."""

    def __init__(self, offsets: np.ndarray, item):
        self.offsets, self.item = offsets, item


def _layout(shape, depth: int) -> list:
    """``shape`` nested ``depth`` deep, as literal texts alternating with
    columns and nested fields ``(offsets, item layout, depth)``, with a
    text first and last."""
    if isinstance(shape, Nested):
        return ["", (shape.offsets, _layout(shape.item, depth + 1), depth), ""]
    if not isinstance(shape, (dict, tuple)):
        return ["", np.asarray(shape, dtype=object), ""]
    pad, keyed = "\n" + "  " * (depth + 1), isinstance(shape, dict)
    out = ["{" if keyed else "["]
    for i, v in enumerate(shape):
        inner = _layout(shape[v] if keyed else v, depth + 1)
        out[-1] += ("," if i else "") + pad + (
            json.dumps(v) + ": " if keyed else "") + inner[0]
        out += inner[1:]
    out[-1] += pad[:-2] + ("}" if keyed else "]")
    return out


def _place(parts, at, entry, a: int, b: int):
    """Write rows ``a`` to ``b - 1`` of one layout entry, row ``r``'s from
    token ``at[r - a]`` on; returns the token after each row's."""
    if not isinstance(entry, tuple):
        parts[at] = entry if isinstance(entry, str) else entry[a:b]
        return at + 1
    offsets, item, depth = entry
    pad, lits, f = "\n" + "  " * (depth + 1), item[0::2], len(item) // 2
    off = offsets[a:b + 1]
    count = np.diff(off)
    # item i of row r takes 2f tokens from at + 2f (i - off[r]): the text
    # that opens it, then its columns between its own texts
    first = np.repeat(at - 2 * f * off[:-1], count) + 2 * f * np.arange(
        off[0], off[-1])
    parts[first] = lits[-1] + "," + pad + lits[0]
    for j, col in enumerate(item[1::2]):
        if j:
            parts[first + 2 * j] = lits[j]
        parts[first + 2 * j + 1] = col[off[0]:off[-1]]
    parts[at] = "[" + pad + lits[0]
    end = at + 2 * f * count
    parts[end] = np.array(["[]", lits[-1] + pad[:-2] + "]"],
                          dtype=object)[np.minimum(count, 1)]
    return end + 1


def json_rows(shape) -> list[str]:
    """A JSON array that is a field of the top-level object, one item per
    row of ``shape``, as strings that join to its text.  A shape is a
    column (a list or array of encoded scalars), a tuple of shapes (a
    fixed-length array), a dict of shapes (an object, keys in the order
    given, which callers keep sorted) or a :class:`Nested` field."""
    item = _layout(shape, 2)
    body, pad = item[1:-1], "\n    "
    nested = [entry for entry in body if isinstance(entry, tuple)]
    rows = len(nested[0][0]) - 1 if nested else len(body[0])
    if not rows:
        return ["[]"]
    chunks = []
    for a in range(0, rows, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, rows)
        # a row takes the text that opens it, a token per layout entry,
        # and 2f more per item of a nested field with f columns
        width = np.full(b - a, len(body) + 1)
        for offsets, item_layout, _ in nested:
            width += (len(item_layout) - 1) * np.diff(offsets[a:b + 1])
        parts = np.empty(int(width.sum()), dtype=object)
        at = width.cumsum() - width
        for entry in [item[-1] + "," + pad + item[0], *body]:
            at = _place(parts, at, entry, a, b)
        if not a:
            parts[0] = "[" + pad + item[0]
        chunks.append("".join(parts.tolist()))
    chunks.append(item[-1] + pad[:-2] + "]")
    return chunks


def json_object(fields: dict) -> str:
    """Encoded values as the top-level JSON object, in the order given,
    which callers keep sorted by key.  A value is an encoded scalar, or the
    strings :func:`json_rows` gives an array as, which are laid out in the
    object's own join: a big array joined into a string of its own would
    double the document's peak memory."""
    pad = "\n  "
    parts = []
    for k, v in fields.items():
        parts.append(f",{pad}{json.dumps(k)}: ")
        parts += [v] if isinstance(v, str) else v
    parts[0] = "{" + parts[0][1:]
    parts.append(pad[:-2] + "}")
    return "".join(parts)


def collector_paused(reader):
    """``reader`` with the cyclic collector paused over its whole body: a
    parsed document holds no cycles, but the collector's passes over it
    cost as much as the parse.  Every exit restores the caller's state."""
    @wraps(reader)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return reader(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@collector_paused
def graph_from_json(text: str) -> OuterplanarStDigraph:
    """Parse and build an instance document."""
    return _parse_graph(load_json(text))


def load_json(text: str) -> dict:
    """The JSON object in ``text``; any fault of it is a ParseError."""
    try:
        doc = json.loads(text)
    except ValueError as exc:   # also an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deep") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    return doc


def _parse_graph(doc: dict) -> OuterplanarStDigraph:
    for key in ("left", "right", "s", "t", "edges"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    left, right, edges = doc["left"], doc["right"], doc["edges"]
    if not isinstance(left, list) or not isinstance(right, list):
        raise ParseError("'left' and 'right' must be arrays")
    if not isinstance(doc["s"], str) or not isinstance(doc["t"], str):
        raise ParseError("'s' and 't' must be strings")
    if not set(map(type, left + right)) <= {str}:
        raise ParseError("'left' and 'right' must hold names (strings)")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be an array")
    # json.loads builds exact lists: this pass decides what is an edge
    # list, build_graph what is a pair, and its lookups what is a name (no
    # JSON value but a string equals one).  Its faults are ValueErrors, or
    # TypeErrors for unhashable names; a bad edge is named before any.
    try:
        if not set(map(type, edges)) <= {list}:
            raise ParseError("an edge is not an array")
        return build_graph(left, right, edges, s=doc["s"], t=doc["t"])
    except (ValueError, TypeError):
        for e in edges:
            if (not isinstance(e, list) or len(e) != 2
                    or not all(isinstance(x, str) for x in e)):
                raise ParseError(
                    f"edge {e!r} must be a pair of names") from None
        raise


def graph_to_json(g: OuterplanarStDigraph) -> str:
    names = json_scalars(g.names)
    return json_object({
        "edges": json_rows((names[g.tail], names[g.head])),
        "left": json_rows(names[1:g.k + 1]),
        "right": json_rows(names[:g.k + 1:-1]),
        "s": names[g.s],
        "t": names[g.t],
    })
