"""Two-page book form of a completed drawing.

The hamiltonian order becomes the spine; every graph edge is drawn as
arcs that alternate between the two pages, diving through the spine once
per crossing with a completion edge.  A crossing with the completion
edge sitting in spine slot ``i`` gets the coordinate ``i + o / (c + 1)``
where ``o`` is its 1-based rank along that completion edge and ``c`` the
edge's crossing count, so all dive points are distinct and each lands
strictly inside its slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

from .crossings import NotLinearExtension, chain_edges, scan_order
from .graph import (OuterplanarStDigraph, Edge, Nested, ParseError,
                    UnknownVertex, ValidationError, VertexId, _LEFT, int_array,
                    json_object, json_rows, json_scalars, load_json, nesting)
from .solver import CompletionSolution, solution_problems

LEFT_PAGE = "L"
RIGHT_PAGE = "R"
# left page for an edge between spine neighbours, by edge class (left,
# right, two-sided) and the tail's side code (s, left chain, right, t)
_NEIGHBOUR_LEFT = np.zeros((3, 4), dtype=bool)
_NEIGHBOUR_LEFT[0] = _NEIGHBOUR_LEFT[2, _LEFT] = True
_NAN = np.array([np.nan])


class InvalidSolution(ValidationError):
    pass


class SpineNotLinearExtension(ValidationError):
    pass


@dataclass(frozen=True, slots=True)
class Segment:
    page: str
    start: float
    end: float


@dataclass(frozen=True, slots=True)
class EdgeDrawing:
    edge: Edge
    segments: tuple[Segment, ...]
    spine_crossings: tuple[int, ...]  # slot index of each dive, in order


class BookEmbedding:
    """A spine and one drawing per edge, held as flat arrays.

    Drawing ``d`` runs from ``tail[d]`` to ``head[d]`` through segments
    ``seg[d]`` to ``seg[d + 1]`` and dives ``dive[d]`` to ``dive[d + 1]``.
    Segment ``i`` spans ``start[i]`` to ``end[i]`` on page
    ``pages[page[i]]``, where ``pages`` opens with ``L`` and ``R``; dive
    ``k`` lands in spine slot ``slot[k]``.  ``drawings`` is the tuple
    view, built on first read; the reader, ``==`` and the SVG read the
    arrays.
    """

    def __init__(self, spine: tuple[VertexId, ...],
                 drawings: tuple[EdgeDrawing, ...]):
        segs = [s for d in drawings for s in d.segments]
        self._columns(spine, [d.edge for d in drawings],
                      [len(d.segments) for d in drawings],
                      [len(d.spine_crossings) for d in drawings],
                      [s.page for s in segs], [s.start for s in segs],
                      [s.end for s in segs],
                      [k for d in drawings for k in d.spine_crossings])

    def _columns(self, spine, ends, nseg, ndive, pages, start, end, slot):
        """Fill the arrays from the columns: per drawing its (tail, head)
        and segment and dive counts, per segment its page name and ends,
        per dive its slot.  A float or string id or slot is a TypeError."""
        code = {LEFT_PAGE: 0, RIGHT_PAGE: 1}
        page = [code.setdefault(p, len(code)) for p in pages]
        return self._fill(
            tuple(int_array(spine).tolist()),
            *int_array(ends).reshape(-1, 2).T, np.cumsum([0, *nseg]),
            np.cumsum([0, *ndive]), np.array(start, dtype=float),
            np.array(end, dtype=float), np.array(page, dtype=np.int64),
            tuple(code), int_array(slot))

    def _fill(self, *parts) -> BookEmbedding:
        (self.spine, self.tail, self.head, self.seg, self.dive, self.start,
         self.end, self.page, self.pages, self.slot) = parts
        return self

    _parts = property(attrgetter("spine", "tail", "head", "seg", "dive",
                                 "start", "end", "page", "pages", "slot"))

    @cached_property
    def drawings(self) -> tuple[EdgeDrawing, ...]:
        # lists first: a tuple built straight from a map is grown by
        # repeated resizing, which left the process's memory growing
        segs = tuple(list(map(Segment, map(self.pages.__getitem__,
                                           self.page.tolist()),
                              self.start.tolist(), self.end.tolist())))
        slots = tuple(self.slot.tolist())
        at, before = self.seg.tolist(), self.dive.tolist()
        return tuple(list(map(
            EdgeDrawing, zip(self.tail.tolist(), self.head.tolist()),
            map(segs.__getitem__, map(slice, at, at[1:])),
            map(slots.__getitem__, map(slice, before, before[1:])))))

    @property
    def spine_crossing_count(self) -> int:
        return len(self.slot)

    @property
    def left(self) -> np.ndarray:   # per segment, whether on the left page
        return self.page == 0

    def __eq__(self, other):
        # pages are coded in order of first use after L and R, so equal
        # books code alike; array == keeps the views' truth table: -0.0 ==
        # 0.0, nan != nan, and a book equals itself
        return isinstance(other, BookEmbedding) and (self is other or all(
            map(np.array_equal, self._parts, other._parts)))


def to_book_embedding(g: OuterplanarStDigraph,
                      sol: CompletionSolution) -> BookEmbedding:
    """The solution's book embedding, built as array passes over the
    edges and the solution's crossing claims; :class:`InvalidSolution`
    if the solution has a fault."""
    probs = solution_problems(g, sol)
    if probs:
        raise InvalidSolution("; ".join(probs))

    n, tail, head = g.n, g.tail, g.head
    spine = int_array(sol.order)
    pos = spine.argsort()           # the inverse permutation
    # the check has just scanned this order, and the claims match its
    # crossings: the dives come off that scan, by crossed edge, then upward
    scan = g._cache["scan"][1]
    row, eid = scan.pair_ce, scan.pair_eid
    dive = scan.ce_spine[row] + (scan.pair_ordinal + 1) / (
        np.bincount(row)[row] + 1)
    dive, per_edge = (dive[np.lexsort((dive, eid))],
                      np.bincount(eid, minlength=len(tail)))
    pu, pv = pos[tail], pos[head]
    start, end = chain_edges(pu.astype(float), pv.astype(float), per_edge,
                             dive)

    # an edge between spine neighbours keeps its side's page (a two-sided
    # one its tail's side); any other edge takes the side of the spine on
    # which it leaves u, read off the vertex cycle: the left page when,
    # going down the cycle from u's spine successor, its head comes before
    # u's spine predecessor (u itself when u opens the spine)
    ring = np.concatenate((spine[:1], spine))
    nxt = ring[pu + 2]
    left = np.where(pv == pu + 1, _NEIGHBOUR_LEFT[g.classes, g.side[tail]],
                    (nxt - head) % n < (nxt - ring[pu]) % n)
    # pages alternate along each edge, from its first segment at index at
    before = np.concatenate(([0], per_edge.cumsum()))
    at = np.arange(len(tail) + 1) + before
    left = (left ^ (at[:-1] & 1)).repeat(per_edge + 1) ^ (
        np.arange(len(start)) & 1)
    return BookEmbedding.__new__(BookEmbedding)._fill(
        tuple(sol.order), tail, head, at, before, start, end, left ^ 1,
        (LEFT_PAGE, RIGHT_PAGE), np.floor(dive).astype(np.int64))


def from_book_embedding(g: OuterplanarStDigraph,
                        be: BookEmbedding) -> CompletionSolution:
    """Recover the completion solution a book embedding encodes."""
    try:
        return CompletionSolution.of_scan(g, list(be.spine),
                                          scan_order(g, be.spine))
    except NotLinearExtension as exc:
        raise SpineNotLinearExtension(str(exc)) from None


def _page_planarity(start, end, right) -> list[str]:
    """Nesting of each page's arcs, both pages by one :func:`nesting` on a
    line of coordinate ranks, the right page past the left.  A page's stack
    pass (ends before starts) fails at the least end of a parent that an
    arc leaves, with the arcs open there, less those ending there on top."""
    # coordinate ranks by one argsort, as np.unique would rank them
    x = np.concatenate((start, end))
    by = x.argsort()
    xs, new = x[by], np.ones(len(x), dtype=bool)
    new[1:] = xs[1:] != xs[:-1]
    at = np.empty_like(by)
    at[by] = new.cumsum() - 1
    coord = xs[new]
    lo, hi = at.reshape(2, -1) + len(coord) * right
    nest = nesting(lo, hi, 2 * len(coord))
    if not len(nest.leaves):
        return []
    bound = hi[nest.order[nest.parent[nest.leaves]]]    # parents left
    pre = np.empty_like(nest.order)                     # arcs in preorder
    pre[nest.key % len(pre)] = nest.order
    lo, hi, probs = lo[pre], hi[pre], []
    for page in (bound < len(coord), bound >= len(coord)):
        if page.any():
            c = bound[page].min()
            stack = np.flatnonzero((lo < c) & (hi >= c))
            top = stack[:np.flatnonzero(hi[stack] > c)[-1] + 1][-3:]
            probs.append(f"arcs interleave on a page near coordinate "
                         f"{float(coord[c % len(coord)])} "
                         f"(open arc ends {end[pre[top]].tolist()})")
    return probs


def validate_book_embedding(be: BookEmbedding,
                            g: OuterplanarStDigraph | None = None
                            ) -> list[str]:
    """Structural faults of a book embedding, empty when it is sound.

    Without a graph this checks pure geometry: arcs run upward and
    contiguously, pages alternate, dive points are fractional, distinct
    and match the declared slots, and neither page self-intersects.
    With the graph it also replays the spine and compares the crossings.
    The checks run as masks over the embedding's arrays; the drawings
    they flag are reported in order.
    """
    if not be.spine:
        return ["empty spine"]
    if len(set(be.spine)) != len(be.spine):
        return ["spine repeats a vertex"]
    S, D, seg, dive = len(be.start), len(be.tail), be.seg, be.dive
    nseg, ndive = seg[1:] - seg[:-1], dive[1:] - dive[:-1]
    # spine position of each drawing's ends, -1 off the spine
    spine = int_array(be.spine)
    by = spine.argsort()
    ranked, ends = spine[by], np.concatenate((be.tail, be.head))
    i = np.minimum(ranked.searchsorted(ends), len(by) - 1)
    pu, pv = np.where(ranked[i] == ends, by[i], -1).reshape(2, -1)
    # per segment, then a padding entry that matches nothing
    start, end = (np.concatenate((be.start, _NAN)),
                  np.concatenate((be.end, _NAN)))
    page = np.concatenate((be.page, [-1]))
    first, last, dive_first = seg[:-1], seg[1:] - 1, dive[:-1]
    # dive k of a drawing lands at the end of its k-th segment
    at = np.minimum(np.arange(len(be.slot))
                    + (first - dive_first).repeat(ndive), S)
    c = end[at]
    joint = np.ones(S + 1, dtype=bool)
    joint[last] = False
    joint = joint[:S]

    missing = (pu < 0) | (pv < 0)
    off_ends = (start[first] != pu) | (end[last] != pv)
    miscount = ndive != nseg - 1
    gap = joint & (end[:S] != start[1:])
    same = joint & (page[:S] == page[1:])
    unknown = page[:S] > 1
    flat_up = ~(start[:S] < end[:S])
    integer = np.isfinite(c) & (c == np.floor(c))
    outside = np.floor(c) != be.slot
    probs = []
    if (np.count_nonzero(missing | off_ends | miscount)
            or np.count_nonzero(gap | same | unknown | flat_up)
            or np.count_nonzero(integer | outside)):
        ends = end.tolist()     # messages hold plain Python floats
        for d, (u, v) in enumerate(zip(be.tail.tolist(), be.head.tolist())):
            tag = f"edge {u}->{v}"
            if missing[d]:
                probs.append(f"{tag} uses a vertex missing from the spine")
                continue
            if not nseg[d]:
                probs.append(f"{tag} has no segments")
                continue
            if off_ends[d]:
                probs.append(f"{tag} does not run endpoint to endpoint")
            if miscount[d]:
                probs.append(f"{tag} declares {ndive[d]} dives "
                             f"for {nseg[d]} segments")
                continue
            segs = range(first[d], last[d] + 1)
            for i in segs:
                if gap[i]:
                    probs.append(f"{tag} has a gap between segments")
                if same[i]:
                    probs.append(f"{tag} stays on one page across a dive")
            for i in segs:
                if unknown[i]:
                    probs.append(f"{tag} names unknown page "
                                 f"{be.pages[page[i]]!r}")
                if flat_up[i]:
                    probs.append(f"{tag} has a non-ascending segment")
            for k in range(dive_first[d], dive_first[d] + ndive[d]):
                if integer[k]:
                    probs.append(f"{tag} dives at the integer coordinate "
                                 f"{ends[at[k]]}")
                elif outside[k]:
                    probs.append(f"{tag} dive {ends[at[k]]} is outside "
                                 f"slot {be.slot[k]}")
        return probs

    if len(set(c.tolist())) != len(c):
        probs.append("two dives share a coordinate")
    probs += _page_planarity(start[:S], end[:S], page[:S] == 1)
    if probs or g is None:
        return probs

    try:
        scan = scan_order(g, spine)
    except NotLinearExtension as exc:
        return [f"spine is not a linear extension: {exc}"]
    # drawn ends are spine vertices; each graph edge is drawn exactly once
    eid = g.edge_ids(be.tail, be.head)
    if np.count_nonzero(eid < 0) or np.count_nonzero(
            np.bincount(eid, minlength=g.edge_count) != 1):
        return ["drawn edges do not match the graph"]
    # a crossing with the completion edge in slot i dives at
    # i + (o + 1) / (c + 1), c that edge's crossing count
    row, crossed = scan.pair_ce, scan.pair_eid
    want = scan.ce_spine[row] + (scan.pair_ordinal + 1) / (
        np.bincount(row, minlength=len(scan.ce_spine))[row] + 1)
    want = want[np.lexsort((want, crossed))]
    per_edge = np.bincount(crossed, minlength=g.edge_count)
    # each drawing's dives against its edge's crossings, in order
    bad = per_edge[eid] != ndive
    if not np.count_nonzero(bad):
        at = np.arange(len(c)) + (
            (per_edge.cumsum() - per_edge)[eid] - dive_first).repeat(ndive)
        off = want[at] != c
        if not np.count_nonzero(off):
            return []
        bad = np.bincount(np.arange(D).repeat(ndive)[off], minlength=D) > 0
    return [f"edge {u}->{v} dives do not match the spine's crossings"
            for u, v in zip(be.tail[bad].tolist(), be.head[bad].tolist())]


def book_to_json(g: OuterplanarStDigraph, be: BookEmbedding) -> str:
    names = json_scalars(g.names)
    # each distinct coordinate is encoded once (by bit pattern: -0.0 stays)
    S = len(be.start)
    bits, at = np.unique(np.concatenate((be.start, be.end)).view(np.int64),
                         return_inverse=True)
    coord = json_scalars(bits.view(float).tolist())[at]
    pages = json_scalars(list(be.pages))
    return json_object({
        "edges": json_rows({
            "edge": (names[be.tail], names[be.head]),
            "segments": Nested(be.seg, {"from": coord[:S],
                                        "page": pages[be.page],
                                        "to": coord[S:]}),
            "spine_crossings": Nested(be.dive, json_scalars(be.slot.tolist())),
        }),
        "spine": json_rows(names[int_array(be.spine)]),
    })


def _exact(values, kinds: set, what: str):
    """``values`` if JSON decoded each as one of ``kinds``: no bool passes
    for a number, and no float or string is cut down to an integer slot."""
    if not set(map(type, values)) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise TypeError(f"{what} expected, got {bad!r}")
    return values


def _vids(g: OuterplanarStDigraph, names) -> list[VertexId]:
    try:    # one pass over the name dict; a bare KeyError would quote names
        return list(map(g._ids.__getitem__, names))
    except KeyError as exc:
        raise UnknownVertex(exc.args[0]) from None


def book_from_json(g: OuterplanarStDigraph, text: str) -> BookEmbedding:
    """The book in ``text``, each field checked as one pass over its
    column; any fault is a ParseError."""
    payload = load_json(text)
    try:
        spine, edges = _exact((payload["spine"], payload["edges"]), {list},
                              "array")
        ends, segs, dives = (_exact([e[k] for e in edges], {list}, "array")
                             for k in ("edge", "segments", "spine_crossings"))
        if set(map(len, ends)) - {2}:
            raise ValueError("an edge is not a pair of names")
        flat = list(chain(*segs))
        return BookEmbedding.__new__(BookEmbedding)._columns(
            _vids(g, spine), _vids(g, chain(*ends)),
            list(map(len, segs)), list(map(len, dives)),
            _exact([s["page"] for s in flat], {str}, "page"),
            _exact([s["from"] for s in flat], {int, float}, "number"),
            _exact([s["to"] for s in flat], {int, float}, "number"),
            _exact(list(chain(*dives)), {int}, "integer slot"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed book embedding: {exc}") from None
