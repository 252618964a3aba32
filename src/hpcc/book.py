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

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice

from .crossings import NotLinearExtension, solution_crossings
from .graph import (OuterplanarStDigraph, Edge, ParseError, ValidationError,
                    VertexId, _LEFT, json_array, json_object, json_scalars)
from .solver import CompletionSolution, solution_problems

LEFT_PAGE = "L"
RIGHT_PAGE = "R"


class InvalidSolution(ValidationError):
    pass


class SpineNotLinearExtension(ValidationError):
    pass


@dataclass(frozen=True)
class Segment:
    page: str
    start: float
    end: float


@dataclass(frozen=True)
class EdgeDrawing:
    edge: Edge
    segments: tuple[Segment, ...]
    spine_crossings: tuple[int, ...]  # slot index of each dive, in order


@dataclass(frozen=True)
class BookEmbedding:
    spine: tuple[VertexId, ...]
    drawings: tuple[EdgeDrawing, ...]

    @property
    def spine_crossing_count(self) -> int:
        return sum(len(d.spine_crossings) for d in self.drawings)


def _first_page(g: OuterplanarStDigraph, pos, spine, u: int, v: int,
                cls: int) -> str:
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


def to_book_embedding(g: OuterplanarStDigraph,
                      sol: CompletionSolution) -> BookEmbedding:
    probs = solution_problems(g, sol)
    if probs:
        raise InvalidSolution("; ".join(probs))

    spine = list(sol.order)
    pos = {v: i for i, v in enumerate(spine)}
    per_ce = Counter(r.completion_edge for r in sol.records)
    dives: dict[Edge, list[float]] = defaultdict(list)
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
    return BookEmbedding(tuple(spine), tuple(drawings))


def from_book_embedding(g: OuterplanarStDigraph,
                        be: BookEmbedding) -> CompletionSolution:
    """Recover the completion solution a book embedding encodes."""
    try:
        ces, records, total = solution_crossings(g, list(be.spine))
    except NotLinearExtension as exc:
        raise SpineNotLinearExtension(str(exc)) from None
    return CompletionSolution(order=list(be.spine), completion_edges=ces,
                              records=records, crossings=total)


def _page_planarity(segs: list[Segment]) -> list[str]:
    probs = []
    by_coord: dict[float, tuple[list[Segment], list[Segment]]] = {}
    for s in segs:
        by_coord.setdefault(s.end, ([], []))[0].append(s)
        by_coord.setdefault(s.start, ([], []))[1].append(s)
    stack: list[Segment] = []
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


def validate_book_embedding(be: BookEmbedding,
                            g: OuterplanarStDigraph | None = None
                            ) -> list[str]:
    """Structural faults of a book embedding, empty when it is sound.

    Without a graph this checks pure geometry: arcs run upward and
    contiguously, pages alternate, dive points are fractional, distinct
    and match the declared slots, and neither page self-intersects.
    With the graph it also replays the spine and compares the crossings.
    """
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
    drawn = {d.edge for d in be.drawings}
    if drawn != g.edge_set:
        probs.append("drawn edges do not match the graph")
        return probs
    ce_pos = {ce: pos[ce[0]] for ce in ces}
    want: dict[Edge, list[float]] = defaultdict(list)
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


def book_to_json(g: OuterplanarStDigraph, be: BookEmbedding) -> str:
    names = json_scalars(g.names)
    seg = json_object({"from": "%s", "page": "%s", "to": "%s"}, 4)
    fields = json_scalars([x for d in be.drawings for s in d.segments
                           for x in (s.start, s.page, s.end)])
    segs = map(seg.__mod__, zip(*[iter(fields)] * 3))
    dives = iter(json_scalars(
        [i for d in be.drawings for i in d.spine_crossings]))
    edge = json_object({"edge": json_array(("%s", "%s"), 3),
                        "segments": "%s", "spine_crossings": "%s"}, 2)
    edges = [edge % (names[d.edge[0]], names[d.edge[1]],
                     json_array(list(islice(segs, len(d.segments))), 3),
                     json_array(list(islice(dives, len(d.spine_crossings))),
                                3))
             for d in be.drawings]
    return json_object({"edges": edges,
                        "spine": [names[v] for v in be.spine]}, 0)


def book_from_json(g: OuterplanarStDigraph, text: str) -> BookEmbedding:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError("top level must be an object")
    try:
        spine = tuple(g.vid(name) for name in payload["spine"])
        drawings = []
        for entry in payload["edges"]:
            segs = tuple(
                Segment(str(s["page"]), float(s["from"]), float(s["to"]))
                for s in entry["segments"])
            drawings.append(EdgeDrawing(
                (g.vid(entry["edge"][0]), g.vid(entry["edge"][1])),
                segs, tuple(int(i) for i in entry["spine_crossings"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed book embedding: {exc}") from None
    return BookEmbedding(spine, tuple(drawings))
