"""Two-page drawings along a spine, with dives where edges get crossed."""

import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcc import (GeneratorParams, build_graph, generate, graph_from_json,
                  solve)
from hpcc.book import (
    BookEmbedding,
    EdgeDrawing,
    InvalidSolution,
    Segment,
    SpineNotLinearExtension,
    book_from_json,
    book_to_json,
    from_book_embedding,
    to_book_embedding,
    validate_book_embedding,
)
from hpcc.graph import _CHUNK_ROWS, ParseError
from hpcc.render import render_svg
from hpcc.solver import CompletionSolution
from reference import (_page_planarity, book_payload, indented,
                       reference_book_embedding, reference_book_problems,
                       reference_drawings, reference_svg)
from strategies import instances

FIXTURES = ["weak_rhombus", "strong_rhombus", "chorded_polygon",
            "stacked_rhombi", "edge_linked_polygons", "double_crossing",
            "hamiltonian_path", "awkward_names", "numeric_names"]


def drawing_of(be, edge):
    return next(d for d in be.drawings if d.edge == edge)


def problems(be, g=None):
    """The validator's problem list, checked against the reference's; the
    messages hold plain Python numbers."""
    got = validate_book_embedding(be, g)
    assert got == reference_book_problems(be, g)
    assert not any("np." in p for p in got)
    return got


def redrawn(be, old, new):
    """``be`` with drawing ``old`` replaced, through the public constructor."""
    return BookEmbedding(be.spine, tuple(new if x == old else x
                                         for x in be.drawings))


def test_planar_case_stays_on_its_pages(weak_rhombus):
    be = to_book_embedding(weak_rhombus, solve(weak_rhombus))
    assert be.spine == (0, 1, 3, 2)
    assert be.spine_crossing_count == 0
    pages = {d.edge: d.segments[0].page for d in be.drawings}
    assert pages == {(0, 1): "L", (1, 2): "L", (0, 3): "R", (3, 2): "R"}
    assert validate_book_embedding(be, weak_rhombus) == []


def test_crossed_median_dives_once(strong_rhombus):
    be = to_book_embedding(strong_rhombus, solve(strong_rhombus))
    d = drawing_of(be, (0, 2))
    assert d.segments == (Segment("R", 0.0, 1.5), Segment("L", 1.5, 3.0))
    assert d.spine_crossings == (1,)
    assert be.spine_crossing_count == 1
    assert validate_book_embedding(be, strong_rhombus) == []


def test_round_trips(strong_rhombus):
    sol = solve(strong_rhombus)
    be = to_book_embedding(strong_rhombus, sol)
    assert from_book_embedding(strong_rhombus, be) == sol
    js = book_to_json(strong_rhombus, be)
    assert book_from_json(strong_rhombus, js) == be
    assert book_to_json(strong_rhombus, book_from_json(strong_rhombus, js)) == js


def test_rejects_broken_solution(strong_rhombus):
    sol = solve(strong_rhombus)
    lying = CompletionSolution(sol.order, sol.completion_edges, sol.records,
                               crossings=9)
    with pytest.raises(InvalidSolution):
        to_book_embedding(strong_rhombus, lying)


def test_rejects_bad_spine(strong_rhombus):
    be = to_book_embedding(strong_rhombus, solve(strong_rhombus))
    flipped = BookEmbedding((0, 2, 1, 3), be.drawings)
    with pytest.raises(SpineNotLinearExtension):
        from_book_embedding(strong_rhombus, flipped)


def test_json_rejects_garbage(strong_rhombus):
    with pytest.raises(ParseError):
        book_from_json(strong_rhombus, "{")
    with pytest.raises(ParseError):
        book_from_json(strong_rhombus, "[]")
    with pytest.raises(ParseError):
        book_from_json(strong_rhombus, '{"spine": ["s"]}')


@pytest.mark.parametrize(
    "text", ["[" * 10**5, '{"spine": ' + "9" * 5000 + "}"],
    ids=["deep", "long-integer"])
def test_both_readers_refuse_deep_nesting_and_long_integers(
        strong_rhombus, text):
    # json.loads raises RecursionError and a bare ValueError on these
    with pytest.raises(ParseError, match="^invalid JSON: "):
        graph_from_json(text)
    with pytest.raises(ParseError, match="^invalid JSON: "):
        book_from_json(strong_rhombus, text)


@pytest.mark.parametrize("field, value", [
    ("spine_crossings", [3.9]),
    ("spine_crossings", ["3"]),
    ("spine_crossings", [True]),
    ("from", "3.3333333333333335"),
    ("from", True),
    ("to", None),
    ("spine_crossings", [10**30]),
    ("spine_crossings", [-2**63 - 1]),
    ("spine_crossings", [2**63]),
])
def test_json_refuses_coerced_values(field, value):
    # read as slot 3 or as a float, these left the validator nothing to
    # find; slots past int64 raised a bare TypeError or wrapped around
    g = generate(GeneratorParams(n=8, chord_density=0.7, seed=3))
    doc = json.loads(book_to_json(g, to_book_embedding(g, solve(g))))
    entry = next(e for e in doc["edges"] if e["spine_crossings"])
    if field == "spine_crossings":
        entry[field] = value
    else:
        entry["segments"][1][field] = value
    with pytest.raises(ParseError, match="^malformed book embedding: "):
        book_from_json(g, json.dumps(doc))


def huge_coordinate(doc, entry):
    entry["segments"][0]["from"] = 10 ** 400


def spine_as_string(doc, entry):
    doc["spine"] = "st"


def edge_as_string(doc, entry):
    entry["edge"] = "st"


def three_name_edge(doc, entry):
    entry["edge"].append(doc["spine"][0])


def wrong_type(where, value):
    """A spoiler setting the first edge's field, its first segment's page
    or the edge list to a JSON value of the wrong type."""
    def spoil(doc, entry):
        if where == "page":
            entry["segments"][0]["page"] = value
        elif where == "edges":
            doc["edges"] = value
        else:
            entry[where] = value
    return pytest.param(spoil, id=f"{where}-{json.dumps(value)}")


@pytest.mark.parametrize("spoil", [
    huge_coordinate, spine_as_string, edge_as_string, three_name_edge,
    *(wrong_type(*wv) for wv in (
        ("page", 7), ("page", True), ("segments", {}),
        ("spine_crossings", {}), ("edges", {}), ("edges", "")))])
def test_json_refuses_malformed_shapes(spoil):
    # these raised a bare OverflowError, were read as other names, or (the
    # wrong types) were read through str() or as no entries
    g = generate(GeneratorParams(n=8, chord_density=0.7, seed=3))
    doc = json.loads(book_to_json(g, to_book_embedding(g, solve(g))))
    spoil(doc, doc["edges"][0])
    with pytest.raises(ParseError, match="^malformed book embedding: "):
        book_from_json(g, json.dumps(doc))


@pytest.mark.parametrize("where", ["spine", "edge"])
def test_unknown_names_are_named_exactly(where):
    # names map through the graph's dict in one pass; a miss names the
    # name itself, not a quoted KeyError
    g = generate(GeneratorParams(n=8, chord_density=0.7, seed=3))
    doc = json.loads(book_to_json(g, to_book_embedding(g, solve(g))))
    if where == "spine":
        doc["spine"][2] = "zz"
    else:
        doc["edges"][1]["edge"][1] = "zz"
    with pytest.raises(ParseError) as exc:
        book_from_json(g, json.dumps(doc))
    assert str(exc.value) == "malformed book embedding: zz"


class TestValidatorFaults:
    def embed(self, g):
        return to_book_embedding(g, solve(g))

    def test_empty_spine(self, weak_rhombus):
        be = BookEmbedding((), ())
        assert problems(be) == ["empty spine"]

    def test_repeated_vertex(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        bad = BookEmbedding((0, 1, 1, 2), be.drawings)
        assert problems(bad) == ["spine repeats a vertex"]

    def test_detached_endpoint(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        stub = EdgeDrawing((0, 1), (Segment("L", 0.0, 2.0),), ())
        bad = BookEmbedding(be.spine, (stub,) + be.drawings[1:])
        assert any("endpoint to endpoint" in p
                   for p in problems(bad))

    def test_dive_on_one_page(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        flat = dataclasses.replace(
            d, segments=(Segment("R", 0.0, 1.5), Segment("R", 1.5, 3.0)))
        bad = redrawn(be, d, flat)
        assert any("stays on one page" in p
                   for p in problems(bad))

    def test_integer_dive(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        moved = dataclasses.replace(
            d, segments=(Segment("R", 0.0, 2.0), Segment("L", 2.0, 3.0)),
            spine_crossings=(2,))
        bad = redrawn(be, d, moved)
        assert any("integer coordinate" in p
                   for p in problems(bad))

    def test_dive_outside_slot(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        moved = dataclasses.replace(d, spine_crossings=(2,))
        bad = redrawn(be, d, moved)
        assert any("outside slot" in p for p in problems(bad))

    def test_infinite_dive(self, strong_rhombus):
        # the per-drawing reference stops at math.floor(inf) here
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        moved = dataclasses.replace(d, segments=(
            Segment("R", 0.0, float("inf")), Segment("L", float("inf"), 3.0)))
        bad = redrawn(be, d, moved)
        assert validate_book_embedding(bad) == [
            "edge 0->2 has a non-ascending segment",
            "edge 0->2 dive inf is outside slot 1"]

    def test_interleaving_arcs(self):
        # one segment per drawing, so only the pages' nesting can fail:
        # random arcs, and laminar ones with one arc end moved by one
        faulty = Counter()
        for seed in range(1500):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            if seed % 2:
                arcs = [sorted(rng.sample(range(n), 2))
                        for _ in range(rng.randint(1, 12))]
            else:
                arcs, todo = [], [(0, n - 1)]
                while todo:
                    a, b = todo.pop()
                    arcs.append([a, b])
                    if b - a >= 2:
                        c = rng.randint(a + 1, b - 1)
                        todo += [(a, c), (c, b)]
                rng.choice(arcs)[rng.randint(0, 1)] += rng.choice((-1, 1))
                arcs = [sorted(x) for x in arcs
                        if x[0] != x[1] and 0 <= min(x) and max(x) < n]
            rng.shuffle(arcs)
            pages = rng.choice(("L", "R", "LR"))
            be = BookEmbedding(tuple(range(n)), tuple(EdgeDrawing(
                (a, b), (Segment(rng.choice(pages), float(a), float(b)),), ())
                for a, b in arcs))
            want = [p for page in "LR" for p in _page_planarity(
                [s for d in be.drawings for s in d.segments
                 if s.page == page])]
            assert validate_book_embedding(be) == want
            faulty[seed % 2, len(want)] += 1
        assert min(faulty[0, 1], faulty[1, 1], faulty[1, 2]) >= 20, faulty

    def test_vertex_missing_from_the_spine(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        assert problems(BookEmbedding(be.spine[:-1], be.drawings)) == [
            "edge 1->2 uses a vertex missing from the spine",
            "edge 3->2 uses a vertex missing from the spine"]

    def test_drawing_without_segments(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        bare = EdgeDrawing((0, 1), (), ())
        assert problems(redrawn(be, be.drawings[0], bare)) == [
            "edge 0->1 has no segments"]

    def test_dives_miscounted(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        split = EdgeDrawing((0, 1), (Segment("L", 0.0, 0.5),
                                     Segment("R", 0.5, 1.0)), ())
        assert problems(redrawn(be, be.drawings[0], split)) == [
            "edge 0->1 declares 0 dives for 2 segments"]

    def test_gap_between_segments(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        torn = dataclasses.replace(
            d, segments=(Segment("R", 0.0, 1.4), Segment("L", 1.6, 3.0)))
        assert problems(redrawn(be, d, torn)) == [
            "edge 0->2 has a gap between segments"]

    def test_unknown_page(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        odd = dataclasses.replace(
            d, segments=(Segment("X", 0.0, 1.5), Segment("L", 1.5, 3.0)))
        assert problems(redrawn(be, d, odd)) == [
            "edge 0->2 names unknown page 'X'"]

    def test_two_dives_at_one_coordinate(self, strong_rhombus):
        # (0, 3) dives where (0, 2) does, and its first arc then
        # interleaves the arc of (1, 2) on the left page
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 3))
        twin = dataclasses.replace(
            d, segments=(Segment("L", 0.0, 1.5), Segment("R", 1.5, 2.0)),
            spine_crossings=(1,))
        assert problems(redrawn(be, d, twin)) == [
            "two dives share a coordinate",
            "arcs interleave on a page near coordinate 1.5 "
            "(open arc ends [1.5, 3.0])"]

    def test_spine_not_a_linear_extension(self, weak_rhombus):
        # sound geometry, since the reversed edge (0, 1) is not drawn
        be = BookEmbedding((1, 0, 3, 2), (
            EdgeDrawing((0, 3), (Segment("L", 1.0, 2.0),), ()),
            EdgeDrawing((1, 2), (Segment("L", 0.0, 3.0),), ()),
            EdgeDrawing((3, 2), (Segment("L", 2.0, 3.0),), ())))
        assert problems(be) == []
        assert problems(be, weak_rhombus) == [
            "spine is not a linear extension: "
            "order violates an edge direction"]

    def test_missing_edge_against_graph(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        bad = BookEmbedding(be.spine, be.drawings[1:])
        assert any("do not match the graph" in p
                   for p in problems(bad, weak_rhombus))

    def test_edge_drawn_twice_against_graph(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        twice = BookEmbedding(be.spine, be.drawings + be.drawings[:1])
        assert problems(twice) == []
        assert problems(twice, strong_rhombus) == [
            "drawn edges do not match the graph"]

    def test_phantom_dive_against_graph(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        d = drawing_of(be, (3, 2))
        split = dataclasses.replace(
            d, segments=(Segment("R", 2.0, 2.5), Segment("L", 2.5, 3.0)),
            spine_crossings=(2,))
        bad = redrawn(be, d, split)
        assert problems(bad) == []
        assert any("dives do not match" in p
                   for p in problems(bad, weak_rhombus))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_embedding_matches_solution(g):
    sol = solve(g)
    be = to_book_embedding(g, sol)
    assert be == reference_book_embedding(g, sol)
    assert (be.spine, be.drawings) == reference_drawings(g, sol)
    assert render_svg(g, be) == reference_svg(g, be)
    assert be.spine_crossing_count == sol.crossings
    assert problems(be, g) == []
    assert from_book_embedding(g, be) == sol
    js = book_to_json(g, be)
    assert js == indented(book_payload(g, be))
    assert book_from_json(g, js) == be


@pytest.mark.parametrize("name", ["hamiltonian_path", "awkward_names",
                                  "numeric_names", "double_crossing"])
def test_json_on_fixed_cases(request, name):
    g = request.getfixturevalue(name)
    be = to_book_embedding(g, solve(g))
    text = book_to_json(g, be)
    assert text == indented(book_payload(g, be))
    if name == "hamiltonian_path":
        assert text.count('"spine_crossings": []') == g.edge_count
    if name == "double_crossing":
        assert "3.3333333333333335" in text


def test_non_integer_ends_and_slots_are_refused():
    # numpy alone would read 0.5 as 0, "2" as 2 and 2**63 as -2**63
    for d in (EdgeDrawing((0.5, 1), (Segment("L", 0.0, 1.0),), ()),
              *(EdgeDrawing((0, 1), (Segment("L", 0.0, 0.5),
                                     Segment("R", 0.5, 1.0)), (slot,))
                for slot in ("2", 2**63))):
        with pytest.raises(TypeError):
            BookEmbedding((0, 1), (d,))


def test_json_of_a_hand_made_embedding(weak_rhombus):
    # arbitrary pages and numbers, as book_from_json may return them
    be = BookEmbedding((0, 1, 3, 2), (
        EdgeDrawing((0, 1), (Segment("L", 0, 1.0),), ()),
        EdgeDrawing((0, 3), (Segment("R", 0.0, 2.3333333333333335),
                             Segment("page\n2", 2.3333333333333335,
                                     float("inf"))), (2,)),
        EdgeDrawing((3, 2), (), ())))
    assert book_to_json(weak_rhombus, be) == \
        indented(book_payload(weak_rhombus, be))


# hand-made embeddings draw on a graph named by strings or by numbers
NAMED = build_graph(["a"], ["b"], [("s", "a"), ("a", "t"), ("s", "b"),
                                   ("b", "t"), ("s", "t")], s="s", t="t")
NUMBERED = build_graph([2.5], [30], [(0, 2.5), (2.5, 99), (0, 30),
                                     (30, 99), (0, 99)], s=0, t=99)
# a few coordinates come up often, so that values repeat across drawings
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1 / 3, float("nan"),
                                    float("inf"), -float("inf")]),
                   st.floats(), st.integers(-3, 9))
SEGMENTS = st.builds(Segment, st.sampled_from(["L", "R", "page\n2", "\u00e9"]),
                     COORDS, COORDS)
DRAWINGS = st.builds(EdgeDrawing,
                     st.tuples(st.integers(0, 3), st.integers(0, 3)),
                     st.lists(SEGMENTS, max_size=3).map(tuple),
                     st.lists(st.integers(-1, 9), max_size=3).map(tuple))


BOOKS = st.builds(BookEmbedding,
                  st.lists(st.integers(0, 3), max_size=5).map(tuple),
                  st.lists(DRAWINGS, max_size=8).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([NAMED, NUMBERED]), BOOKS)
def test_json_of_hand_made_embeddings(g, be):
    assert book_to_json(g, be) == indented(book_payload(g, be))


def unsigned_zeros(be):
    """``be`` redrawn with each -0.0 coordinate as 0.0."""
    return BookEmbedding(be.spine, tuple(dataclasses.replace(d, segments=tuple(
        Segment(s.page, s.start + 0.0, s.end + 0.0) for s in d.segments))
        for d in be.drawings))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([NAMED, NUMBERED]), BOOKS, BOOKS)
def test_hand_made_embeddings_match_the_reference(g, be, other):
    # nan, infinite and signed-zero coordinates, odd pages, empty drawings
    assert render_svg(g, be) == reference_svg(g, be)
    js = book_to_json(g, be)
    again = book_from_json(g, js)
    assert book_to_json(g, again) == js
    for b in (be, other, again, unsigned_zeros(be),
              BookEmbedding(other.spine, be.drawings)):
        assert (be == b) == ((be.spine, be.drawings) == (b.spine, b.drawings))


@pytest.mark.parametrize("count", [_CHUNK_ROWS - 1, _CHUNK_ROWS,
                                   _CHUNK_ROWS + 1])
def test_json_across_a_chunk_boundary(count):
    # drawing i has i % 4 segments and i // 4 % 4 dives; neighbouring
    # drawings share coordinates
    be = BookEmbedding((0, 1, 3, 2), tuple(
        EdgeDrawing((i % 4, (i + 1) % 4),
                    tuple(Segment("LR"[j % 2], i + j / 4, i + (j + 1) / 4)
                          for j in range(i % 4)),
                    tuple(range(i // 4 % 4)))
        for i in range(count)))
    assert book_to_json(NAMED, be) == indented(book_payload(NAMED, be))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_the_reference(request, name):
    g = request.getfixturevalue(name)
    sol = solve(g)
    be = to_book_embedding(g, sol)
    assert be == reference_book_embedding(g, sol)
    assert (be.spine, be.drawings) == reference_drawings(g, sol)
    assert render_svg(g, be) == reference_svg(g, be)
    assert problems(be, g) == []


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 99), st.integers(0, 9),
       st.sampled_from([("end", 0.5), ("end", -1.0), ("start", 0.5),
                        ("start", -1.0), ("page", None)]))
def test_faulty_embeddings_match_the_reference(g, i, j, change):
    # one segment moved or flipped, then the drawings reordered with one
    # drawn twice; geometry alone and against the graph
    be = to_book_embedding(g, solve(g))
    d = be.drawings[i % len(be.drawings)]
    segs = list(d.segments)
    j %= len(segs)
    field, step = change
    segs[j] = dataclasses.replace(segs[j], **{field: (
        ("R" if segs[j].page == "L" else "L") if step is None
        else getattr(segs[j], field) + step)})
    drawings = tuple(dataclasses.replace(d, segments=tuple(segs))
                     if x is d else x for x in be.drawings)
    for bad in (drawings, drawings[::-1] + drawings[:1]):
        problems(BookEmbedding(be.spine, bad))
        problems(BookEmbedding(be.spine, bad), g)
