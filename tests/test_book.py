"""Two-page drawings along a spine, with dives where edges get crossed."""

import dataclasses

import pytest
from hypothesis import given, settings

from hpcc import build_graph, solve
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
from hpcc.graph import ParseError
from hpcc.solver import CompletionSolution
from reference import book_payload, indented
from strategies import instances


def drawing_of(be, edge):
    return next(d for d in be.drawings if d.edge == edge)


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
    flipped = dataclasses.replace(be, spine=(0, 2, 1, 3))
    with pytest.raises(SpineNotLinearExtension):
        from_book_embedding(strong_rhombus, flipped)


def test_json_rejects_garbage(strong_rhombus):
    with pytest.raises(ParseError):
        book_from_json(strong_rhombus, "{")
    with pytest.raises(ParseError):
        book_from_json(strong_rhombus, "[]")
    with pytest.raises(ParseError):
        book_from_json(strong_rhombus, '{"spine": ["s"]}')


class TestValidatorFaults:
    def embed(self, g):
        return to_book_embedding(g, solve(g))

    def test_empty_spine(self, weak_rhombus):
        be = BookEmbedding((), ())
        assert validate_book_embedding(be) == ["empty spine"]

    def test_repeated_vertex(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        bad = dataclasses.replace(be, spine=(0, 1, 1, 2))
        assert validate_book_embedding(bad) == ["spine repeats a vertex"]

    def test_detached_endpoint(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        stub = EdgeDrawing((0, 1), (Segment("L", 0.0, 2.0),), ())
        bad = dataclasses.replace(
            be, drawings=(stub,) + be.drawings[1:])
        assert any("endpoint to endpoint" in p
                   for p in validate_book_embedding(bad))

    def test_dive_on_one_page(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        flat = dataclasses.replace(
            d, segments=(Segment("R", 0.0, 1.5), Segment("R", 1.5, 3.0)))
        bad = dataclasses.replace(
            be, drawings=tuple(flat if x.edge == (0, 2) else x
                               for x in be.drawings))
        assert any("stays on one page" in p
                   for p in validate_book_embedding(bad))

    def test_integer_dive(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        moved = dataclasses.replace(
            d, segments=(Segment("R", 0.0, 2.0), Segment("L", 2.0, 3.0)),
            spine_crossings=(2,))
        bad = dataclasses.replace(
            be, drawings=tuple(moved if x.edge == (0, 2) else x
                               for x in be.drawings))
        assert any("integer coordinate" in p
                   for p in validate_book_embedding(bad))

    def test_dive_outside_slot(self, strong_rhombus):
        be = self.embed(strong_rhombus)
        d = drawing_of(be, (0, 2))
        moved = dataclasses.replace(d, spine_crossings=(2,))
        bad = dataclasses.replace(
            be, drawings=tuple(moved if x.edge == (0, 2) else x
                               for x in be.drawings))
        assert any("outside slot" in p for p in validate_book_embedding(bad))

    def test_interleaving_arcs(self):
        be = BookEmbedding(
            (0, 1, 2, 3),
            (EdgeDrawing((0, 2), (Segment("L", 0.0, 2.0),), ()),
             EdgeDrawing((1, 3), (Segment("L", 1.0, 3.0),), ())))
        assert any("interleave" in p for p in validate_book_embedding(be))

    def test_missing_edge_against_graph(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        bad = dataclasses.replace(be, drawings=be.drawings[1:])
        assert any("do not match the graph" in p
                   for p in validate_book_embedding(bad, weak_rhombus))

    def test_phantom_dive_against_graph(self, weak_rhombus):
        be = self.embed(weak_rhombus)
        d = drawing_of(be, (3, 2))
        split = dataclasses.replace(
            d, segments=(Segment("R", 2.0, 2.5), Segment("L", 2.5, 3.0)),
            spine_crossings=(2,))
        bad = dataclasses.replace(
            be, drawings=tuple(split if x.edge == (3, 2) else x
                               for x in be.drawings))
        assert validate_book_embedding(bad) == []
        assert any("dives do not match" in p
                   for p in validate_book_embedding(bad, weak_rhombus))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_embedding_matches_solution(g):
    sol = solve(g)
    be = to_book_embedding(g, sol)
    assert be.spine_crossing_count == sol.crossings
    assert validate_book_embedding(be, g) == []
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
