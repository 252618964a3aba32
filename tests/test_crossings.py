"""Crossing counts for completion edges against the embedded instance."""

import dataclasses
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcc import crossings
from hpcc.crossings import (
    CompletionSolution,
    NotLinearExtension,
    SameSideCompletionEdge,
    build_hp_extended,
    crossings_along_edges,
    scan_order,
    solution_crossings,
)
from hpcc import (GeneratorParams, build_graph, generate, graph_from_json,
                  graph_to_json, solve)
from hpcc.book import (BookEmbedding, book_to_json, to_book_embedding,
                       validate_book_embedding)
from hpcc.graph import (_LEFT, _RIGHT, int_array, is_linear_extension,
                        order_positions)
from hpcc.oracle import _NaiveScorer, enumerate_hamiltonian_orders
from hpcc.solver import solution_problems
from conftest import nested_fan_graph
from reference import (edge_crossings, hp_lists, random_linear_extension,
                       reference_hp_extended, topological_order)
from strategies import instances, three_kind_ladders


def hp_extended_lists(g, order):
    """build_hp_extended's result in reference_hp_extended's list fields."""
    return hp_lists(g, build_hp_extended(g, order))


class TestEdgeCrossings:
    def test_ordered_from_tail(self, chorded_polygon):
        # (l2, r1) first cuts the covering chord (l1, t), then (s, t)
        assert edge_crossings(chorded_polygon, (2, 4)) == [(1, 3), (0, 3)]

    def test_shared_endpoint_never_crosses(self, chorded_polygon):
        assert edge_crossings(chorded_polygon, (4, 1)) == [(0, 3)]

    def test_rejects_chain_to_itself(self, chorded_polygon):
        with pytest.raises(SameSideCompletionEdge) as exc:
            edge_crossings(chorded_polygon, (1, 2))
        assert str(exc.value) == "(l1, l2) does not join the two chains"

    @pytest.mark.parametrize("ce, names", [((0, 4), "s, r1"),
                                           ((2, 3), "l2, t")])
    def test_rejects_a_pair_at_s_or_t(self, chorded_polygon, ce, names):
        with pytest.raises(SameSideCompletionEdge) as exc:
            edge_crossings(chorded_polygon, ce)
        assert str(exc.value) == f"({names}) does not join the two chains"


class TestSolutionCrossings:
    @pytest.mark.parametrize(
        "order, ces, total",
        [
            ((0, 1, 2, 4, 3), [(2, 4)], 2),
            ((0, 4, 1, 2, 3), [(4, 1)], 1),
            ((0, 1, 4, 2, 3), [(1, 4), (4, 2)], 3),
        ],
    )
    def test_all_extensions_of_chorded_polygon(self, chorded_polygon, order, ces, total):
        got_ces, records, got_total = solution_crossings(chorded_polygon, order)
        assert got_ces == ces
        assert got_total == total
        assert len(records) == total

    def test_ordinals_restart_per_edge(self, chorded_polygon):
        _, records, _ = solution_crossings(chorded_polygon, (0, 1, 4, 2, 3))
        assert [(r.completion_edge, r.crossed_edge, r.ordinal) for r in records] == [
            ((1, 4), (0, 3), 0),
            ((4, 2), (0, 3), 0),
            ((4, 2), (1, 3), 1),
        ]

    def test_rejects_direction_violation(self, chorded_polygon):
        with pytest.raises(NotLinearExtension):
            scan_order(chorded_polygon, (0, 2, 1, 4, 3))

    def test_rejects_repeated_vertex(self, chorded_polygon):
        with pytest.raises(NotLinearExtension):
            scan_order(chorded_polygon, (0, 1, 1, 4, 3))


def test_grouping_by_crossed_edge(chorded_polygon):
    g = chorded_polygon
    scan = scan_order(g, (0, 1, 2, 4, 3))
    rows = crossings_along_edges(g, scan)
    assert rows.tolist() == [1, 0]
    pairs = [(g.name(g.tail[e]), g.name(g.head[e]))
             for e in scan.pair_eid[rows]]
    assert pairs == [("s", "t"), ("l1", "t")]


def test_hp_extension_subdivides_each_crossing(chorded_polygon):
    hp = hp_extended_lists(chorded_polygon, (0, 1, 2, 4, 3))
    assert hp.n_original == 5
    assert hp.names == ["s", "l1", "l2", "t", "r1", "x0", "x1"]
    assert hp.hamiltonian_order == [0, 1, 2, 5, 6, 4, 3]
    assert sorted(hp.crossing_of) == [5, 6]
    # 7 originals - 2 crossed + 2*2 halves + 3 arcs of the completion edge
    assert len(hp.edges) == 12


@settings(max_examples=150, deadline=None)
@given(instances())
def test_scan_of_topological_order(g):
    order = topological_order(g)
    scan = scan_order(g, order)
    edge = g.has_edges(order[:-1], order[1:])
    assert scan.ce_spine.tolist() == np.flatnonzero(~edge).tolist()
    assert scan.total == len(scan.pair_eid)
    # ordinals count 0..k-1 within each completion edge, in ce order
    counts = np.bincount(scan.pair_ce, minlength=len(scan.ce_tail))
    expect = np.concatenate([np.arange(c) for c in counts]) \
        if scan.total else np.empty(0, dtype=np.int64)
    assert scan.pair_ordinal.tolist() == expect.tolist()
    ces = list(zip(scan.ce_tail.tolist(), scan.ce_head.tolist()))
    assert scan.total == sum(len(edge_crossings(g, ce)) for ce in ces)
    hp = hp_extended_lists(g, order)
    assert len(hp.names) == g.n + scan.total
    arcs = set(hp.edges)
    walk = hp.hamiltonian_order
    assert all((u, v) in arcs for u, v in zip(walk, walk[1:]))


def head_first(real):
    """crossings_along_edges with each edge's crossings listed head first."""
    def listed(g, scan):
        rows = real(g, scan)
        return rows[np.lexsort((-np.arange(len(rows)),
                                scan.pair_eid[rows]))]
    return listed


@settings(max_examples=150, deadline=None)
@given(instances())
def test_hp_extension_matches_the_reference(g):
    orders = [solve(g).order, *islice(enumerate_hamiltonian_orders(g), 12)]
    for order in orders:
        assert hp_extended_lists(g, order) == reference_hp_extended(g, order)
    # listing crossings head first makes any twice-crossed edge run back
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossings, "crossings_along_edges",
                   head_first(crossings.crossings_along_edges))
        for order in orders:
            raised = []
            for build in (hp_extended_lists, reference_hp_extended):
                try:
                    build(g, order)
                    raised.append(None)
                except NotLinearExtension as exc:
                    raised.append(str(exc))
            assert raised[0] == raised[1]


def crossed_sets(g, rows, eids):
    """Per row, the set of crossed edges as (tail, head) pairs."""
    out = {}
    for r, e in zip(rows.tolist(), eids.tolist()):
        out.setdefault(r, set()).add((int(g.tail[e]), int(g.head[e])))
    return out


@settings(max_examples=120, deadline=None)
@given(st.one_of(instances(max_n=40), three_kind_ladders(),
                 st.builds(nested_fan_graph, st.integers(1, 30),
                           st.integers(1, 8))),
       st.randoms(use_true_random=False))
def test_each_completion_edge_crosses_exactly_what_interleaves(g, rng):
    # _NaiveScorer tests raw interleaving and shares no code with the scan
    naive = _NaiveScorer(g)
    orders = [solve(g).order] + [random_linear_extension(g, rng)
                                 for _ in range(3)]
    for order in orders:
        scan = scan_order(g, order)
        got = crossed_sets(g, scan.pair_ce, scan.pair_eid)
        for row, ce in enumerate(zip(scan.ce_tail.tolist(),
                                     scan.ce_head.tolist())):
            assert got.get(row, set()) == set(naive.crossings_of(*ce))


def small_instances():
    """Generator instances with n = 2..10 over a grid of shapes and seeds."""
    for n in range(2, 11):
        for left in (0.2, 0.5, 0.8):
            for density in (0.0, 0.3, 0.7, 1.0):
                for seed in range(16):
                    yield generate(GeneratorParams(n, left, density, seed))


def test_every_gap_of_a_linear_extension_joins_the_two_chains():
    # the precondition the crossing engine is written for
    for g in small_instances():
        naive, side = _NaiveScorer(g), g.side.tolist()
        for order in enumerate_hamiltonian_orders(g):
            for u, v in naive.completion_edges(order):
                assert {side[u], side[v]} == {_LEFT, _RIGHT}


def tail_side(n, f, edge):
    """The cycle vertices off ``edge`` on the same side of it as ``f``."""
    a, b = sorted(edge)
    return sum((a < w < b) == (a < f < b) for w in range(n) if w not in edge)


def test_batch_matches_interleaving_on_every_pair_across_the_chains():
    for g in small_instances():
        naive, side = _NaiveScorer(g), g.side.tolist()
        lefts = [v for v in range(g.n) if side[v] == _LEFT]
        rights = [v for v in range(g.n) if side[v] == _RIGHT]
        pairs = [ce for u in lefts for v in rights for ce in ((u, v), (v, u))]
        f, h = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        rows, eids = crossings._batch_crossings(g, f, h)
        counts = crossings.crossing_counts(g, f, h).tolist()
        along = {}
        for r, e in zip(rows.tolist(), eids.tolist()):
            along.setdefault(r, []).append((int(g.tail[e]), int(g.head[e])))
        for row, ce in enumerate(pairs):
            got = along.get(row, [])
            assert set(got) == set(naive.crossings_of(*ce))
            assert counts[row] == len(naive.crossings_of(*ce))
            assert got == edge_crossings(g, ce)
            # the crossed edges cut off ever more of the cycle from the tail
            sizes = [tail_side(g.n, ce[0], e) for e in got]
            assert sizes == sorted(set(sizes))


def fresh(g):
    """A copy of ``g`` built anew, with nothing cached."""
    return graph_from_json(graph_to_json(g))


def scan_columns(scan):
    return [getattr(scan, f.name).tolist() for f in dataclasses.fields(scan)]


class TestScanCache:
    """The scan is kept per graph and order contents, shared read-only."""

    def test_same_order_in_any_form_is_one_scan(self, double_crossing):
        g, order = double_crossing, solve(double_crossing).order
        scan = scan_order(g, list(order))
        assert scan_order(g, tuple(order)) is scan
        assert scan_order(g, np.array(order, dtype=np.int64)) is scan

    def test_another_order_is_scanned_afresh(self, double_crossing):
        g = double_crossing
        first, second = islice(enumerate_hamiltonian_orders(g), 2)
        scan = scan_order(g, first)
        other = scan_order(g, second)
        assert other is not scan
        assert scan_columns(other) == scan_columns(scan_order(fresh(g),
                                                              second))

    def test_a_scan_is_read_only(self, chorded_polygon):
        scan = scan_order(chorded_polygon, (0, 1, 2, 4, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            scan.pair_eid = scan.pair_eid.copy()
        for f in dataclasses.fields(scan):
            with pytest.raises(ValueError, match="read-only"):
                getattr(scan, f.name)[:1] = 0

    def test_faults_raise_every_time_and_are_not_kept(self):
        g = build_graph(["l1"], ["r1", "r2"],
                        [("s", "l1"), ("l1", "t"), ("s", "r1"),
                         ("r1", "r2"), ("r2", "t")], s="s", t="t")
        # no linear extension of a valid graph has a gap joining one chain
        # to itself, so r2 (id 3) is relabelled left to make one
        g.side = g.side.copy()
        g.side[3] = _LEFT
        scan = scan_order(g, (0, 1, 4, 3, 2))
        for order, fault in (((0, 1, 1, 3, 2), NotLinearExtension),
                             ((0, 1, 3, 4, 2), NotLinearExtension),
                             ((0, 4, 3, 1, 2), SameSideCompletionEdge)):
            for _ in range(2):
                with pytest.raises(fault):
                    scan_order(g, order)
            assert scan_order(g, (0, 1, 4, 3, 2)) is scan

    def test_tampered_claims_after_a_clean_check(self, double_crossing):
        g = double_crossing
        sol = solve(g)
        assert solution_problems(g, sol) == []
        order = list(sol.order)
        edge = g.has_edges(order[:-1], order[1:])
        swaps = []
        for i in (int(np.flatnonzero(~edge)[0]), int(np.flatnonzero(edge)[0])):
            swapped = list(order)
            swapped[i:i + 2] = order[i + 1], order[i]
            swaps.append(swapped)
        ces, recs = sol.completion_edges, sol.records
        tampered = [
            CompletionSolution(order, ces, recs, sol.crossings + 1),
            CompletionSolution(order, ces, recs[1:], sol.crossings),
            *(CompletionSolution(o, ces, recs, sol.crossings) for o in swaps),
        ]
        for claim in tampered:
            want = solution_problems(fresh(g), claim)
            assert want
            assert solution_problems(g, claim) == want


class TestStrictIds:
    """Vertex ids have one reader: a float or a string id raises TypeError
    wherever an order or a spine enters, and nothing truncates or parses
    it.  Each bad order would truncate or parse to the optimum (0, 1, 3, 2)
    of the strong rhombus."""

    @pytest.mark.parametrize("bad", [[0.0, 1.9, 3.2, 2.0],
                                     ["0", "1", "3", "2"], [0, 1.7, 3, 2],
                                     np.array([0.0, 1.0, 3.0, 2.0])])
    def test_every_reader_refuses(self, strong_rhombus, bad):
        g = strong_rhombus
        sol = solve(g)
        be = to_book_embedding(g, sol)
        readers = [
            lambda: CompletionSolution(bad, sol.completion_edges,
                                       sol.records, sol.crossings),
            lambda: BookEmbedding(tuple(bad), be.drawings),
            lambda: is_linear_extension(g, bad),
            lambda: order_positions(g, bad),
            lambda: scan_order(g, bad),
            lambda: build_hp_extended(g, bad),
            lambda: g.has_edges(bad[:-1], bad[1:]),
        ]
        for read in readers:
            with pytest.raises(TypeError, match="integer ids expected"):
                read()
        # claims whose order or spine is replaced after construction
        sol.order, be.spine = list(bad), tuple(bad)
        for read in (lambda: solution_problems(g, sol),
                     lambda: to_book_embedding(g, sol),
                     lambda: validate_book_embedding(be, g),
                     lambda: book_to_json(g, be)):
            with pytest.raises(TypeError, match="integer ids expected"):
                read()

    @pytest.mark.parametrize("form", [list, tuple,
                                      lambda o: np.array(o, dtype=np.int64)])
    def test_integer_orders_in_any_form(self, strong_rhombus, form):
        g = strong_rhombus
        sol = solve(g)
        order = form(sol.order)
        assert is_linear_extension(g, order)
        assert scan_order(g, order).total == sol.crossings == 1
        claim = CompletionSolution(order, sol.completion_edges, sol.records,
                                   sol.crossings)
        assert claim == sol and claim.order == [0, 1, 3, 2]
        assert all(type(v) is int for v in claim.order)
        assert solution_problems(g, claim) == []
        be = to_book_embedding(g, sol)
        again = BookEmbedding(order, be.drawings)
        assert again == be and again.spine == (0, 1, 3, 2)
        assert all(type(v) is int for v in again.spine)
        assert validate_book_embedding(again, g) == []
        assert book_to_json(g, again) == book_to_json(g, be)

    def test_an_int64_array_passes_uncopied(self):
        arr = np.array([0, 1, 3, 2], dtype=np.int64)
        assert int_array(arr) is arr
        assert int_array([]).dtype == np.int64
