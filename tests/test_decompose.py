"""Splitting an instance into st-polygons and free vertices."""

import importlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcc import GeneratorParams, build_graph, generate, solve
from hpcc.decompose import FreeVertex, StPolygon, decompose
from hpcc.solver import _owners
from reference import (element_owners, has_edge, median_candidates,
                       weak_polygon_seeds)
from strategies import instances, three_kind_ladders


def test_single_weak_polygon(weak_rhombus):
    assert list(decompose(weak_rhombus)) == [
        StPolygon(source=0, sink=2, left_lo=1, left_hi=1,
                  right_lo=1, right_hi=1, n=4, median=None,
                  lower_limit=None, upper_limit=None)]
    assert median_candidates(weak_rhombus) == []
    assert weak_polygon_seeds(weak_rhombus) == [((0, 1, 3, 2), (None, None))]


def test_one_shared_view_per_graph(stacked_rhombi, monkeypatch):
    def refuse(table):
        raise AssertionError("the elements were built")

    with monkeypatch.context() as mp:
        mp.setattr(importlib.import_module("hpcc.decompose"), "_elements",
                   refuse)
        d = decompose(stacked_rhombi)
        assert d is decompose(stacked_rhombi)
        assert len(d) == 2
    assert [type(el) for el in d] == [StPolygon, StPolygon]
    assert d[-1] is d[1] is decompose(stacked_rhombi)[1]


def test_single_strong_polygon(strong_rhombus):
    (p,) = decompose(strong_rhombus)
    assert p.median == (0, 2)
    assert median_candidates(strong_rhombus) == [((0, 2), (1, 3))]
    assert weak_polygon_seeds(strong_rhombus) == []


def test_chord_stays_inside_one_polygon(chorded_polygon):
    (p,) = decompose(chorded_polygon)
    assert p == StPolygon(source=0, sink=3, left_lo=1, left_hi=2,
                          right_lo=1, right_hi=1, n=5, median=(0, 3),
                          lower_limit=None, upper_limit=None)
    assert p.left_vertices == [1, 2]
    assert p.right_vertices == [4]


def test_stacked_polygons_share_the_junction(stacked_rhombi):
    lower, upper = decompose(stacked_rhombi)
    assert lower.sink == upper.source == 2
    assert lower.upper_limit == (6, 2)
    assert upper.lower_limit == (2, 5)
    assert lower.median == (0, 2) and upper.median == (2, 4)
    assert median_candidates(stacked_rhombi) == [((0, 2), (1, 6)),
                                                 ((2, 4), (3, 5))]


def test_vertex_may_sit_in_three_polygons():
    # r4 is the sink of the first polygon, a chain vertex of the weak middle
    # one, and the source of the last; the junction limits must chain up.
    g = generate(GeneratorParams(n=11, chord_density=0.3, seed=30))
    assert g.names == ["s", "l1", "l2", "l3", "l4", "t",
                       "r5", "r4", "r3", "r2", "r1"]
    p1, p2, p3 = decompose(g)
    assert (p1.sink, p2.source) == (7, 1)
    assert 7 in p2.right_vertices
    assert p3.source == 7
    assert p1.upper_limit == p2.lower_limit == (1, 7)
    assert p2.upper_limit == p3.lower_limit == (7, 3)
    assert p2.median is None
    assert weak_polygon_seeds(g) == [((1, 2, 7, 3), ((1, 7), (7, 3)))]
    assert solve(g).crossings == 2


def test_plain_chain_leaves_free_vertices():
    g = build_graph(["a", "b"], [],
                    [("s", "a"), ("a", "b"), ("b", "t"), ("s", "t")],
                    s="s", t="t")
    assert list(decompose(g)) == [FreeVertex(1), FreeVertex(2)]


def _covered(g, elements):
    cov = np.zeros(g.n, dtype=int)
    for el in elements:
        if isinstance(el, FreeVertex):
            cov[el.vertex] += 1
        else:
            for v in el.left_vertices + el.right_vertices:
                cov[v] += 1
    return cov


@settings(max_examples=150, deadline=None)
@given(instances())
def test_partition_and_ordering(g):
    els = decompose(g)
    ti = g.topo_pos
    reps = [ti[el.source if isinstance(el, StPolygon) else el.vertex]
            for el in els]
    assert reps == sorted(reps)
    # chains and free vertices tile the interior; a vertex they skip must be
    # the endpoint of some polygon (junction vertices live only as endpoints)
    cov = _covered(g, els)
    assert cov[0] == 0 and cov[g.k + 1] == 0
    polys = [el for el in els if isinstance(el, StPolygon)]
    endpoints = {p.source for p in polys} | {p.sink for p in polys}
    for v in range(1, g.n):
        if v == g.k + 1:
            continue
        assert cov[v] == 1 or (cov[v] == 0 and v in endpoints)
    for prev, nxt in zip(polys, polys[1:]):
        if prev.sink == nxt.source:
            x = prev.sink
            if prev.upper_limit is not None:
                assert prev.upper_limit[1] == x
                assert has_edge(g, *prev.upper_limit)
            if nxt.lower_limit is not None:
                assert nxt.lower_limit[0] == x
                assert has_edge(g, *nxt.lower_limit)
        elif prev.upper_limit is not None and \
                prev.upper_limit == nxt.lower_limit:
            assert prev.upper_limit == (nxt.source, prev.sink)
            assert has_edge(g, nxt.source, prev.sink)
        else:
            assert ti[prev.sink] <= ti[nxt.source]


@settings(max_examples=100, deadline=None)
@given(st.one_of(instances(max_n=14), three_kind_ladders()))
def test_element_owners_match_a_plain_loop(g):
    assert _owners(g, decompose(g).table).tolist() == element_owners(g)
