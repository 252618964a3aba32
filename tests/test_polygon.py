"""Channel costs for a single st-polygon."""

import math

import pytest
from hypothesis import given, settings

from hpcc.decompose import StPolygon, decompose
from hpcc.oracle import brute_force_optimal
from hpcc.polygon import (
    NotAnStPolygon,
    channel_order,
    polygon_costs,
)
from reference import edge_crossings, local_edges, polygon_subgraph
from strategies import instances


def test_chorded_polygon_costs(chorded_polygon):
    (p,) = decompose(chorded_polygon)
    (pc,) = polygon_costs(chorded_polygon, [p])
    assert (pc.c1L, pc.c1R, pc.c2L, pc.c2R) == (1, 2, 3, math.inf)
    assert pc.q2L == 1 and pc.q2R is None
    assert pc.w1L == ((4, 1),)
    assert pc.w1R == ((2, 4),)
    assert pc.w2L == ((1, 4), (4, 2))
    assert pc.w2R is None
    assert pc.left_best == (1, "1L")
    assert pc.right_best == (2, "1R")


def test_channel_orders(chorded_polygon):
    (p,) = decompose(chorded_polygon)
    assert channel_order(p, "1L") == [0, 4, 1, 2, 3]
    assert channel_order(p, "1R") == [0, 1, 2, 4, 3]
    assert channel_order(p, "2L", 1) == [0, 1, 4, 2, 3]
    with pytest.raises(ValueError):
        channel_order(p, "2L")
    with pytest.raises(ValueError):
        channel_order(p, "2R", 1)
    with pytest.raises(ValueError):
        channel_order(p, "3L")


def test_unavailable_channel_has_no_jumps(stacked_rhombi):
    p1, p2 = decompose(stacked_rhombi)
    c1, c2 = polygon_costs(stacked_rhombi, [p1, p2])
    assert (c1.c1L, c1.c1R) == (1, 1)
    assert c1.c2L == c1.c2R == math.inf
    with pytest.raises(ValueError):
        c1.jumps("2L")
    assert c2.w1L == ((5, 3),) and c2.w1R == ((3, 5),)


def test_subgraph_extraction(stacked_rhombi):
    p1, _ = decompose(stacked_rhombi)
    sub = polygon_subgraph(stacked_rhombi, p1)
    assert sub.names == ["s", "a", "m", "b"]
    assert sub.edge_count == 5
    assert brute_force_optimal(sub)[0] == 1


def test_local_edges_cover_the_polygon(chorded_polygon):
    (p,) = decompose(chorded_polygon)
    assert local_edges(chorded_polygon, p) == [
        (0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (4, 3)]


def test_rejects_foreign_or_degenerate_polygons(chorded_polygon):
    bad_n = StPolygon(source=0, sink=3, left_lo=1, left_hi=2, right_lo=1,
                      right_hi=1, n=99, median=None, lower_limit=None,
                      upper_limit=None)
    with pytest.raises(NotAnStPolygon):
        polygon_costs(chorded_polygon, [bad_n])
    empty = StPolygon(source=0, sink=1, left_lo=1, left_hi=0, right_lo=1,
                      right_hi=0, n=5, median=None, lower_limit=None,
                      upper_limit=None)
    with pytest.raises(NotAnStPolygon):
        polygon_costs(chorded_polygon, [empty])


@settings(max_examples=120, deadline=None)
@given(instances())
def test_witness_jumps_reproduce_each_cost(g):
    polys = [p for p in decompose(g) if isinstance(p, StPolygon)]
    for pc in polygon_costs(g, polys):
        for tag in ("1L", "1R", "2L", "2R"):
            cost = pc.cost(tag)
            if cost == math.inf:
                assert getattr(pc, "w" + tag) is None
                continue
            jumps = pc.jumps(tag)
            assert cost == sum(len(edge_crossings(g, ce)) for ce in jumps)
            # the jumps are exactly the channel order's non-edges
            order = pc.order(tag)
            gaps = [(u, v) for u, v in zip(order, order[1:])
                    if not g.has_edge(u, v)]
            assert list(jumps) == gaps
