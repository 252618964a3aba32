"""Channel costs for a single st-polygon."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcc import graph_from_json
from hpcc.decompose import StPolygon, decompose
from hpcc.oracle import GeneratorParams, brute_force_optimal, generate
from hpcc.polygon import CHANNELS, NotAnStPolygon, polygon_costs
from reference import (channel_gaps, channel_order, edge_crossings,
                       ladder_module, local_edges, polygon_subgraph,
                       polygon_table, reference_polygon_costs,
                       run_joining_edge)
from strategies import instances, three_kind_ladders

L1, R1, L2, R2 = range(4)     # cost columns, in CHANNELS order


def test_chorded_polygon_costs(chorded_polygon):
    g = chorded_polygon
    (p,) = elements = decompose(g)
    cost, split = polygon_costs(g, elements.table)
    assert tuple(cost[0]) == (1, 2, 3, math.inf)
    assert split[0, L2] == 1 and split[0, R2] == 0
    assert channel_gaps(g, p, "1L") == [(4, 1)]
    assert channel_gaps(g, p, "1R") == [(2, 4)]
    assert channel_gaps(g, p, "2L", split[0, L2]) == [(1, 4), (4, 2)]
    with pytest.raises(ValueError):
        channel_gaps(g, p, "2R", split[0, R2])
    # the best left channel is 1L at 1, the best right one 1R at 2
    assert cost[0, L1] == 1 < cost[0, L2]
    assert cost[0, R1] == 2 < cost[0, R2]


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
    g = stacked_rhombi
    p1, p2 = elements = decompose(g)
    cost, split = polygon_costs(g, elements.table)
    assert (cost[0, L1], cost[0, R1]) == (1, 1)
    assert cost[0, L2] == cost[0, R2] == math.inf
    with pytest.raises(ValueError):
        channel_gaps(g, p1, "2L", split[0, L2])
    assert channel_gaps(g, p2, "1L") == [(5, 3)]
    assert channel_gaps(g, p2, "1R") == [(3, 5)]


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


BAD_ROWS = [
    dict(n=99),
    dict(left_lo=[1], left_hi=[0]),
    dict(right_lo=[2], right_hi=[1]),
    dict(median=[False]),
    # no edge joins these ends, so the median flag agrees with the graph
    dict(median=[False], source=[-1]),
    dict(median=[False], source=[10]),
    dict(median=[False], sink=[99]),
    dict(median=[False], sink=[-9]),
    dict(median=[False], source=[2], sink=[1]),    # source above sink
]


def test_rejects_foreign_or_degenerate_polygons():
    g = generate(GeneratorParams(n=8, chord_density=0.7, seed=3))
    t = decompose(g).table
    assert len(t) == 1 and t.median[0]
    polygon_costs(g, t)
    for bad in BAD_ROWS:
        bad = {k: v if k == "n" else np.array(v) for k, v in bad.items()}
        with pytest.raises(NotAnStPolygon):
            polygon_costs(g, dataclasses.replace(t, **bad))


def test_rejects_an_edge_across_the_runs():
    # one row from s to t over both whole chains holds every chord
    g = generate(GeneratorParams(n=8, chord_density=0.7, seed=20))
    whole = StPolygon(g.s, g.t, 1, g.k, 1, g.m, g.n, None, None, None)
    with pytest.raises(NotAnStPolygon, match="^edge l1->r1 joins the two "
                       "chain runs inside one polygon$"):
        polygon_costs(g, polygon_table(whole))


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances(min_n=2, max_n=30),
                 three_kind_ladders(max_rhombi=20)), st.data())
def test_run_joining_check_matches_a_plain_loop(g, data):
    # each decompose run widened at random, so that runs may overlap
    t = decompose(g).table

    def widen(lo, hi, top):
        return (np.array([data.draw(st.integers(1, x)) for x in lo.tolist()],
                         dtype=np.int64),
                np.array([data.draw(st.integers(x, top)) for x in hi.tolist()],
                         dtype=np.int64))
    (llo, lhi), (rlo, rhi) = (widen(t.left_lo, t.left_hi, g.k),
                              widen(t.right_lo, t.right_hi, g.m))
    wide = dataclasses.replace(t, left_lo=llo, left_hi=lhi, right_lo=rlo,
                               right_hi=rhi)
    e = run_joining_edge(g, wide)
    if e is None:
        polygon_costs(g, wide)
        return
    with pytest.raises(NotAnStPolygon) as exc:
        polygon_costs(g, wide)
    u, v = g.name(g.tail[e]), g.name(g.head[e])
    assert str(exc.value) == (f"edge {u}->{v} joins the two chain runs "
                              f"inside one polygon")


def small_graphs():
    """Generator instances n = 2..14 and ladders of all three junction
    kinds."""
    for n in range(2, 15):
        for left in (0.2, 0.5, 0.8):
            for density in (0.0, 0.3, 0.7, 1.0):
                for seed in range(3):
                    yield generate(GeneratorParams(n, left, density, seed))
    for rhombi in range(8, 21):
        for seed in range(3):
            lad = ladder_module().ladder(rhombi, seed)
            assert all(lad.junctions.values())
            yield graph_from_json(json.dumps(lad.doc))


def test_costs_match_plain_loops_over_every_split():
    for g in small_graphs():
        cost, split = polygon_costs(g, decompose(g).table)
        want_cost, want_split = reference_polygon_costs(g)
        assert cost.tolist() == want_cost.tolist()
        assert split.tolist() == want_split.tolist()


@settings(max_examples=120, deadline=None)
@given(instances())
def test_witness_jumps_reproduce_each_cost(g):
    elements = decompose(g)
    polys = [p for p in elements if isinstance(p, StPolygon)]
    cost, split = polygon_costs(g, elements.table)
    for i, p in enumerate(polys):
        for c, tag in enumerate(CHANNELS):
            if cost[i, c] == math.inf:
                assert split[i, c] == 0
                with pytest.raises(ValueError):
                    channel_order(p, tag, split[i, c])
                continue
            # the jumps are exactly the channel order's non-edges
            jumps = channel_gaps(g, p, tag, split[i, c] or None)
            assert len(jumps) == int(tag[0])
            assert cost[i, c] == sum(len(edge_crossings(g, ce))
                                     for ce in jumps)
