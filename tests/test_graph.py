"""Construction, validation, and serialization of embedded instances."""

import gc
import json
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpcc import (
    CycleDetected,
    DuplicateEdge,
    EmbeddingNotPlane,
    GeneratorParams,
    MultipleSinks,
    MultipleSources,
    NotAPermutation,
    ParseError,
    SideNotAPath,
    UnknownVertex,
    build_graph,
    generate,
    graph_from_json,
    graph_to_json,
    is_linear_extension,
)
from hpcc.graph import (_LEFT, _RIGHT, _SNK, _SRC, _edge_class_codes,
                        _toposort, load_json, nesting, order_positions)
from conftest import nested_fan_graph
from reference import (cycle_crossings, edge_classes, graph_payload, has_edge,
                       indented, reference_tables, reference_toposort,
                       topological_order)
from strategies import instances

# class codes of g.classes
ONE_SIDED_LEFT, ONE_SIDED_RIGHT, TWO_SIDED = 0, 1, 2
PATH_EDGES = [("s", "a"), ("a", "b"), ("b", "t"), ("s", "r1"), ("r1", "t")]
# plane, one source and one sink, but r2 -> a -> r1 -> r2 is a cycle
TWO_SIDED_CYCLE = (["a"], ["r1", "r2"],
                   [("s", "a"), ("a", "t"), ("s", "r1"), ("r1", "r2"),
                    ("r2", "t"), ("r2", "a"), ("a", "r1")])


def test_vertex_ids_are_cycle_positions():
    g = build_graph(["a", "b"], ["r1", "r2"],
                    [("s", "a"), ("a", "b"), ("b", "t"),
                     ("s", "r1"), ("r1", "r2"), ("r2", "t")], s="s", t="t")
    assert [g.vid(nm) for nm in ("s", "a", "b", "t", "r2", "r1")] == [0, 1, 2, 3, 4, 5]
    assert g.name(0) == "s" and g.name(3) == "t"
    assert g.n == 6 and g.k == 2 and g.m == 2
    assert g.edge_count == 6
    a, r2 = g.vid("a"), g.vid("r2")
    assert g.side[a] == _LEFT and g.lcoord[a] == 1
    assert g.side[r2] == _RIGHT and g.rcoord[r2] == 2


def test_minimal_two_vertex_instance():
    g = build_graph([], [], [("s", "t")], s="s", t="t")
    assert g.n == 2
    assert has_edge(g, 0, 1)
    assert topological_order(g) == (0, 1)


@pytest.mark.parametrize("exc, left, right, edges", [
    (SideNotAPath, ["a", "a"], ["r1"], PATH_EDGES),
    (UnknownVertex, ["a", "b"], ["r1"], PATH_EDGES + [("a", "zz")]),
    (CycleDetected, ["a", "b"], ["r1"], PATH_EDGES + [("b", "a")]),
    (CycleDetected, ["a", "b"], ["r1"], PATH_EDGES + [("a", "a")]),
    (CycleDetected, ["a", "b"], ["r1"], PATH_EDGES + [("a", "s")]),
    (DuplicateEdge, ["a", "b"], ["r1"], PATH_EDGES + [("s", "a")]),
    (MultipleSources, ["a", "b"], ["r1"],
     [("a", "b"), ("b", "t"), ("s", "r1"), ("r1", "t")]),
    (MultipleSinks, ["a", "b"], ["r1"],
     [("s", "a"), ("a", "b"), ("s", "r1"), ("r1", "t")]),
    (SideNotAPath, ["a", "b"], ["r1"],
     [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "r1"), ("r1", "t")]),
    (ParseError, ["a", "b"], ["r1"], PATH_EDGES + [("a",)]),
    (SideNotAPath, ["a", "b"], ["a"], PATH_EDGES),
    (SideNotAPath, [1, 1], ["r1"], PATH_EDGES),
    (TypeError, [["a"], "b"], ["r1"], PATH_EDGES),
    (CycleDetected, *TWO_SIDED_CYCLE),
    (SideNotAPath, ["a", "s"], ["r1"], PATH_EDGES),
    (CycleDetected, ["a", "b"], ["r1"], PATH_EDGES + [("t", "a")]),
    (CycleDetected, ["a"], ["r1", "r2"],
     [("s", "a"), ("a", "t"), ("s", "r1"), ("r1", "r2"), ("r2", "t"),
      ("r2", "r1")]),
])
def test_rejects_malformed_input(exc, left, right, edges):
    with pytest.raises(exc):
        build_graph(left, right, edges, s="s", t="t")


def test_unknown_names_and_bad_orders_are_named():
    g = build_graph(["a", "b"], ["r1"], PATH_EDGES, s="s", t="t")
    with pytest.raises(UnknownVertex, match="zz"):
        g.vid("zz")
    with pytest.raises(NotAPermutation, match="length 4, expected 5"):
        order_positions(g, [0, 1, 2, 3])
    with pytest.raises(NotAPermutation, match="out of range"):
        order_positions(g, [0, 1, 2, 3, 5])
    with pytest.raises(NotAPermutation, match="out of range"):
        order_positions(g, [-1, 1, 2, 3, 4])


@st.composite
def hi_in_tables(draw):
    """(k, m, hi_in): each chain vertex's highest two-sided in-neighbour as
    a rank on the other chain, or -1; s and t have none."""
    k = draw(st.integers(0, 8))
    m = draw(st.integers(0, 8))
    left = draw(st.lists(st.integers(-1, m), min_size=k, max_size=k))
    right = draw(st.lists(st.integers(-1, k), min_size=m, max_size=m))
    return k, m, np.array([-1, *left, -1, *right], dtype=np.int64)


@settings(max_examples=600, deadline=None)
@given(hi_in_tables())
@example((1, 2, np.array([-1, 2, -1, -1, 1])))     # TWO_SIDED_CYCLE's table
@example((2, 2, np.array([-1, -1, 1, -1, 2, -1])))   # gated both ways, acyclic
def test_toposort_matches_the_merge_loop(table):
    k, m, hi_in = table
    want = reference_toposort(k, m, hi_in)
    if want is None:
        with pytest.raises(CycleDetected):
            _toposort(k, m, hi_in)
    else:
        assert _toposort(k, m, hi_in).tolist() == want


def _doc(left, right, edges):
    return json.dumps({"left": left, "right": right, "s": "s", "t": "t",
                       "edges": edges})


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text, exc", [
    (_doc(["a", "b"], ["r1"], PATH_EDGES), None),
    ("not json", ParseError),
    (_doc(["a", "a"], ["r1"], PATH_EDGES), SideNotAPath),
    (_doc(*TWO_SIDED_CYCLE), CycleDetected),
], ids=["ok", "bad-json", "side-not-a-path", "cycle"])
def test_reading_restores_the_collector_state(enabled, text, exc):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if exc is None:
            graph_from_json(text)
        else:
            with pytest.raises(exc):
                graph_from_json(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("outer", [False, True], ids=["top", "nested"])
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ['{"a": [1]}', "not json", "[1]"],
                         ids=["ok", "bad-json", "not-an-object"])
def test_parse_pauses_and_restores_the_collector(monkeypatch, enabled, outer,
                                                 text):
    # the parse runs paused; a caller's own pause (as graph_from_json's)
    # outlives it, and every exit gives back the caller's state
    seen = []
    real = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda t: seen.append(gc.isenabled()) or real(t))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outer:
            gc.disable()
        if text.startswith("{"):
            assert load_json(text) == {"a": [1]}
        else:
            with pytest.raises(ParseError):
                load_json(text)
        assert gc.isenabled() is (enabled and not outer)
        assert seen == [False]
    finally:
        (gc.enable if was else gc.disable)()


def test_s_and_t_must_be_distinct():
    with pytest.raises(ParseError):
        build_graph(["a", "b"], ["r1"], PATH_EDGES, s="s", t="s")
    with pytest.raises(ParseError):
        build_graph(["a", "b"], ["r1"], PATH_EDGES, s="s", t=None)
    with pytest.raises(ParseError):
        build_graph(["a", "b"], ["r1"], PATH_EDGES, s=None, t="t")
    with pytest.raises(ParseError):
        build_graph(["a", "b"], ["r1"], PATH_EDGES)


def test_integer_vertex_names():
    g = build_graph([10, 20], [30],
                    [(0, 10), (10, 20), (20, 99), (0, 30), (30, 99)], s=0, t=99)
    assert g.n == 5 and g.name(g.s) == 0 and g.name(g.t) == 99


@pytest.mark.parametrize("extra", [
    # interleaving two-sided chords
    [("l2", "r1"), ("l1", "r2")],
    # interleaving chords on one side
    [("s", "l2"), ("l1", "t")],
])
def test_rejects_non_plane_chords(extra):
    edges = [("s", "l1"), ("l1", "l2"), ("l2", "t"),
             ("s", "r1"), ("r1", "r2"), ("r2", "t")]
    with pytest.raises(EmbeddingNotPlane):
        build_graph(["l1", "l2"], ["r1", "r2"], edges + extra, s="s", t="t")


SQUARE = [("s", "l1"), ("l1", "l2"), ("l2", "t"), ("s", "r1"),
          ("r1", "r2"), ("r2", "t")]
CHORDS = [("s", "l2"), ("r1", "t")]


@pytest.mark.parametrize("extra, message", [
    pytest.param(CHORDS + [("l1", "t")], "(s, l2) and (l1, t)", id="left"),
    pytest.param(CHORDS + [("s", "r2")], "(s, r2) and (r1, t)", id="right"),
    pytest.param([("l2", "r1"), ("l1", "r2")], "(l1, r2) and (l2, r1)",
                 id="two-sided"),
    pytest.param([("l1", "t"), ("r2", "l2")], "(l1, t) and (r2, l2)",
                 id="covering"),
])
def test_interleaving_one_sided_chords_are_named_by_side(extra, message):
    # the message names the first cycle interval in (low end, -high end)
    # order that ends past its parent interval, after that parent, which it
    # crosses; one pass checks every family, one-sided and two-sided
    with pytest.raises(EmbeddingNotPlane,
                       match=rf"^edges {re.escape(message)} cross$"):
        build_graph(["l1", "l2"], ["r1", "r2"], SQUARE + extra, s="s", t="t")


def test_plane_verdict_matches_the_pairwise_reference():
    # extra edges up the topological order leave every other check passing
    seen = Counter()
    for seed in range(1500):
        rng = random.Random(seed)
        g = generate(GeneratorParams(
            n=rng.randint(4, 14), left_fraction=rng.choice((0, 0.5, 1)),
            chord_density=rng.choice((0.0, 0.3, 0.7, 1.0)), seed=seed))
        order = sorted(range(g.n), key=g.topo_pos.__getitem__)
        edges = list(zip(g.names_of(g.tail), g.names_of(g.head)))
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(g.n), 2))
            if (edge := (g.names[order[i]], g.names[order[j]])) not in edges:
                edges.append(edge)
        args = (g.names_of(g.left_seq), g.names_of(g.right_seq), edges)
        crossing = cycle_crossings(*args, g.names[g.s], g.names[g.t])
        seen[bool(crossing)] += 1
        if not crossing:
            build_graph(*args, s=g.names[g.s], t=g.names[g.t])
            continue
        with pytest.raises(EmbeddingNotPlane) as exc:
            build_graph(*args, s=g.names[g.s], t=g.names[g.t])
        named = re.fullmatch(r"edges \((\w+), (\w+)\) and "
                             r"\((\w+), (\w+)\) cross", str(exc.value))
        assert named, str(exc.value)
        a, b, c, d = named.groups()
        assert frozenset(((a, b), (c, d))) in crossing
    assert min(seen.values()) > 500, seen


def test_rejects_one_sided_chord_covering_two_sided_endpoint():
    with pytest.raises(EmbeddingNotPlane):
        build_graph(["l1", "l2"], ["r1"],
                    [("s", "l1"), ("l1", "l2"), ("l2", "t"),
                     ("s", "r1"), ("r1", "t"), ("r1", "l2"), ("l1", "t")],
                    s="s", t="t")


def edge_class(g, u, v):
    """The class code g.classes stores for the edge (u, v)."""
    assert has_edge(g, u, v)
    return int(g.classes[g.edge_ids(u, v)])


def test_edge_classes(strong_rhombus, stacked_rhombi):
    g = strong_rhombus
    assert edge_class(g, g.s, g.t) == ONE_SIDED_LEFT
    assert edge_class(g, 0, 1) == ONE_SIDED_LEFT
    assert edge_class(g, 0, 3) == ONE_SIDED_RIGHT
    h = stacked_rhombi
    assert edge_class(h, h.vid("b"), h.vid("m")) == TWO_SIDED


def test_edge_class_codes_on_every_side_pair():
    # an end at s or t takes the other end's side, and (s, t) is left
    side = np.array([_SRC, _LEFT, _RIGHT, _SNK], dtype=np.int8)
    pairs = [(a, b) for a in range(4) for b in range(4)]
    codes = _edge_class_codes(np.array([a for a, _ in pairs]),
                              np.array([b for _, b in pairs]), side)
    for (a, b), code in zip(pairs, codes.tolist()):
        sides = {side[a], side[b]} - {_SRC, _SNK}
        want = (ONE_SIDED_RIGHT if sides == {_RIGHT} else TWO_SIDED
                if len(sides) == 2 else ONE_SIDED_LEFT)
        assert code == want, (a, b)


def plain_nesting(lo, hi):
    """(order, key) of the intervals by a loop: in (lo, -hi, index)
    preorder an interval's depth counts those before it still open at its
    start, and entries go by (depth, preorder index)."""
    count = len(lo)
    pre = sorted(range(count), key=lambda i: (lo[i], -hi[i], i))
    depth = [sum(hi[pre[j]] > lo[pre[r]] for j in range(r))
             for r in range(count)]
    ranks = sorted(range(count), key=lambda r: (depth[r], r))
    return [pre[r] for r in ranks], [depth[r] * count + r for r in ranks]


def crossing(lo, hi, a, b):
    return lo[a] < lo[b] < hi[a] < hi[b] or lo[b] < lo[a] < hi[b] < hi[a]


@st.composite
def interval_families(draw, laminar):
    size = draw(st.integers(2, 24))
    lo, hi = [], []
    for _ in range(draw(st.integers(0, 14))):
        a = draw(st.integers(0, size - 2))
        b = draw(st.integers(a + 1, size - 1))
        lo.append(a)
        hi.append(b)
        if laminar and any(crossing(lo, hi, i, len(lo) - 1)
                           for i in range(len(lo) - 1)):
            lo.pop()
            hi.pop()
    return size, lo, hi


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(interval_families))
def test_nesting_matches_a_containment_loop(family):
    size, lo, hi = family
    lo_a, hi_a = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    bare = nesting(lo_a, hi_a, size, parents=False)
    assert (bare.order.tolist(), bare.key.tolist()) == plain_nesting(lo, hi)
    assert bare.parent is bare.leaves is None
    nest = nesting(lo_a, hi_a, size)
    assert (nest.order.tolist(), nest.key.tolist()) == plain_nesting(lo, hi)
    order = nest.order
    crosses = [(a, b) for a in range(len(lo)) for b in range(a)
               if crossing(lo, hi, a, b)]
    at = {x: i for i, x in enumerate(order.tolist())}
    if not crosses:
        # a laminar family: each parent is the innermost interval around
        # it, the last such in preorder, and no entry leaves its parent
        for i, x in enumerate(order.tolist()):
            around = [y for y in range(len(lo)) if y != x and lo[y] <= lo[x]
                      and hi[x] <= hi[y] and (lo[y], -hi[y], y)
                      < (lo[x], -hi[x], x)]
            inner = max(around, key=lambda y: (lo[y], -hi[y], y),
                        default=None)
            assert nest.parent[i] == (-1 if inner is None else at[inner])
        assert nest.leaves.tolist() == []
    else:
        # the first entry in preorder to leave its parent crosses it
        x = min(nest.leaves.tolist(), key=lambda y: nest.key[y] % len(lo))
        assert crossing(lo, hi, order[nest.parent[x]], order[x])


def test_topological_order_merges_sides():
    g = build_graph(["a", "b"], ["r1", "r2"],
                    [("s", "a"), ("a", "b"), ("b", "t"),
                     ("s", "r1"), ("r1", "r2"), ("r2", "t")], s="s", t="t")
    order = topological_order(g)
    assert [g.name(v) for v in order] == ["s", "a", "r1", "b", "r2", "t"]
    assert is_linear_extension(g, order)
    assert not is_linear_extension(g, order[::-1])


def test_topological_order_respects_two_sided_edges(stacked_rhombi):
    g = stacked_rhombi
    names = [g.name(v) for v in topological_order(g)]
    assert names == ["s", "a", "b", "m", "d", "c", "t"]
    assert names.index("b") < names.index("m") < names.index("d")


def test_json_round_trip(weak_rhombus):
    text = graph_to_json(weak_rhombus)
    assert text == graph_to_json(weak_rhombus)  # byte-stable
    doc = json.loads(text)
    assert doc["s"] == "s" and doc["left"] == ["a"]
    g = graph_from_json(text)
    assert g.edge_set == weak_rhombus.edge_set
    assert g.names == weak_rhombus.names


@pytest.mark.parametrize("payload", [
    "not json",
    "[]",
    '{"left": ["a"], "right": ["b"]}',
    '{"left": "a", "right": [], "s": "s", "t": "t", "edges": []}',
    '{"left": [["a"]], "right": [], "s": "s", "t": "t", '
    '"edges": [["s", "t"]]}',
    '{"left": [1], "right": [], "s": "s", "t": "t", "edges": [["s", "t"]]}',
])
def test_json_parse_errors(payload):
    with pytest.raises(ParseError):
        graph_from_json(payload)


@pytest.mark.parametrize("edges, bad", [
    ([["s", "t"], ["s"]], "['s']"),
    ([["s", "t"], ["s", "a", "t"]], "['s', 'a', 't']"),
    ([["s", "t"], ["s", 1], ["t"]], "['s', 1]"),
    ([["s", None]], "['s', None]"),
    ([["s", "t"], "st"], "'st'"),
    ([{"s": "t"}], "{'s': 't'}"),
    ([["s", ["t"]]], "['s', ['t']]"),
    ([[]], "[]"),
])
def test_json_names_the_first_bad_edge(edges, bad):
    doc = {"left": [], "right": [], "s": "s", "t": "t", "edges": edges}
    with pytest.raises(ParseError) as info:
        graph_from_json(json.dumps(doc))
    assert str(info.value) == f"edge {bad} must be a pair of names"


def test_json_names_a_bad_edge_before_a_repeated_side_name():
    doc = {"left": ["a", "a"], "right": ["r1"], "s": "s", "t": "t",
           "edges": [list(e) for e in PATH_EDGES]}
    with pytest.raises(SideNotAPath):
        graph_from_json(json.dumps(doc))
    doc["edges"].append(["a", 5])
    with pytest.raises(ParseError) as info:
        graph_from_json(json.dumps(doc))
    assert str(info.value) == "edge ['a', 5] must be a pair of names"


@pytest.mark.parametrize("name", ["hamiltonian_path", "awkward_names",
                                  "numeric_names", "double_crossing"])
def test_json_on_fixed_cases(request, name):
    g = request.getfixturevalue(name)
    text = graph_to_json(g)
    assert text == indented(graph_payload(g))
    if name == "numeric_names":
        assert '"s": 0' in text and "2.5" in text
    else:
        assert graph_from_json(text).names == g.names


def test_names_of_mixed_kinds_build():
    # a tuple name among strings is looked up like any other name
    a = ("a", 1)
    g = build_graph([a], [], [("s", a), (a, "t"), ("s", "t")], s="s", t="t")
    assert g.names == ["s", a, "t"] and g.vid(a) == 1
    with pytest.raises(UnknownVertex):
        build_graph([a], [], [("s", a), (a, "t"), ("s", ("b", 1))],
                    s="s", t="t")


def test_json_writes_only_scalar_names():
    s, a, t = ("s", 0), ("a", 1), ("t", 2)
    g = build_graph([a], [], [(s, a), (a, t), (s, t)], s=s, t=t)
    with pytest.raises(TypeError):
        graph_to_json(g)


@settings(max_examples=120, deadline=None)
@given(instances())
def test_generated_instances_have_consistent_indexing(g):
    order = topological_order(g)
    assert sorted(order) == list(range(g.n))
    assert is_linear_extension(g, order)
    assert g.edge_count == len(g.edge_set)
    text = graph_to_json(g)
    assert text == indented(graph_payload(g))
    again = graph_from_json(text)
    assert again.edge_set == g.edge_set
    assert again.names == g.names


@settings(max_examples=150, deadline=None)
@given(instances())
@example(nested_fan_graph())    # chords nested 11 deep, anchored at s and t
def test_stored_tables_match_plain_recomputation(g):
    ref = reference_tables(g)
    assert g.lcoord.tolist() == ref.lcoord
    assert g.rcoord.tolist() == ref.rcoord
    assert edge_classes(g).tolist() == ref.classes
    assert [edge_class(g, u, v)
            for u, v in zip(g.tail.tolist(), g.head.tolist())] == ref.classes
    assert g.lo_out.tolist() == ref.lo_out
    assert g.hi_in.tolist() == ref.hi_in
    c = g.chords
    assert c.opened.tolist() == ref.opened
    assert c.under.tolist() == ref.under
    assert c.depth_key.tolist() == ref.depth_key
    assert c.deid.tolist() == ref.deid
    assert list(zip(c.ti.tolist(), c.tj.tolist(), c.teid.tolist())) == ref.two
    order, parent = g.nesting.order, g.nesting.parent
    assert order.tolist() == ref.nested
    assert np.where(parent >= 0, order[parent], -1).tolist() == ref.parent
    assert list(topological_order(g)) == ref.topo
    assert g.topo_pos.tolist() == ref.topo_pos
