"""Rhombus detection and the hamiltonicity characterization."""

from hypothesis import given, settings

from hpcc import build_graph
from hpcc.graph import _LEFT
from hpcc.rhombus import (
    Rhombus,
    RhombusKind,
    find_strong_rhombus,
    find_weak_rhombus,
    is_hamiltonian,
)
from reference import (extract_hamiltonian_path, face_rows, has_edge,
                       median_candidates)
from strategies import instances


def test_weak_detection(weak_rhombus):
    assert find_weak_rhombus(weak_rhombus) == Rhombus(
        RhombusKind.WEAK, source=0, sink=2, left_witness=1, right_witness=3)
    assert find_strong_rhombus(weak_rhombus) is None


def test_strong_detection(strong_rhombus):
    assert find_strong_rhombus(strong_rhombus) == Rhombus(
        RhombusKind.STRONG, source=0, sink=2, left_witness=1, right_witness=3)
    assert find_weak_rhombus(strong_rhombus) is None


def test_weak_inside_larger_face():
    # the face (s, a, t, b) persists after a is covered by (a, t)'s twin chord
    g = build_graph(["a", "c"], ["b"],
                    [("s", "a"), ("a", "c"), ("c", "t"),
                     ("s", "b"), ("b", "t"), ("a", "t")],
                    s="s", t="t")
    r = find_weak_rhombus(g)
    assert r is not None and r.kind is RhombusKind.WEAK
    assert (g.name(r.source), g.name(r.sink)) == ("s", "t")
    assert (g.name(r.left_witness), g.name(r.right_witness)) == ("a", "b")


def test_weak_face_with_a_right_chain_source():
    # the face (b1, a2, t, b2) fans out of the right-chain vertex b1, under
    # the strong rhombus (s, a1, a2, b1) with its median (s, a2)
    g = build_graph(["a1", "a2"], ["b1", "b2"],
                    [("s", "a1"), ("a1", "a2"), ("a2", "t"), ("s", "b1"),
                     ("b1", "b2"), ("b2", "t"), ("s", "a2"), ("b1", "a2")],
                    s="s", t="t")
    v = g.vid
    assert find_weak_rhombus(g) == Rhombus(
        RhombusKind.WEAK, source=v("b1"), sink=v("t"),
        left_witness=v("a2"), right_witness=v("b2"))
    assert find_strong_rhombus(g) == Rhombus(
        RhombusKind.STRONG, source=v("s"), sink=v("a2"),
        left_witness=v("a1"), right_witness=v("b1"))


@settings(max_examples=150, deadline=None)
@given(instances(max_n=14))
def test_lowest_rhombi_match_the_face_walk(g):
    ti = g.topo_pos
    medians = median_candidates(g)
    strong = None
    if medians:
        (u, w), (lw, rw) = medians[0]
        strong = Rhombus(RhombusKind.STRONG, u, w, lw, rw)
    assert find_strong_rhombus(g) == strong

    weak = []
    for r in face_rows(g):
        if r.left_run and r.right_run and not has_edge(g, r.source, r.sink):
            a, b = sorted(r.source_tips)
            lw, rw = (a, b) if g.side[a] == _LEFT else (b, a)
            weak.append((ti[r.source], ti[r.sink], Rhombus(
                RhombusKind.WEAK, r.source, r.sink, lw, rw)))
    assert find_weak_rhombus(g) == (min(weak, key=lambda w: w[:2])[2]
                                    if weak else None)


def test_rhombus_blocks_hamiltonian_path(weak_rhombus, strong_rhombus):
    for g in (weak_rhombus, strong_rhombus):
        assert not is_hamiltonian(g)
        assert extract_hamiltonian_path(g) is None


def test_single_chain_is_hamiltonian():
    g = build_graph(["a", "b"], [],
                    [("s", "a"), ("a", "b"), ("b", "t"), ("s", "t")],
                    s="s", t="t")
    assert is_hamiltonian(g)
    assert extract_hamiltonian_path(g) == (0, 1, 2, 3)


def test_edge_only_instance():
    g = build_graph([], [], [("s", "t")], s="s", t="t")
    assert is_hamiltonian(g)
    assert extract_hamiltonian_path(g) == (0, 1)
    assert find_weak_rhombus(g) is None
    assert find_strong_rhombus(g) is None


@settings(max_examples=150, deadline=None)
@given(instances())
def test_detection_agrees_with_extraction(g):
    blocked = (find_weak_rhombus(g) is not None
               or find_strong_rhombus(g) is not None)
    path = extract_hamiltonian_path(g)
    assert is_hamiltonian(g) == (path is not None) == (not blocked)
    if path is not None:
        assert len(path) == g.n
        assert all(has_edge(g, u, v) for u, v in zip(path, path[1:]))
        assert path[0] == 0 and path[-1] == g.k + 1
