"""Face enumeration and median detection on the embedded boundary cycle."""

import numpy as np
import pytest
from hypothesis import given, settings

from hpcc import GeneratorParams, build_graph, generate
from hpcc.embedding import faces, incidence, median_scan
from reference import (face_vertices, interior_faces_as_sets,
                       reference_face_labels)
from strategies import instances


def names(g, vs):
    return sorted(g.name(v) for v in vs)


def test_single_interior_face(weak_rhombus):
    g = weak_rhombus
    f = faces(g)
    assert f.count == 2
    assert interior_faces_as_sets(g) == [frozenset({0, 1, 2, 3})]
    assert names(g, face_vertices(g, f.outer)) == ["a", "b", "s", "t"]


def test_median_splits_face(strong_rhombus, weak_rhombus):
    ms = median_scan(strong_rhombus)
    g = strong_rhombus
    pairs = [(g.name(g.tail[e]), g.name(g.head[e])) for e in ms.edges]
    assert pairs == [("s", "t")]
    assert [g.name(v) for v in ms.left_witness] == ["a"]
    assert [g.name(v) for v in ms.right_witness] == ["b"]
    assert list(median_scan(weak_rhombus).edges) == []


def test_chorded_polygon_faces(chorded_polygon):
    g = chorded_polygon
    got = {tuple(names(g, fs)) for fs in interior_faces_as_sets(g)}
    assert got == {("l1", "s", "t"), ("r1", "s", "t"), ("l1", "l2", "t")}


def test_stacked_rhombi_medians(stacked_rhombi):
    g = stacked_rhombi
    ms = median_scan(g)
    pairs = [(g.name(g.tail[e]), g.name(g.head[e])) for e in ms.edges]
    assert pairs == [("s", "m"), ("m", "t")]
    witnesses = list(zip(ms.left_witness, ms.right_witness))
    assert [(g.name(a), g.name(b)) for a, b in witnesses] == [("a", "b"), ("c", "d")]


@settings(max_examples=120, deadline=None)
@given(instances())
def test_euler_formula_and_slot_partition(g):
    f, inc = faces(g), incidence(g)
    e = g.edge_count
    assert f.count == e - g.n + 2
    # every directed slot belongs to exactly one face cycle
    assert len(f.of_slot) == 2 * e
    assert np.bincount(f.of_slot, minlength=f.count).sum() == 2 * e
    seen = np.zeros(2 * e, dtype=bool)
    for fi in range(f.count):
        slot = np.flatnonzero(f.of_slot == fi)[0]
        start = slot
        while True:
            assert not seen[slot]
            seen[slot] = True
            assert f.of_slot[slot] == fi
            slot = inc.rot_next[inc.twin[slot]]
            if slot == start:
                break
    assert seen.all()


def check_face_labels(g):
    f, inc = faces(g), incidence(g)
    label = reference_face_labels(g)
    assert f.of_slot.tolist() == label
    assert f.count == max(label) + 1
    # the outer face is exactly the slots that step one up the cycle
    steps_up = inc.other == (inc.base + 1) % g.n
    assert np.array_equal(f.of_slot == f.outer, steps_up)
    assert f.of_slot[inc.indptr[0]] == f.outer


@settings(max_examples=150, deadline=None)
@given(instances(min_n=2, max_n=14))
def test_face_labels_match_an_orbit_walk(g):
    check_face_labels(g)


@pytest.mark.parametrize("g", [
    build_graph([], [], [("s", "t")], s="s", t="t"),
    # k = 0 and m = 0: one chain is empty, its side is the edge (s, t)
    generate(GeneratorParams(n=9, left_fraction=0.0, chord_density=1.0,
                             seed=1)),
    generate(GeneratorParams(n=9, left_fraction=1.0, chord_density=1.0,
                             seed=1)),
    build_graph([], ["r1", "r2"], [("s", "t"), ("s", "r1"), ("r1", "r2"),
                                   ("r2", "t"), ("s", "r2")], s="s", t="t"),
], ids=["n=2", "k=0", "m=0", "k=0-chord"])
def test_face_labels_on_edge_cases(g):
    check_face_labels(g)
