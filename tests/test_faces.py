"""Face enumeration and median detection on the embedded boundary cycle."""

import numpy as np
from hypothesis import given, settings

from hpcc.embedding import faces, median_scan
from reference import face_vertices, interior_faces_as_sets
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
    f = faces(g)
    e = g.edge_count
    assert f.count == e - g.n + 2
    # every directed slot belongs to exactly one face cycle
    assert len(f.of_slot) == 2 * e
    assert np.bincount(f.of_slot, minlength=f.count).sum() == 2 * e
    seen = np.zeros(2 * e, dtype=bool)
    for fi in range(f.count):
        slot = f.first_slot[fi]
        start = slot
        while True:
            assert not seen[slot]
            seen[slot] = True
            assert f.of_slot[slot] == fi
            slot = f.face_next[slot]
            if slot == start:
                break
    assert seen.all()
