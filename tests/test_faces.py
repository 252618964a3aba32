"""Faces and median detection on the embedded boundary cycle, against a
plain walk of the rotation system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcc import GeneratorParams, build_graph, generate
from hpcc.embedding import faces, incidence, median_scan
from reference import (face_rows, face_vertices, interior_faces_as_sets,
                       median_candidates, rotation_faces)
from strategies import instances, three_kind_ladders


def names(g, vs):
    return sorted(g.name(v) for v in vs)


def test_single_interior_face(weak_rhombus):
    g = weak_rhombus
    assert len(faces(g).source) == 1
    assert interior_faces_as_sets(g) == [frozenset({0, 1, 2, 3})]
    assert names(g, face_vertices(g)[0]) == ["a", "b", "s", "t"]


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


def face_labels(g):
    """Production face number -> walk face number (-1 for the outer face):
    an edge (lo, hi) heads the face on its slot (lo, hi) and has its
    parent's face on its slot (hi, lo)."""
    inc = incidence(g)
    _, face_of = rotation_faces(g)
    lo = np.minimum(g.tail, g.head).tolist()
    hi = np.maximum(g.tail, g.head).tolist()
    ref = ([face_of[(a, b)] - 1 for a, b in zip(lo, hi)]
           + [face_of[(b, a)] - 1 for a, b in zip(lo, hi)])
    pairs = set(zip(inc.own.tolist() + inc.outer.tolist(), ref))
    label = dict(pairs)
    # one bijection relabels every edge side, the outer face to -1
    assert len(label) == len(pairs) == len(set(label.values()))
    assert label.get(-1, -1) == -1
    return label


@settings(max_examples=120, deadline=None)
@given(instances())
def test_euler_formula_and_slot_partition(g):
    inc, f = incidence(g), faces(g)
    count = g.edge_count - g.n + 1
    assert len(f.source) == len(inc.head_of) == count
    span = np.abs(g.head - g.tail)
    assert np.array_equal(inc.own >= 0, span >= 2)
    assert np.array_equal(inc.outer < 0, span == g.n - 1)
    # the edge sides labelled with a face are exactly that face's slots
    label = face_labels(g)
    sides = np.bincount(inc.own[inc.own >= 0], minlength=count) + np.bincount(
        inc.outer[inc.outer >= 0], minlength=count)
    cycles = face_vertices(g)
    assert [len(cycles[label[p] + 1]) for p in range(count)] == sides.tolist()


def check_face_labels(g):
    rows = face_rows(g)
    assert len(rows) == g.edge_count - g.n + 1
    for row in rows:
        assert len(row.sources) == 1 and len(row.sinks) == 1

    f, label = faces(g), face_labels(g)
    assert sorted(label) == list(range(-1, len(rows)))
    for p in range(len(rows)):
        r = rows[label[p]]
        assert (f.source[p], f.sink[p]) == (r.source, r.sink)
        assert set(f.source_tips[:, p].tolist()) == r.source_tips
        assert set(f.sink_tips[:, p].tolist()) == r.sink_tips
        assert (f.left_run[p], f.right_run[p]) == (r.left_run, r.right_run)

    ms = median_scan(g)
    assert ms.edges.tolist() == sorted(ms.edges.tolist())
    got = sorted(((int(g.tail[e]), int(g.head[e])), (int(lw), int(rw)))
                 for e, lw, rw in zip(ms.edges, ms.left_witness,
                                      ms.right_witness))
    assert got == sorted(median_candidates(g))


@settings(max_examples=200, deadline=None)
@given(st.one_of(instances(min_n=2, max_n=14), three_kind_ladders()))
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
