"""Named instances used across the suite.

The four small graphs are the canonical regression fixtures; expected
crossing numbers were confirmed against the brute-force oracle before
being frozen here.
"""

import pytest

from hpcc import build_graph


@pytest.fixture
def weak_rhombus():
    """Quadrilateral face, no median: 0 crossings."""
    return build_graph(["a"], ["b"],
                       [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")],
                       s="s", t="t")


@pytest.fixture
def strong_rhombus():
    """Quadrilateral plus its median: 1 crossing."""
    return build_graph(["a"], ["b"],
                       [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "t")],
                       s="s", t="t")


@pytest.fixture
def chorded_polygon():
    """Two left vertices, one right, median and a covering chord: 1 crossing."""
    return build_graph(["l1", "l2"], ["r1"],
                       [("s", "l1"), ("l1", "l2"), ("l2", "t"),
                        ("s", "r1"), ("r1", "t"), ("s", "t"), ("l1", "t")],
                       s="s", t="t")


@pytest.fixture
def stacked_rhombi():
    """Two strong rhombi sharing the middle vertex m: 2 crossings."""
    return build_graph(["a", "m", "c"], ["b", "d"],
                       [("s", "a"), ("a", "m"), ("m", "c"), ("c", "t"),
                        ("s", "b"), ("b", "d"), ("d", "t"),
                        ("b", "m"), ("m", "d"), ("s", "m"), ("m", "t")],
                       s="s", t="t")


@pytest.fixture
def edge_linked_polygons():
    """Two polygons joined by a shared two-sided edge (b, a): 2 crossings."""
    return build_graph(["x", "a", "c"], ["b", "d"],
                       [("s", "x"), ("x", "a"), ("a", "c"), ("c", "t"),
                        ("s", "b"), ("b", "d"), ("d", "t"),
                        ("s", "a"), ("b", "t"), ("b", "a")],
                       s="s", t="t")


@pytest.fixture
def double_crossing():
    """Instance whose optimum crosses one edge twice (3 < 4 restricted)."""
    right = [f"r{i}" for i in range(1, 8)]
    edges = ([("s", "l1"), ("l1", "t"), ("s", "r1")]
             + [(f"r{i}", f"r{i + 1}") for i in range(1, 7)]
             + [("r7", "t"), ("s", "t"), ("s", "r2"), ("s", "r3"), ("s", "r4"),
                ("r4", "t"), ("r5", "t"), ("r6", "t")])
    return build_graph(["l1"], right, edges, s="s", t="t")


@pytest.fixture
def hamiltonian_path():
    """Already hamiltonian: no completion edge, no crossing, no dive."""
    return build_graph(["a"], [], [("s", "a"), ("a", "t"), ("s", "t")],
                       s="s", t="t")


@pytest.fixture
def awkward_names():
    """Strong rhombus whose names need JSON escapes: a quote, a backslash,
    control characters, non-ASCII, U+2028 and a non-BMP character."""
    s, a, b, t = 's"q', "a\\b", "b\x01\n", "t\u00e9\u2028\U0001f600"
    return build_graph([a], [b], [(s, a), (a, t), (s, b), (b, t), (s, t)],
                       s=s, t=t)


@pytest.fixture
def numeric_names():
    """Strong rhombus named by numbers, which JSON writes unquoted."""
    return build_graph([2.5], [30], [(0, 2.5), (2.5, 99), (0, 30), (30, 99),
                                     (0, 99)], s=0, t=99)


def nested_fan_graph(depth=12, fan=6):
    """One polygon under a median whose one-sided chords nest ``depth`` - 1
    deep on each chain, beside a fan of ``fan`` chords into t on the left
    and out of s on the right."""
    k, m = 2 * depth + fan, fan + 1 + 2 * depth
    left = [f"l{i}" for i in range(1, k + 1)]
    right = [f"r{j}" for j in range(1, m + 1)]
    edges = list(zip(["s"] + left, left + ["t"]))
    edges += list(zip(["s"] + right, right + ["t"]))
    edges += [(f"l{i}", f"l{2 * depth + 1 - i}") for i in range(1, depth)]
    edges += [(f"l{i}", "t") for i in range(2 * depth, k)]
    edges += [("s", f"r{j}") for j in range(2, fan + 2)]
    edges += [(f"r{fan + 1 + i}", f"r{fan + 1 + 2 * depth - i}")
              for i in range(1, depth)]
    return build_graph(left, right, edges + [("s", "t")], s="s", t="t")


@pytest.fixture
def nested_fan():
    """Deeply nested and s- or t-anchored one-sided chords."""
    return nested_fan_graph()
