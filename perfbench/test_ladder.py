import pytest

import hpcc
import workloads
from ladder import JUNCTIONS, ladder
from run import decomposition_counts


def _graph(lad):
    d = lad.doc
    return hpcc.build_graph(d["left"], d["right"],
                            [tuple(e) for e in d["edges"]], s=d["s"], t=d["t"])


def _expected_counts(lad):
    return {"decompose.polygons": lad.rhombi,
            "decompose.free_vertices": lad.free_vertices,
            **{f"decompose.junctions_{k}": v
               for k, v in lad.junctions.items()}}


SMALL = [(r, seed) for r in range(1, 9) for seed in range(40)]


@pytest.mark.parametrize("rhombi,seed", SMALL)
def test_small_ladders(rhombi, seed):
    lad = ladder(rhombi, seed)
    g = _graph(lad)
    assert g.n == lad.n
    assert decomposition_counts(hpcc, g) == _expected_counts(lad)
    sol = hpcc.solve(g)
    assert sol.crossings == rhombi
    assert hpcc.solution_problems(g, sol) == []
    if g.n <= 12:
        assert hpcc.brute_force_optimal(g)[0] == rhombi


def test_oracle_covers_every_junction_kind():
    seen = dict.fromkeys(JUNCTIONS, 0)
    for rhombi, seed in SMALL:
        lad = ladder(rhombi, seed)
        if lad.n <= 12:
            for k, v in lad.junctions.items():
                seen[k] += v
    assert all(seen.values()), seen


@pytest.mark.parametrize("rhombi", [workloads.EMBED_RHOMBI,
                                    workloads.LADDER_RHOMBI])
def test_workload_sizes(rhombi):
    lad = ladder(rhombi, 1)
    assert all(lad.junctions[k] > 0 for k in JUNCTIONS)
    g = _graph(lad)
    assert decomposition_counts(hpcc, g) == _expected_counts(lad)
    assert hpcc.solve(g).crossings == rhombi


def test_same_seed_same_ladder():
    assert ladder(50, 7).doc == ladder(50, 7).doc
    assert ladder(50, 7).doc != ladder(50, 8).doc
