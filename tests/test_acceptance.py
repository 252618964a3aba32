"""Acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line.
The 10,008-instance corpus (n 4..9, four chord densities, 417 seeds per
cell) is built once and shared; its per-instance facts feed criteria
1, 2, 3, 4, 8 and 9.
"""

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import pytest

from hpcc import GeneratorParams, build_graph, generate, graph_to_json, solve
from hpcc.book import (
    from_book_embedding,
    to_book_embedding,
    validate_book_embedding,
)
from hpcc.decompose import FreeVertex, StPolygon, decompose
from hpcc.graph import graph_from_json
from hpcc.oracle import brute_force_optimal, enumerate_hamiltonian_orders
from hpcc.polygon import polygon_costs
from hpcc.rhombus import find_strong_rhombus, find_weak_rhombus, is_hamiltonian
from hpcc.solver import solution_problems
from reference import (channel_gaps, channel_order, has_edge,
                       median_candidates, polygon_subgraph,
                       weak_polygon_seeds)

DENSITIES = (0.0, 0.3, 0.7, 1.0)
SEEDS_PER_CELL = 417     # 6 sizes x 4 densities x 417 = 10,008 instances


def _verdict(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@dataclass
class CorpusFacts:
    count: int = 0
    solve_oracle_seconds: float = 0.0
    oracle_mismatches: list = field(default_factory=list)
    hamiltonicity_mismatches: list = field(default_factory=list)
    verifier_failures: list = field(default_factory=list)
    book_failures: list = field(default_factory=list)
    decomposition_failures: list = field(default_factory=list)
    polygon_pool: dict = field(default_factory=dict)  # json -> source key


def _has_zero_gap_order(g):
    return any(g.has_edges(list(o[:-1]), list(o[1:])).all()
               for o in enumerate_hamiltonian_orders(g))


def _check_decomposition(g, sol, key, facts):
    elements = decompose(g)
    polys = [el for el in elements if isinstance(el, StPolygon)]
    free = {el.vertex for el in elements if isinstance(el, FreeVertex)}
    owners = {}
    for i, p in enumerate(polys):
        for v in (*p.left_vertices, *p.right_vertices, p.source, p.sink):
            owners.setdefault(v, set()).add(i)

    chain_cov = Counter()
    for p in polys:
        chain_cov.update(p.left_vertices)
        chain_cov.update(p.right_vertices)
    if chain_cov and chain_cov.most_common(1)[0][1] > 1:
        facts.decomposition_failures.append((key, "chains overlap"))
        return

    edge_junction = set()
    for i, (prev, nxt) in enumerate(zip(polys, polys[1:])):
        if prev.upper_limit is None or prev.upper_limit != nxt.lower_limit:
            continue
        if prev.upper_limit != (nxt.source, prev.sink) \
                or not has_edge(g, nxt.source, prev.sink):
            facts.decomposition_failures.append((key, "bad shared edge"))
            return
        edge_junction.add(i)

    for p in polys:
        sub = polygon_subgraph(g, p)
        rh = len(median_candidates(sub)) + len(weak_polygon_seeds(sub))
        if rh != 1:
            facts.decomposition_failures.append((key, f"{rh} rhombi"))
            return
        if sub.n <= 8:
            facts.polygon_pool.setdefault(graph_to_json(sub), key)

    # the part outside the polygons is hamiltonian as it stands: free
    # vertices ride on existing edges and never touch a completion edge
    pos = {v: i for i, v in enumerate(sol.order)}
    for fv in free:
        i = pos[fv]
        if not (has_edge(g, sol.order[i - 1], fv)
                and has_edge(g, fv, sol.order[i + 1])):
            facts.decomposition_failures.append((key, f"free {fv} not wired"))
            return

    # a completion edge stays inside one polygon, except that an
    # edge-shared junction lets the splice jump from the upper polygon
    # into the lower one (the jump is what crosses the shared edge)
    for u, v in sol.completion_edges:
        if u in free or v in free:
            facts.decomposition_failures.append((key, "ce touches free"))
            return
        su, sv = owners.get(u, set()), owners.get(v, set())
        if su & sv:
            continue
        if not any(i in edge_junction and i + 1 in su and i in sv
                   for i in range(len(polys) - 1)):
            facts.decomposition_failures.append((key, f"ce ({u},{v}) escapes"))
            return


@pytest.fixture(scope="session")
def corpus():
    facts = CorpusFacts()
    for n in range(4, 10):
        for density in DENSITIES:
            for seed in range(SEEDS_PER_CELL):
                key = (n, density, seed)
                g = generate(GeneratorParams(n=n, chord_density=density,
                                             seed=seed))
                t0 = time.perf_counter()
                sol = solve(g)
                best, _ = brute_force_optimal(g)
                facts.solve_oracle_seconds += time.perf_counter() - t0
                facts.count += 1

                if sol.crossings != best:
                    facts.oracle_mismatches.append(key)

                ham = is_hamiltonian(g)
                detectors_clear = (find_weak_rhombus(g) is None
                                   and find_strong_rhombus(g) is None)
                if not (ham == detectors_clear == _has_zero_gap_order(g)):
                    facts.hamiltonicity_mismatches.append(key)

                if solution_problems(g, sol):
                    facts.verifier_failures.append(key)

                be = to_book_embedding(g, sol)
                if not (be.spine_crossing_count == sol.crossings == best
                        and validate_book_embedding(be, g) == []
                        and from_book_embedding(g, be) == sol):
                    facts.book_failures.append(key)

                _check_decomposition(g, sol, key, facts)
    return facts


def test_criterion_1_oracle_equivalence(corpus, capsys):
    ok = corpus.count >= 10000 and not corpus.oracle_mismatches \
        and corpus.solve_oracle_seconds < 120
    _verdict(capsys, 1, ok,
             f"solve == oracle on {corpus.count} instances, "
             f"{len(corpus.oracle_mismatches)} mismatches, "
             f"{corpus.solve_oracle_seconds:.0f}s")


def test_criterion_2_hamiltonicity_three_ways(corpus, capsys):
    bad = corpus.hamiltonicity_mismatches
    _verdict(capsys, 2, not bad,
             f"path <-> no rhombus <-> zero completion gaps, "
             f"{len(bad)} mismatches on {corpus.count} instances")


def test_criterion_3_solutions_verify(corpus, capsys):
    bad = corpus.verifier_failures
    _verdict(capsys, 3, not bad,
             f"solution_problems clean on {corpus.count} optima, "
             f"{len(bad)} violations")


def test_criterion_4_channels_are_optimal(corpus, capsys):
    beaten = []
    for js in corpus.polygon_pool:
        sub = graph_from_json(js)
        (_,) = elements = decompose(sub)
        cost, _ = polygon_costs(sub, elements.table)
        channels = cost[0].min()
        best, _ = brute_force_optimal(sub)
        if best != channels:
            beaten.append(corpus.polygon_pool[js])
    _verdict(capsys, 4, not beaten,
             f"oracle never beats the four channels on "
             f"{len(corpus.polygon_pool)} distinct polygons <= 8 vertices, "
             f"{len(beaten)} beaten")


def test_criterion_5_fixed_fixtures(capsys, weak_rhombus, strong_rhombus,
                                    stacked_rhombi, chorded_polygon):
    got = tuple(solve(g).crossings for g in
                (weak_rhombus, strong_rhombus, stacked_rhombi,
                 chorded_polygon))
    sol = solve(chorded_polygon)
    (p,) = elements = decompose(chorded_polygon)
    cost, _ = polygon_costs(chorded_polygon, elements.table)
    via_1l = (sol.order == channel_order(p, "1L")
              and list(sol.completion_edges)
              == channel_gaps(chorded_polygon, p, "1L")
              and cost[0, 0] == sol.crossings == 1)
    ok = got == (0, 1, 2, 1) and via_1l
    _verdict(capsys, 5, ok,
             f"crossings {got} vs expected (0, 1, 2, 1); "
             f"last one through the 1L channel: {via_1l}")


def test_criterion_6_double_crossing_pays_off(capsys, double_crossing):
    g = double_crossing
    best, witness = brute_force_optimal(g)
    restricted, _ = brute_force_optimal(g, max_crossings_per_edge=1)
    from hpcc.crossings import solution_crossings
    _, records, _ = solution_crossings(g, witness)
    per_edge = Counter(r.crossed_edge for r in records)
    doubled = max(per_edge.values(), default=0) == 2
    ok = doubled and best == 3 and restricted == 4
    _verdict(capsys, 6, ok,
             f"free optimum {best} crosses an edge twice ({doubled}), "
             f"one-per-edge optimum {restricted}")


def _raw_inputs(g):
    left = g.names_of(g.left_seq)
    right = g.names_of(g.right_seq)
    edges = [(g.name(int(u)), g.name(int(v)))
             for u, v in zip(g.tail, g.head)]
    return left, right, edges, g.name(0), g.name(g.k + 1)


def test_criterion_7_linear_scaling(capsys):
    build_med, solve_med = {}, {}
    for n, runs in ((10**4, 5), (10**5, 5), (10**6, 3)):
        builds, solves = [], []
        for seed in range(runs):
            g = generate(GeneratorParams(n=n, chord_density=0.3, seed=seed))
            left, right, edges, s, t = _raw_inputs(g)
            t0 = time.perf_counter()
            g2 = build_graph(left, right, edges, s=s, t=t)
            builds.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            solve(g2)
            solves.append(time.perf_counter() - t0)
        build_med[n] = statistics.median(builds)
        solve_med[n] = statistics.median(solves)
    ratios = [build_med[10**5] / build_med[10**4],
              build_med[10**6] / build_med[10**5],
              solve_med[10**5] / solve_med[10**4],
              solve_med[10**6] / solve_med[10**5]]
    total = build_med[10**6] + solve_med[10**6]
    ok = max(ratios) <= 15 and total < 10
    _verdict(capsys, 7, ok,
             f"decade ratios build/solve "
             f"{ratios[0]:.1f}/{ratios[1]:.1f} and "
             f"{ratios[2]:.1f}/{ratios[3]:.1f} (cap 15), "
             f"n=1e6 total {total:.1f}s (cap 10)")


def test_criterion_8_book_equivalence(corpus, capsys):
    bad = corpus.book_failures
    _verdict(capsys, 8, not bad,
             f"spine crossings == optimum, validator green, round trip "
             f"identity on {corpus.count} instances, {len(bad)} failures")


def test_criterion_9_decomposition_soundness(corpus, capsys):
    bad = corpus.decomposition_failures
    _verdict(capsys, 9, not bad,
             f"disjoint polygons, one rhombus each, junction edges "
             f"(next source, previous sink), free vertices ride existing "
             f"edges; {len(bad)} violations")
