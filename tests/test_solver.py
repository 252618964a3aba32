"""End-to-end completion solver and the solution verifier."""

import dataclasses
import importlib
import json
import shlex
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcc import (GeneratorParams, InternalError, build_graph, decompose,
                  generate, graph_from_json, graph_to_json, solve,
                  to_book_embedding, validate_book_embedding)
from hpcc import crossings
from hpcc.cli import main
from hpcc.crossings import CrossingRecord, solution_crossings
from hpcc.decompose import EDGE, GAP, VERTEX
from hpcc.graph import is_linear_extension
from hpcc.oracle import enumerate_hamiltonian_orders
from hpcc.polygon import polygon_costs
from hpcc.solver import CompletionSolution, _plan, _splice, solution_problems
from reference import (ladder_module, reference_plan, reference_solution,
                       reference_solution_problems, reference_splice,
                       verify_solution)
from strategies import instances, three_kind_ladders

KIND_NAMES = {GAP: "gap", VERTEX: "vertex", EDGE: "edge"}


def by_name(g, ids):
    return [g.name(v) for v in ids]


def test_weak_rhombus_needs_no_crossing(weak_rhombus):
    sol = solve(weak_rhombus)
    assert sol.crossings == 0
    assert by_name(weak_rhombus, sol.order) == ["s", "a", "b", "t"]
    assert sol.completion_edges == [(1, 3)]
    assert sol.records == []


def test_strong_rhombus_crosses_its_median(strong_rhombus):
    sol = solve(strong_rhombus)
    assert sol.crossings == 1
    assert by_name(strong_rhombus, sol.order) == ["s", "a", "b", "t"]
    assert [r.crossed_edge for r in sol.records] == [(0, 2)]


def test_chorded_polygon_picks_the_cheap_channel(chorded_polygon):
    sol = solve(chorded_polygon)
    assert sol.crossings == 1
    assert by_name(chorded_polygon, sol.order) == ["s", "r1", "l1", "l2", "t"]
    assert sol.completion_edges == [(4, 1)]


def test_stacked_rhombi_add_up(stacked_rhombi):
    sol = solve(stacked_rhombi)
    assert sol.crossings == 2
    assert by_name(stacked_rhombi, sol.order) == ["s", "a", "b", "m", "c", "d", "t"]
    assert len(sol.completion_edges) == 2


def test_edge_linked_polygons(edge_linked_polygons):
    g = edge_linked_polygons
    sol = solve(g)
    assert sol.crossings == 2
    assert by_name(g, sol.order) == ["s", "b", "x", "a", "c", "d", "t"]
    assert verify_solution(g, sol)


class TestProblemReporting:
    def tampered(self, g, **overrides):
        sol = solve(g)
        return CompletionSolution(**{
            "order": overrides.get("order", sol.order),
            "completion_edges": overrides.get("completion_edges",
                                              sol.completion_edges),
            "records": overrides.get("records", sol.records),
            "crossings": overrides.get("crossings", sol.crossings),
        })

    def test_not_a_permutation(self, strong_rhombus):
        bad = self.tampered(strong_rhombus, order=[0, 1, 1, 2])
        assert any("not a permutation" in p
                   for p in solution_problems(strong_rhombus, bad))

    def test_reversed_edge(self, strong_rhombus):
        bad = self.tampered(strong_rhombus, order=[0, 2, 1, 3])
        assert solution_problems(strong_rhombus, bad) == [
            "order reverses at least one edge"]

    def test_wrong_completion_edges(self, strong_rhombus):
        bad = self.tampered(strong_rhombus, completion_edges=[(1, 2)])
        assert any("do not match the order's gaps" in p
                   for p in solution_problems(strong_rhombus, bad))

    def test_wrong_records(self, strong_rhombus):
        bad = self.tampered(strong_rhombus, records=[])
        assert any("records do not match a recount" in p
                   for p in solution_problems(strong_rhombus, bad))

    def test_non_integer_claims_are_refused(self, strong_rhombus):
        # numpy alone would read (1.5, 3) and ("1", "3") as (1, 3)
        sol = solve(strong_rhombus)
        for ces in ([(1.5, 3)], [("1", "3")]):
            with pytest.raises(TypeError):
                CompletionSolution(sol.order, ces, sol.records, sol.crossings)

    def test_wrong_total(self, strong_rhombus):
        bad = self.tampered(strong_rhombus, crossings=7)
        assert any("claims 7 crossings, recount says 1" in p
                   for p in solution_problems(strong_rhombus, bad))


TAMPERS = ("drop", "duplicate", "permute", "reordinal")


def tamper(claims, how, i, j):
    """``claims`` with one record or edge dropped, one repeated, two
    swapped, or (for records) one ordinal moved by ``j - 4``."""
    claims = list(claims)
    if not claims:
        return claims
    i %= len(claims)
    if how == "drop":
        del claims[i]
    elif how == "duplicate":
        claims.insert(j % (len(claims) + 1), claims[i])
    elif how == "permute":
        j %= len(claims)
        claims[i], claims[j] = claims[j], claims[i]
    elif isinstance(claims[i], CrossingRecord):
        claims[i] = dataclasses.replace(claims[i],
                                        ordinal=claims[i].ordinal + j - 4)
    return claims


@settings(max_examples=200, deadline=None)
@given(instances(max_n=14), st.sampled_from(TAMPERS + ("none",)),
       st.sampled_from(TAMPERS + ("none",)), st.integers(0, 99),
       st.integers(0, 9), st.integers(-1, 1))
def test_array_verifier_matches_the_set_based_one(g, on_edges, on_records,
                                                   i, j, extra):
    sol = solve(g)
    bad = CompletionSolution(sol.order,
                             tamper(sol.completion_edges, on_edges, i, j),
                             tamper(sol.records, on_records, j, i),
                             sol.crossings + extra)
    probs = solution_problems(g, bad)
    assert probs == reference_solution_problems(g, bad)
    clean = (Counter(bad.completion_edges) == Counter(sol.completion_edges)
             and Counter(bad.records) == Counter(sol.records) and not extra)
    assert (probs == []) == clean


def honest(g, order):
    ces, recs, tot = solution_crossings(g, order)
    return CompletionSolution(list(order), ces, recs, tot)


@settings(max_examples=200, deadline=None)
@given(instances(min_n=8, max_n=14), st.integers(0, 200))
def test_array_verifier_matches_on_any_order(g, skip):
    # honest claims for some hamiltonian order, optimal or not: the limit
    # edge and per-edge rules fire in many combinations
    order = list(islice(enumerate_hamiltonian_orders(g), skip + 1))[-1]
    sol = honest(g, order)
    assert solution_problems(g, sol) == reference_solution_problems(g, sol)


def test_backward_subdivision_is_reported(double_crossing, monkeypatch):
    # (s, t) is crossed twice; listing its crossings head first makes the
    # subdivided edge run from the later crossing back to the earlier one
    real = crossings.crossings_along_edges

    def head_first(g, scan):
        rows = real(g, scan)
        return rows[np.lexsort((-np.arange(len(rows)), scan.pair_eid[rows]))]

    sol = solve(double_crossing)
    assert solution_problems(double_crossing, sol) == []
    monkeypatch.setattr(crossings, "crossings_along_edges", head_first)
    assert solution_problems(double_crossing, sol) == [
        "subdividing the crossings fails: extended edge (x2, x1) runs "
        "backwards"]


def test_overcrossed_edge_is_reported():
    g = build_graph(["l1", "l2"], ["r1", "r2", "r3"],
                    [("s", "l1"), ("l1", "l2"), ("l2", "t"),
                     ("s", "r1"), ("r1", "r2"), ("r2", "r3"), ("r3", "t"),
                     ("s", "t")], s="s", t="t")
    sol = honest(g, (0, 6, 1, 5, 2, 4, 3))
    assert sol.crossings == 4
    assert any("crossed 4 times" in p for p in solution_problems(g, sol))


class TestLimitEdgeRules:
    # three chained polygons; (1, 7) and (7, 3) are the junction edges
    def graph(self):
        from hpcc import GeneratorParams, generate
        return generate(GeneratorParams(n=11, chord_density=0.3, seed=30))

    def test_optimum_respects_limits(self):
        g = self.graph()
        sol = solve(g)
        assert sol.crossings == 2
        assert verify_solution(g, sol)

    def test_double_crossed_limit(self):
        g = self.graph()
        sol = honest(g, (0, 1, 10, 2, 9, 8, 7, 3, 4, 6, 5))
        assert any("limit edge (1, 7) is crossed 2 times" in p
                   for p in solution_problems(g, sol))

    def test_limit_problems_in_order_of_first_crossing(self):
        # (9, 2) is crossed first along the order, (8, 5) has the lower id
        g = generate(GeneratorParams(n=12, chord_density=0.7, seed=231))
        sol = honest(g, (0, 11, 10, 9, 8, 1, 7, 2, 3, 4, 5, 6))
        assert solution_problems(g, sol) == \
            reference_solution_problems(g, sol) == [
                "limit edge (9, 2) is crossed 2 times",
                "limit edge (8, 5) is crossed 2 times"]

    def test_crossing_from_the_wrong_element(self):
        g = self.graph()
        sol = honest(g, (0, 1, 10, 9, 8, 2, 7, 3, 4, 6, 5))
        assert any("does not come from the element above" in p
                   for p in solution_problems(g, sol))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_solver_output_is_always_clean(g):
    sol = solve(g)
    assert is_linear_extension(g, sol.order)
    _, _, total = solution_crossings(g, sol.order)
    assert total == sol.crossings
    per_edge = Counter(r.crossed_edge for r in sol.records)
    assert all(c <= 2 for c in per_edge.values())
    assert solution_problems(g, sol) == []
    # the list views rebuild the same claim arrays
    assert honest(g, sol.order) == sol == CompletionSolution(
        sol.order, sol.completion_edges, sol.records, sol.crossings)


def test_no_elements_means_the_bare_edge():
    g = build_graph([], [], [("s", "t")], s="s", t="t")
    sol = solve(g)
    assert (sol.order, sol.crossings) == ([0, 1], 0)


@settings(max_examples=300, deadline=None)
@given(instances(max_n=14))
def test_matches_the_element_by_element_reference(g):
    sol = solve(g)
    assert reference_solution(g) == (sol.crossings, sol.order)


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances(max_n=14), three_kind_ladders()),
       st.randoms(use_true_random=False))
def test_plan_matches_the_reference_on_tied_costs(g, rng):
    # costs 0..2, some two-jump channels unsplittable: ties everywhere
    t = decompose(g).table
    cost = np.array([[rng.randint(0, 2) for _ in range(4)] for _ in t.sink],
                    dtype=float).reshape(-1, 4)
    cost[:, 2:][np.array([rng.random() < 0.2 for _ in range(cost[:, 2:].size)],
                         dtype=bool).reshape(-1, 2)] = np.inf
    best, ch = _plan(g, t, cost)
    assert (best, ch.tolist()) == reference_plan(g, cost)


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances(max_n=14), three_kind_ladders()),
       st.randoms(use_true_random=False))
def test_splice_matches_the_reference_for_any_channels(g, rng):
    # shared edges whose moved stretch another moved stretch continues
    # need channels the optimum rarely picks
    t = decompose(g).table
    _, split = polygon_costs(g, t)
    ch = [rng.choice([c for c in range(4) if c < 2 or split[p, c]])
          for p in range(len(t))]
    order = _splice(g, t, np.array(ch, dtype=np.int64),
                    split[np.arange(len(t)), ch])
    assert order.tolist() == reference_splice(g, split, ch)


@pytest.mark.parametrize("n,density,seed", [(9, 0.3, 70), (10, 0.3, 65),
                                              (12, 0.5, 126)])
def test_two_jump_channel_opened_by_a_shared_edge(n, density, seed):
    # each instance has a shared edge whose previous sink opens the split
    # run of the next polygon's optimal two-jump channel; the splice drops
    # that sink and must shift the split by one
    g = generate(GeneratorParams(n=n, chord_density=density, seed=seed))
    sol = solve(g)
    assert reference_solution(g) == (sol.crossings, sol.order)


@pytest.mark.parametrize("rhombi,seed", [(50, 101), (120, 102), (200, 103),
                                         (350, 104), (500, 105), (500, 106)])
def test_ladders_beyond_oracle_size(rhombi, seed):
    lad = ladder_module().ladder(rhombi, seed)
    g = graph_from_json(json.dumps(lad.doc))
    sol = solve(g)
    assert sol.crossings == rhombi
    assert solution_problems(g, sol) == []
    kinds = Counter(KIND_NAMES[k]
                    for k in decompose(g).table.junction[1:].tolist())
    assert {k: kinds[k] for k in lad.junctions} == lad.junctions
    assert reference_solution(g) == (sol.crossings, sol.order)


def test_embed_builds_the_polygon_table_once(monkeypatch, tmp_path):
    mod = importlib.import_module("hpcc.decompose")
    built, real = [], mod._build_table
    monkeypatch.setattr(mod, "_build_table",
                        lambda g: built.append(g) or real(g))
    priced, price = [], polygon_costs
    for name in ("hpcc.solver", "hpcc.cli"):
        monkeypatch.setattr(importlib.import_module(name), "polygon_costs",
                            lambda g, t: priced.append(g) or price(g, t))
    path = tmp_path / "in.json"
    path.write_text(json.dumps(ladder_module().ladder(30, 7).doc))
    for command in ("embed", "solve"):
        built.clear()
        priced.clear()
        assert main([command, "-i", str(path),
                     "-o", str(tmp_path / "out.json")]) == 0
        assert (len(built), len(priced)) == (1, 1), command


def test_each_route_scans_its_order_once(monkeypatch, tmp_path):
    # every route still asks for the scan of its own order; the graph
    # keeps it, so the scan's crossing batch runs once per graph and order
    calls, runs = Counter(), Counter()

    def counted(count, real):
        def call(g, *args):
            count[g] += 1
            return real(g, *args)
        return call

    monkeypatch.setattr(crossings, "_batch_crossings",
                        counted(runs, crossings._batch_crossings))
    scan = counted(calls, crossings.scan_order)
    for name in ("hpcc.crossings", "hpcc.solver", "hpcc.book"):
        monkeypatch.setattr(importlib.import_module(name), "scan_order", scan)
    text = json.dumps(ladder_module().ladder(30, 7).doc)
    path = tmp_path / "in.json"
    path.write_text(text)
    for command, scans in (("solve", 3), ("embed", 6)):
        calls.clear()
        runs.clear()
        assert main([command, "-i", str(path),
                     "-o", str(tmp_path / "out.json")]) == 0
        assert (list(calls.values()), list(runs.values())) == (
            [scans], [1]), command
    calls.clear()
    runs.clear()
    g = graph_from_json(text)
    sol = solve(g)
    assert solution_problems(g, sol) == []
    assert validate_book_embedding(to_book_embedding(g, sol), g) == []
    assert (calls, runs) == ({g: 6}, {g: 1})


def test_embed_builds_each_graph_table_once(monkeypatch, tmp_path):
    mod = importlib.import_module("hpcc.graph")
    builders = ("_line_coords", "_edge_class_codes", "_cycle_nesting",
                "_chord_index", "_limit_tables", "_toposort")
    calls = Counter()

    def counted(name, real):
        def build(*args):
            calls[name] += 1
            return real(*args)
        return build

    for name in builders:
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    path = tmp_path / "in.json"
    path.write_text(json.dumps(ladder_module().ladder(30, 7).doc))
    assert main(["embed", "-i", str(path),
                 "-o", str(tmp_path / "out.json")]) == 0
    assert calls == dict.fromkeys(builders, 1)


class TestInternalErrors:
    """Broken tables surface as InternalError naming the stage, which
    ``python -O`` cannot strip, and as exit code 1 from the CLI."""

    def run_cli(self, g, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(graph_to_json(g))
        code = main(["solve", "-i", str(path)])
        err = capsys.readouterr().err
        # the second line names the command that reproduces the failure
        assert err.splitlines()[1] == "to reproduce: " + shlex.join(
            ["python", "-m", "hpcc", "solve", "-i", str(path)])
        return code, err

    def test_missing_limit_edge_in_decompose(self, monkeypatch, tmp_path,
                                             capsys, stacked_rhombi):
        # the limit tables are built with the graph, so rebuild it
        mod = importlib.import_module("hpcc.graph")
        monkeypatch.setattr(mod, "_limit_tables", lambda n, *_: (
            np.zeros(n, dtype=np.int64), np.full(n, -1, dtype=np.int64)))
        with pytest.raises(InternalError) as exc:
            decompose(graph_from_json(graph_to_json(stacked_rhombi)))
        assert exc.value.stage == "decompose"
        code, err = self.run_cli(stacked_rhombi, tmp_path, capsys)
        assert code == 1
        assert "self-check failed in stage decompose" in err

    def test_shared_edge_off_the_upper_limit_in_splice(
            self, monkeypatch, tmp_path, capsys, edge_linked_polygons):
        mod = importlib.import_module("hpcc.decompose")
        real = mod._build_table
        monkeypatch.setattr(mod, "_build_table", lambda g: dataclasses.replace(
            real(g), upper=np.full(len(real(g)), -1, dtype=np.int64)))
        with pytest.raises(InternalError) as exc:
            solve(edge_linked_polygons)
        assert exc.value.stage == "splice"
        code, err = self.run_cli(edge_linked_polygons, tmp_path, capsys)
        assert code == 1
        assert "self-check failed in stage splice" in err
