"""The ``corpus`` workload: many small instances, each run through every
route in one process.

One operation is one instance through ``graph_from_json``, ``solve``,
``solution_problems``, ``to_book_embedding``, ``validate_book_embedding``
and ``brute_force_optimal``.  Run as a script, this module is the child
process that times those operations:

    python perfbench/corpus.py INSTANCES.jsonl RESULT.json --seconds S
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

import hpcc
from checks import Instance, order_problems
from ladder import ladder

SIZE = 2000
MIN_OPS = 1000
DENSITIES = (0.0, 0.3, 0.7, 1.0)
ORACLE_MAX_N = 12


def instances(seed: int, size: int = SIZE) -> list[dict]:
    """Seeded mix: generator instances with n 4..9 at the four chord
    densities, and every fifth one a ladder of 1 to 3 rhombi."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        if i % 5 == 4:
            rhombi = rng.randint(1, 3)
            lad = ladder(rhombi, rng.randrange(2**31))
            while lad.n > ORACLE_MAX_N:
                lad = ladder(rhombi, rng.randrange(2**31))
            out.append({"text": json.dumps(lad.doc), "rhombi": rhombi})
        else:
            g = hpcc.generate(hpcc.GeneratorParams(
                n=rng.randint(4, 9), chord_density=rng.choice(DENSITIES),
                seed=rng.randrange(2**31)))
            out.append({"text": hpcc.graph_to_json(g), "rhombi": None})
    return out


def run_instance(text: str):
    """The timed operation."""
    g = hpcc.graph_from_json(text)
    sol = hpcc.solve(g)
    probs = hpcc.solution_problems(g, sol)
    be = hpcc.to_book_embedding(g, sol)
    probs += hpcc.validate_book_embedding(be, g)
    best, _ = hpcc.brute_force_optimal(g, max_vertices=ORACLE_MAX_N)
    return g, sol, be, probs, best


def check_instance(item: dict, inst: Instance, result) -> list[str]:
    g, sol, be, probs, best = result
    probs = list(probs)
    order = [g.name(v) for v in sol.order]
    ces = [(g.name(u), g.name(v)) for u, v in sol.completion_edges]
    probs += order_problems(inst, order, ces)[0]
    if sol.crossings != best:
        probs.append(f"solver {sol.crossings}, oracle {best}")
    if be.spine_crossing_count != sol.crossings:
        probs.append("book crossings differ from the solution's")
    if item["rhombi"] is not None and sol.crossings != item["rhombi"]:
        probs.append(f"{sol.crossings} crossings on {item['rhombi']} rhombi")
    return probs


def digest(result):
    return result[1].crossings, tuple(result[1].order)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("instances")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    with open(args.instances) as fh:
        items = [json.loads(line) for line in fh]
    insts = [Instance(json.loads(it["text"])) for it in items]
    # keep the benchmark's own objects out of the collector's timed passes
    gc.collect()
    gc.freeze()

    times, sizes, failures = [], [], []
    first: dict[int, tuple] = {}
    spent = 0.0
    i = 0
    while spent < args.seconds or len(times) < MIN_OPS:
        k = i % len(items)
        t0 = time.perf_counter()
        try:
            result = run_instance(items[k]["text"])
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            failures.append(f"instance {k}: {type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            probs = check_instance(items[k], insts[k], result)
            if first.setdefault(k, digest(result)) != digest(result):
                probs.append("result differs from the first pass")
            if probs:
                failures.append(f"instance {k}: " + "; ".join(probs))
            sizes.append(result[0].n)
        times.append(dt)
        spent += dt
        i += 1
    with open(args.result, "w") as fh:
        json.dump({"times": times, "vertices": sum(sizes),
                   "failures": failures}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
