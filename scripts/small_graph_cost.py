"""Per-layer cost of the ``corpus`` workload's small graphs.

    python3 scripts/small_graph_cost.py [SRC] [--seed S] [--count C]
                                        [--repeat N]

Draws ``perfbench/corpus.py``'s instances for seed S (the first C of
them), runs each layer of one corpus operation on every instance, and
prints per layer the time per call in microseconds (the minimum over N
passes of the pass's mean) and the numpy calls per instance.  A layer
is timed alone: the graph's caches are cleared before the layers that
fill them, and given what the operation has by then otherwise.

numpy calls are counted with ``sys.setprofile``, so the count is exact
and the same on every run: every numpy function and every numpy C
function or method (``ndarray`` methods, ``ufunc.at``) that hpcc's own
code calls.  A ufunc or an array operator fires no profile event and is
not counted.  SRC is the directory holding the ``hpcc`` package (default:
this checkout's ``src``); the instances always come from this
checkout's ``perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _numpy_callee(event, frame, arg) -> bool:
    """Whether a profile event is a call into numpy."""
    if event == "call":
        return (frame.f_globals.get("__name__", "").startswith("numpy")
                and not frame.f_code.co_name.endswith("_dispatcher"))
    owner = getattr(arg, "__self__", None)
    return (getattr(arg, "__module__", None) or type(owner).__module__
            or "").startswith("numpy")


def count_numpy_calls(fn, *args) -> int:
    """numpy calls made by hpcc's own code while ``fn(*args)`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            caller = frame.f_back if event == "call" else frame
            if (caller is not None
                    and caller.f_globals.get("__name__", "").startswith("hpcc")
                    and _numpy_callee(event, frame, arg)):
                calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def stages(hpcc, corpus):
    """(name, prepare, run) per layer: ``prepare(case)`` runs untimed before
    each call and returns ``run``'s arguments."""
    from hpcc.decompose import _build_table
    from hpcc.solver import _plan, _splice

    def fresh(c):
        c.g._cache.clear()
        return (c.g,)

    def tables(c):
        hpcc.decompose(c.g)
        return (c.g,)

    def no_scan(c):
        c.g._cache.pop("scan", None)
        return c.g, c.order

    def warm(c, *rest):
        hpcc.solve(c.g)      # the operation's caches, as after solve
        return (c.g, *rest)

    def embedding(g):
        hpcc.embedding.median_scan(g)

    return (
        ("graph_from_json", lambda c: (c.text,), hpcc.graph_from_json),
        ("build_graph", lambda c: c.args,
         lambda left, right, edges, s, t: hpcc.build_graph(left, right, edges,
                                                           s=s, t=t)),
        ("incidence+faces+median_scan", fresh, embedding),
        ("decompose._build_table", tables, _build_table),
        ("polygon_costs", lambda c: (c.g, c.table), hpcc.polygon_costs),
        ("solver._plan", lambda c: (c.g, c.table, c.cost), _plan),
        ("solver._splice", lambda c: (c.g, c.table, c.ch, c.split), _splice),
        ("scan_order (miss)", no_scan, hpcc.crossings.scan_order),
        ("solve", fresh, hpcc.solve),
        ("solution_problems", lambda c: warm(c, c.sol),
         hpcc.solution_problems),
        ("to_book_embedding", lambda c: warm(c, c.sol),
         hpcc.to_book_embedding),
        ("validate_book_embedding", lambda c: (c.be, c.g),
         hpcc.validate_book_embedding),
        ("brute_force_optimal", lambda c: (c.g,),
         lambda g: hpcc.brute_force_optimal(g, max_vertices=12)),
        ("corpus operation", lambda c: (c.text,), corpus.run_instance),
    )


class Case:
    """One instance with every layer's input computed once."""

    def __init__(self, hpcc, text: str):
        import json

        import numpy as np
        from hpcc.solver import _plan, _splice

        doc = json.loads(text)
        self.text = text
        self.args = (doc["left"], doc["right"], doc["edges"], doc["s"],
                     doc["t"])
        self.g = g = hpcc.graph_from_json(text)
        self.sol = hpcc.solve(g)
        self.table = t = hpcc.decompose(g).table
        self.cost, split = hpcc.polygon_costs(g, t)
        self.ch = _plan(g, t, self.cost)[1]
        self.split = split[np.arange(len(t)), self.ch]
        self.order = self.sol.order
        self.be = hpcc.to_book_embedding(g, self.sol)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="?", default=str(ROOT / "src"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=400)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import hpcc
    import corpus

    texts = [it["text"] for it in corpus.instances(args.seed)[:args.count]]
    cases = [Case(hpcc, text) for text in texts]
    gc.collect()
    gc.freeze()

    print(f"{len(cases)} instances of corpus seed {args.seed}, mean n "
          f"{sum(c.g.n for c in cases) / len(cases):.1f}, hpcc from "
          f"{Path(hpcc.__file__).parent}")
    print(f"{'layer':30s} {'us/call':>9s} {'numpy calls':>12s}")
    now = time.perf_counter
    for name, prepare, run in stages(hpcc, corpus):
        best = float("inf")
        for _ in range(args.repeat):
            spent = 0.0
            for c in cases:
                a = prepare(c)
                t0 = now()
                run(*a)
                spent += now() - t0
            best = min(best, spent)
        calls = sum(count_numpy_calls(run, *prepare(c)) for c in cases)
        print(f"{name:30s} {best / len(cases) * 1e6:9.1f} "
              f"{calls / len(cases):12.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
