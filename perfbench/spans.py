"""Span recorder for the traced run.

Each layer is one public hpcc function.  ``Tracer.install`` replaces it
under every module attribute that refers to it, which covers the name its
caller looks it up by (``hpcc.solver.decompose``, ``hpcc.cli.solve`` and
so on).  Spans stay in memory as ``[op, name, start_ns, end_ns, parent]``;
nothing inside hpcc is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

ROOT = "cli.main"

# (module, function) under hpcc, in pipeline order
LAYERS = (
    ("graph", "graph_from_json"),
    ("graph", "build_graph"),
    ("embedding", "incidence"),
    ("embedding", "faces"),
    ("embedding", "median_scan"),
    ("decompose", "decompose"),
    ("polygon", "polygon_costs"),
    ("solver", "solve"),
    ("solver", "solution_problems"),
    ("crossings", "scan_order"),
    ("crossings", "solution_crossings"),
    ("crossings", "build_hp_extended"),
    ("book", "to_book_embedding"),
    ("book", "validate_book_embedding"),
    ("book", "book_to_json"),
    ("oracle", "brute_force_optimal"),
)
SPAN_NAMES = (ROOT, *(f"{m}.{f}" for m, f in LAYERS))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span."""
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([self.op, name, 0, 0, stack[-1] if stack else -1])
            stack.append(i)
            spans[i][2] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][3] = now()
                stack.pop()

        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "hpcc" or k.startswith("hpcc.")]
        self.absent = []
        for mod, fn in LAYERS:
            orig = getattr(sys.modules.get(f"hpcc.{mod}"), fn, None)
            if not callable(orig):
                self.absent.append(f"{mod}.{fn}")
                continue
            wrapped = self.span(f"{mod}.{fn}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def run_op(self, root_name: str, fn, *args):
        """Call ``fn`` as the root span of a new operation."""
        self.op += 1
        return self.span(root_name, fn)(*args)

    def self_times(self):
        """Per operation: {span name: (self ns, calls)}, and root ns."""
        child_ns = [0] * len(self.spans)
        for op, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        per_op = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        roots = {}
        for i, (op, name, t0, t1, parent) in enumerate(self.spans):
            cell = per_op[op][name]
            cell[0] += t1 - t0 - child_ns[i]
            cell[1] += 1
            if parent < 0:
                roots[op] = t1 - t0
        return per_op, roots

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "name", "start_ns", "end_ns",
                                  "parent"],
                       "absent": self.absent, "spans": self.spans}, fh)
