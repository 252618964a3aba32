"""Seeded chains of strong rhombi, the benchmark's polygon-dense family.

Vertices are added bottom-up.  The built part always ends in a "rung":
the top vertex of each chain, joined by an edge whose head is the newest
vertex.  Every face is a triangle, so the only obstructions to a
hamiltonian path are the rhombi placed on purpose: a median from the
source to the sink with one fan tip on each chain.  Each rhombus costs
exactly one crossing, so the optimum equals the number of rhombi.

Consecutive rhombi meet in one of three ways, picked by the seed:

* ``vertex``: the next source is the previous sink;
* ``edge``: the next source is the rung's tail, so the two polygons share
  the rung edge (next source, previous sink);
* ``gap``: a run of 1 to 3 free vertices lies between them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JUNCTIONS = ("vertex", "edge", "gap")
_L, _R = 0, 1


@dataclass(frozen=True)
class Ladder:
    doc: dict           # instance document in the hpcc JSON format
    rhombi: int
    junctions: dict     # junction kind -> count
    free_vertices: int

    @property
    def n(self) -> int:
        return len(self.doc["left"]) + len(self.doc["right"]) + 2


class _Builder:
    def __init__(self):
        self.chains = ([], [])
        self.edges: list[tuple[str, str]] = []
        self._seen: set[tuple[str, str]] = set()
        self.top = ["s", "s"]
        self.head_side = _L

    def edge(self, u: str, v: str) -> None:
        if (u, v) not in self._seen:
            self._seen.add((u, v))
            self.edges.append((u, v))

    def add(self, side: int) -> str:
        """New chain vertex above ``side``'s top, joined by its chain edge."""
        chain = self.chains[side]
        name = ("l", "r")[side] + str(len(chain) + 1)
        chain.append(name)
        self.edge(self.top[side], name)
        self.top[side] = name
        self.head_side = side
        return name

    @property
    def head(self) -> str:
        return self.top[self.head_side]

    @property
    def tail(self) -> str:
        return self.top[1 - self.head_side]

    def free_vertex(self, side: int) -> None:
        other = self.top[1 - side]
        v = self.add(side)
        self.edge(other, v)

    def rhombus_at_head(self, sink_side: int) -> None:
        src = self.head
        a, b = self.add(_L), self.add(_R)
        self.edge(src, a)
        self.edge(src, b)
        self._close(src, (a, b), sink_side)

    def rhombus_at_tail(self, sink_side: int) -> None:
        src, prev_sink = self.tail, self.head
        src_side = 1 - self.head_side
        fans = [None, None]
        fans[src_side] = self.add(src_side)
        fans[1 - src_side] = prev_sink
        self._close(src, fans, sink_side)

    def _close(self, src: str, fans, sink_side: int) -> None:
        w = self.add(sink_side)
        self.edge(fans[1 - sink_side], w)
        self.edge(src, w)


def ladder(rhombi: int, seed: int) -> Ladder:
    """A chain of ``rhombi`` strong rhombi with seeded junctions."""
    if rhombi < 1:
        raise ValueError("a ladder needs at least one rhombus")
    rng = random.Random(seed)
    b = _Builder()
    counts = dict.fromkeys(JUNCTIONS, 0)
    free = 0
    for i in range(rhombi):
        kind = rng.choice(JUNCTIONS) if i else None
        if kind is not None:
            counts[kind] += 1
        if kind == "edge":
            b.rhombus_at_tail(rng.randrange(2))
            continue
        if kind == "gap":
            # the last added vertex becomes the next source, not free
            run = rng.randint(2, 4)
            for _ in range(run):
                b.free_vertex(rng.randrange(2))
            free += run - 1
        b.rhombus_at_head(rng.randrange(2))
    b.edge(b.top[_L], "t")
    b.edge(b.top[_R], "t")
    doc = {"left": b.chains[_L], "right": b.chains[_R], "s": "s", "t": "t",
           "edges": [list(e) for e in b.edges]}
    return Ladder(doc, rhombi, counts, free)
