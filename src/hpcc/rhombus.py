"""Hamiltonicity witnesses.

A graph with both chains nonempty fails to have a hamiltonian path exactly
when some region forces a detour: either a chord whose two incident faces
fan out to both chains (strong case) or a single face with interior
vertices on both chains (weak case).  The lowest such obstruction is
reported; no obstruction means the topological order is itself a
hamiltonian path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .embedding import faces, median_scan
from .graph import OuterplanarStDigraph, VertexId, _LEFT


class RhombusKind(Enum):
    STRONG = "Strong"
    WEAK = "Weak"


@dataclass(frozen=True)
class Rhombus:
    kind: RhombusKind
    source: VertexId
    sink: VertexId
    left_witness: VertexId
    right_witness: VertexId


def find_strong_rhombus(g: OuterplanarStDigraph) -> Rhombus | None:
    scan = median_scan(g)
    if len(scan.edges) == 0:
        return None
    ti = g.topo_pos
    u = g.tail[scan.edges]
    v = g.head[scan.edges]
    best = np.lexsort((ti[v], ti[u]))[0]
    return Rhombus(RhombusKind.STRONG, int(u[best]), int(v[best]),
                   int(scan.left_witness[best]), int(scan.right_witness[best]))


def _weak_face_mask(g: OuterplanarStDigraph):
    # the paper also asks for no (source, sink) edge, which such a face never
    # has: the edges nest, so that edge would be on the ring, the rest of it
    # a path in cycle order with a vertex on each chain, round s or t between
    # them.  Edges climb both chains: round s the path would first descend
    # its own chain or enter s, round t leave t or descend the other chain.
    f = faces(g)
    return f, (f.left_run >= 1) & (f.right_run >= 1)


def find_weak_rhombus(g: OuterplanarStDigraph) -> Rhombus | None:
    f, weak = _weak_face_mask(g)
    if not weak.any():
        return None
    ti = g.topo_pos
    cand = np.flatnonzero(weak)
    best = cand[np.lexsort((ti[f.sink[cand]], ti[f.source[cand]]))[0]]
    nb1, nb2 = f.source_tips[:, best].tolist()
    lw, rw = (nb1, nb2) if g.side[nb1] == _LEFT else (nb2, nb1)
    return Rhombus(RhombusKind.WEAK, int(f.source[best]), int(f.sink[best]),
                   lw, rw)


def is_hamiltonian(g: OuterplanarStDigraph) -> bool:
    return find_strong_rhombus(g) is None and find_weak_rhombus(g) is None
