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
from .graph import OuterplanarStDigraph, VertexId, _LEFT, _RIGHT


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
    f = faces(g)
    idx = np.arange(f.count)
    has_src = f.src_of >= 0
    has_snk = f.snk_of >= 0
    safe_src = np.where(has_src, f.src_of, 0)
    safe_snk = np.where(has_snk, f.snk_of, 0)
    # interior run sizes: face corners minus the source/sink corners
    left_run = (f.left_count
                - (has_src & (g.side[safe_src] == _LEFT))
                - (has_snk & (g.side[safe_snk] == _LEFT)))
    right_run = (f.right_count
                 - (has_src & (g.side[safe_src] == _RIGHT))
                 - (has_snk & (g.side[safe_snk] == _RIGHT)))
    bounded = g.has_edges(safe_src, safe_snk)
    weak = ((idx != f.outer) & has_src & has_snk
            & (left_run >= 1) & (right_run >= 1) & ~bounded)
    return f, weak


def find_weak_rhombus(g: OuterplanarStDigraph) -> Rhombus | None:
    f, weak = _weak_face_mask(g)
    if not weak.any():
        return None
    ti = g.topo_pos
    cand = np.flatnonzero(weak)
    best = cand[np.lexsort((ti[f.snk_of[cand]], ti[f.src_of[cand]]))[0]]
    src = int(f.src_of[best])
    nb1, nb2 = int(f.src_nb1[best]), int(f.src_nb2[best])
    lw, rw = (nb1, nb2) if g.side[nb1] == _LEFT else (nb2, nb1)
    return Rhombus(RhombusKind.WEAK, src, int(f.snk_of[best]), lw, rw)


def is_hamiltonian(g: OuterplanarStDigraph) -> bool:
    return find_strong_rhombus(g) is None and find_weak_rhombus(g) is None
