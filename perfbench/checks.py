"""Per-operation output checks, written against the input edges with numpy.

They share no code with hpcc: an order is mapped back to vertex ids
through the input document alone, then tested for being a permutation,
a linear extension, and for listing exactly its consecutive non-edges
as completion edges.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np


class Instance:
    """Vertex ids and sorted edge keys of one input document."""

    def __init__(self, doc: dict):
        names = [doc["s"], *doc["left"], doc["t"], *doc["right"]]
        self.index = {nm: i for i, nm in enumerate(names)}
        self.n = len(names)
        ids = np.array([[self.index[u], self.index[v]]
                        for u, v in doc["edges"]], dtype=np.int64)
        self.tail, self.head = ids[:, 0], ids[:, 1]
        self.keys = np.sort(self.tail * self.n + self.head)

    def ids(self, names) -> np.ndarray:
        return np.array([self.index[nm] for nm in names], dtype=np.int64)

    def is_edge(self, keys: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return self.keys[at] == keys


def order_problems(inst: Instance, order, completion=None):
    """Problems of a vertex order, and its consecutive non-edge count.

    ``completion`` lists the claimed completion edges as name pairs; when
    given it must match the consecutive non-edges exactly.
    """
    try:
        arr = inst.ids(order)
    except KeyError as exc:
        return [f"order names unknown vertex {exc}"], 0
    if len(arr) != inst.n or np.any(np.bincount(arr, minlength=inst.n) != 1):
        return ["order is not a permutation of the vertices"], 0
    pos = np.empty(inst.n, dtype=np.int64)
    pos[arr] = np.arange(inst.n)
    probs = []
    if np.any(pos[inst.tail] >= pos[inst.head]):
        probs.append("order reverses an edge")
    keys = arr[:-1] * inst.n + arr[1:]
    gaps = np.sort(keys[~inst.is_edge(keys)])
    if completion is not None:
        try:
            claimed = np.sort(np.array(
                [inst.index[u] * inst.n + inst.index[v] for u, v in completion],
                dtype=np.int64))
        except (KeyError, ValueError, TypeError):
            claimed = None
        if claimed is None or not np.array_equal(claimed, gaps):
            probs.append("completion edges are not the consecutive non-edges")
    return probs, len(gaps)


def check_solve(inst: Instance, text: bytes, reference: int):
    """Problems of one ``hpcc solve`` output, and its crossing counts."""
    doc = json.loads(text)
    probs, gaps = order_problems(inst, doc["order"], doc["completion_edges"])
    if doc["crossings"] != reference:
        probs.append(f"{doc['crossings']} crossings, reference {reference}")
    if len(doc["records"]) != doc["crossings"]:
        probs.append("record count differs from the crossing count")
    per_edge = Counter(tuple(r["crossed_edge"]) for r in doc["records"])
    return probs, {"crossings.completion_edges": gaps,
                   "crossings.total": doc["crossings"],
                   "crossings.max_per_edge": max(per_edge.values(), default=0),
                   "book.segments": 0}


def check_embed(inst: Instance, text: bytes, reference: int):
    """Problems of one ``hpcc embed`` output, and its crossing counts."""
    doc = json.loads(text)
    probs, gaps = order_problems(inst, doc["spine"])
    dives = [len(e["spine_crossings"]) for e in doc["edges"]]
    if sum(dives) != reference:
        probs.append(f"{sum(dives)} spine crossings, reference {reference}")
    if len(dives) != len(inst.tail):
        probs.append("drawn edge count differs from the input")
    return probs, {"crossings.completion_edges": gaps,
                   "crossings.total": sum(dives),
                   "crossings.max_per_edge": max(dives, default=0),
                   "book.segments": sum(len(e["segments"])
                                        for e in doc["edges"])}
