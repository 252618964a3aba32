"""Seeded inputs and reference answers for each workload.

The sizes keep one CLI operation near two seconds on a 2-core machine, so
that a 25-second run holds about twelve operations; see README.md for why
each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import hpcc
import corpus
from checks import Instance
from ladder import ladder

SINGLE_N = 200_000
LADDER_RHOMBI = 10_000
EMBED_RHOMBI = 3_000

NAMES = ("single", "ladder", "embed", "corpus")


@dataclass
class Workload:
    name: str
    command: str | None      # hpcc subcommand; None runs the corpus child
    input_path: Path
    reference: int | None    # crossings every output must show
    inst: Instance | None
    items: list | None       # corpus (instance, Instance) pairs
    inputs: dict             # input.n, input.edges, input.bytes per op


def _write(path: Path, text: str) -> int:
    path.write_text(text)
    return path.stat().st_size


def build(name: str, seed: int, work: Path) -> Workload:
    if name == "corpus":
        items = corpus.instances(seed)
        path = work / "instances.jsonl"
        _write(path, "".join(json.dumps(it) + "\n" for it in items))
        insts = [Instance(json.loads(it["text"])) for it in items]
        k = len(items)
        return Workload(name, None, path, None, None, list(zip(items, insts)), {
            "input.n": sum(i.n for i in insts) / k,
            "input.edges": sum(len(i.tail) for i in insts) / k,
            "input.bytes": sum(len(it["text"]) for it in items) / k})

    path = work / "in.json"
    if name == "single":
        g = hpcc.generate(hpcc.GeneratorParams(
            n=SINGLE_N, chord_density=0.3, left_fraction=0.5, seed=seed))
        text = hpcc.graph_to_json(g)
        sol = hpcc.solve(g)
        probs = hpcc.solution_problems(g, sol)
        if probs:
            raise RuntimeError("reference solve is not clean: "
                               + "; ".join(probs))
        reference, command = sol.crossings, "solve"
    elif name in ("ladder", "embed"):
        reference = LADDER_RHOMBI if name == "ladder" else EMBED_RHOMBI
        text = json.dumps(ladder(reference, seed).doc)
        command = "solve" if name == "ladder" else "embed"
    else:
        raise ValueError(f"unknown workload {name!r}")
    size = _write(path, text)
    inst = Instance(json.loads(text))
    return Workload(name, command, path, reference, inst, None, {
        "input.n": inst.n, "input.edges": len(inst.tail),
        "input.bytes": size})
