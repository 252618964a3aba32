import json
import sys

import pytest

import hpcc
import hpcc.cli
import corpus
from ladder import ladder
from spans import LAYERS, ROOT, Tracer


@pytest.fixture
def ladder_file(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(ladder(20, 3).doc))
    return path


def _traced_cli(tracer, cmd, path, ops=2):
    argv = [cmd, "-i", str(path), "-o", str(path.with_name("out.json"))]
    tracer.install()
    try:
        for _ in range(ops):
            assert tracer.run_op(ROOT, hpcc.cli.main, argv) == 0
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("cmd,decomposes,scans", [("solve", 2, 3),
                                                  ("embed", 3, 6)])
def test_self_times_add_up_to_the_root(ladder_file, cmd, decomposes, scans):
    tracer = Tracer()
    _traced_cli(tracer, cmd, ladder_file)
    per_op, roots = tracer.self_times()
    assert sorted(per_op) == sorted(roots) == [0, 1]
    for op, row in per_op.items():
        assert sum(ns for ns, _ in row.values()) == roots[op]
        assert all(ns >= 0 for ns, _ in row.values())
        assert row["decompose.decompose"][1] == decomposes
        assert row["crossings.scan_order"][1] == scans
    assert tracer.absent == []


def test_uninstall_restores_every_name(ladder_file):
    mod = {m: sys.modules[f"hpcc.{m}"] for m, _ in LAYERS}
    before = {(m, f): getattr(mod[m], f) for m, f in LAYERS}
    assert hpcc.solver.decompose is before[("decompose", "decompose")]
    _traced_cli(Tracer(), "solve", ladder_file, ops=1)
    for (m, f), fn in before.items():
        assert getattr(mod[m], f) is fn
    assert hpcc.solver.decompose is before[("decompose", "decompose")]
    assert hpcc.cli.solve is before[("solver", "solve")]


def test_missing_layer_is_reported_absent(ladder_file, monkeypatch):
    monkeypatch.delattr(hpcc.oracle, "brute_force_optimal")
    tracer = Tracer()
    _traced_cli(tracer, "solve", ladder_file, ops=1)
    assert tracer.absent == ["oracle.brute_force_optimal"]


def test_corpus_operation_is_traced():
    item = corpus.instances(5, size=5)[4]
    assert item["rhombi"] is not None
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.run_op("corpus.instance", corpus.run_instance,
                               item["text"])
    finally:
        tracer.uninstall()
    assert result[4] == item["rhombi"]
    per_op, roots = tracer.self_times()
    assert sum(ns for ns, _ in per_op[0].values()) == roots[0]
    assert per_op[0]["oracle.brute_force_optimal"][1] == 1
