import json

import hpcc
import hpcc.cli
from checks import Instance, check_embed, check_solve, order_problems
from ladder import ladder


def _outputs(tmp_path, rhombi=6, seed=2):
    doc = ladder(rhombi, seed).doc
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    out = {}
    for cmd in ("solve", "embed"):
        dst = tmp_path / f"{cmd}.json"
        assert hpcc.cli.main([cmd, "-i", str(src), "-o", str(dst)]) == 0
        out[cmd] = dst.read_bytes()
    return Instance(doc), out


def test_clean_outputs_pass(tmp_path):
    inst, out = _outputs(tmp_path)
    probs, counts = check_solve(inst, out["solve"], 6)
    assert probs == []
    assert counts["crossings.total"] == counts["crossings.completion_edges"] == 6
    probs, counts = check_embed(inst, out["embed"], 6)
    assert probs == []
    assert counts["crossings.total"] == 6 and counts["book.segments"] > 0


def test_wrong_reference_fails(tmp_path):
    inst, out = _outputs(tmp_path)
    assert check_solve(inst, out["solve"], 5)[0]
    assert check_embed(inst, out["embed"], 7)[0]


def test_order_faults_are_found(tmp_path):
    inst, out = _outputs(tmp_path)
    doc = json.loads(out["solve"])
    order, ces = doc["order"], doc["completion_edges"]
    assert order_problems(inst, order, ces) == ([], 6)
    assert order_problems(inst, order[::-1], ces)[0]
    assert order_problems(inst, order[:-1], ces)[0]
    assert order_problems(inst, order, ces[1:])[0]
    swapped = [order[0], order[2], order[1], *order[3:]]
    assert order_problems(inst, swapped, ces)[0]
