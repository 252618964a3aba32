"""Mutated fixture documents through the command line: every one ends in
exit 0, 2 (unreadable input) or 3 (invalid instance), and none in a
traceback."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hpcc import graph_to_json
from hpcc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = ("weak_rhombus", "strong_rhombus", "chorded_polygon",
            "stacked_rhombi", "edge_linked_polygons", "double_crossing",
            "hamiltonian_path", "awkward_names", "numeric_names",
            "nested_fan")
MARK = "\u0000mutant\u0000"
# JSON texts of every other type, for swaps and duplicate keys
SWAPS = ("null", "true", "0", "-1", "2.5", '""', '"s"', '"zz"', "[]", "{}",
         '["s", "t"]', '{"s": "t"}')
HUGE = ("9" * 5000, "-" + "9" * 5000, "1" + "0" * 400, "1e400", "-1e400",
        "NaN", "Infinity", "123456789012345678901234567890")


def node_paths(obj, path=()):
    """The key/index path of every node of a parsed document."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from node_paths(value, path + (key,))


def replaced(obj, path, text):
    """The document with the node at ``path`` written as raw ``text``."""
    if not path:
        return text
    copy = json.loads(json.dumps(obj))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = MARK
    return json.dumps(copy).replace(json.dumps(MARK), text)


def node_text(obj, path):
    for key in path:
        obj = obj[key]
    return json.dumps(obj)


def mutations(doc: str):
    """Truncations, byte flips, type swaps, deep nesting, huge numbers and
    duplicate keys of one document."""
    data, obj = doc.encode(), json.loads(doc)
    at = st.integers(0, len(data) - 1)
    paths = st.sampled_from(list(node_paths(obj)))
    text = lambda s: s.encode()
    return st.one_of(
        at.map(lambda i: data[:i]),
        st.tuples(at, st.integers(1, 255)).map(
            lambda p: data[:p[0]] + bytes([data[p[0]] ^ p[1]])
            + data[p[0] + 1:]),
        st.tuples(paths, st.sampled_from(SWAPS)).map(
            lambda p: text(replaced(obj, *p))),
        st.tuples(paths, st.sampled_from((2, 64, 100_000))).map(
            lambda p: text(replaced(obj, p[0], "[" * p[1] + node_text(
                obj, p[0]) + "]" * p[1]))),
        st.tuples(paths, st.sampled_from(HUGE)).map(
            lambda p: text(replaced(obj, *p))),
        st.tuples(st.sampled_from(sorted(obj)), st.sampled_from(SWAPS),
                  st.booleans()).map(
            lambda p: text(f'{{"{p[0]}": {p[1]}, {doc[1:]}' if p[2]
                           else f'{doc[:-1]}, "{p[0]}": {p[1]}}}')))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_documents_fail_by_name(request, tmp_path, capsys, data):
    name = data.draw(st.sampled_from(FIXTURES))
    raw = data.draw(mutations(graph_to_json(request.getfixturevalue(name))))
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_bytes(raw)
    for command in ("check", "solve"):
        code = main([command, "-i", str(path), "-o", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        assert "Traceback" not in err


def test_mutated_documents_under_an_ascii_locale(tmp_path, awkward_names):
    # one case of each mutation, on a document with non-ASCII names
    doc = graph_to_json(awkward_names)
    data, obj, rng = doc.encode(), json.loads(doc), random.Random(7)
    raws = [data,
            data[:len(data) // 2],
            data.replace(b"\\u00e9", b"\xe9"),       # not UTF-8
            replaced(obj, rng.choice(list(node_paths(obj))),
                     rng.choice(SWAPS)).encode(),
            ("[" * 100_000 + doc + "]" * 100_000).encode(),
            replaced(obj, ("s",), HUGE[0]).encode(),
            f'{doc[:-1]}, "left": ["x"]}}'.encode()]
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    codes = []
    for i, raw in enumerate(raws):
        path = tmp_path / f"in{i}.json"
        path.write_bytes(raw)
        r = subprocess.run([sys.executable, "-m", "hpcc", "solve", "-i",
                            str(path), "-o", str(tmp_path / "out.json")],
                           capture_output=True, env=env, timeout=120)
        assert b"Traceback" not in r.stderr, r.stderr
        codes.append(r.returncode)
    assert codes[:3] == [0, 2, 2] and codes[4:6] == [2, 2]
    assert codes[3] in (0, 2, 3) and codes[6] == 3
