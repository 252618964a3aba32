"""The hpcc command line, driven through main() with real files."""

import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings

from hpcc import (GeneratorParams, build_graph, generate, graph_from_json,
                  graph_to_json, solve)
from hpcc.book import (BookEmbedding, book_from_json, book_to_json,
                       from_book_embedding, to_book_embedding)
from hpcc.cli import _solution_json, _write_text, main
from hpcc.solver import CompletionSolution
from reference import (book_payload, indented, ladder_module,
                       solution_payload)
from strategies import instances

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def sr_file(tmp_path):
    g = build_graph(["a"], ["b"],
                    [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "t")],
                    s="s", t="t")
    path = tmp_path / "sr.json"
    path.write_text(graph_to_json(g))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve(capsys, sr_file):
    code, out, _ = run(capsys, "solve", "-i", sr_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["crossings"] == 1
    assert payload["order"] == ["s", "a", "b", "t"]
    assert payload["completion_edges"] == [["a", "b"]]
    assert payload["records"] == [{"completion_edge": ["a", "b"],
                                   "crossed_edge": ["s", "t"],
                                   "ordinal": 0}]


def test_output_is_byte_stable(capsys, sr_file):
    _, first, _ = run(capsys, "solve", "-i", sr_file)
    _, second, _ = run(capsys, "solve", "-i", sr_file)
    assert first == second


@settings(max_examples=150, deadline=None)
@given(instances())
def test_solution_document_matches_reference(g):
    sol = solve(g)
    assert _solution_json(g, sol) == indented(solution_payload(g, sol))


@pytest.mark.parametrize("name", ["hamiltonian_path", "awkward_names",
                                  "numeric_names", "double_crossing"])
def test_solution_document_on_fixed_cases(request, name):
    g = request.getfixturevalue(name)
    sol = solve(g)
    text = _solution_json(g, sol)
    assert text == indented(solution_payload(g, sol))
    if name == "hamiltonian_path":
        assert '"completion_edges": []' in text
        assert '"records": []' in text


def test_solve_writes_escaped_names(capsys, tmp_path, awkward_names):
    path = tmp_path / "awkward.json"
    path.write_text(graph_to_json(awkward_names))
    code, out, _ = run(capsys, "solve", "-i", str(path))
    g = graph_from_json(path.read_text())
    assert code == 0
    assert out == indented(solution_payload(g, solve(g))) + "\n"
    assert out.isascii()


def test_check(capsys, sr_file):
    code, out, _ = run(capsys, "check", "-i", sr_file)
    assert code == 0
    assert json.loads(out) == {"n": 4, "edges": 5, "left": ["a"],
                               "right": ["b"], "hamiltonian": False}


def test_check_reads_stdin(capsys, sr_file, monkeypatch):
    data = Path(sr_file).read_bytes()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, _ = run(capsys, "check")
    assert code == 0
    assert json.loads(out)["n"] == 4


@pytest.mark.parametrize("data", [b"\xff\xfe{",
                                  b"[" * 200_000 + b"]" * 200_000,
                                  b'{"s": ' + b"9" * 5000 + b"}"],
                         ids=["not_utf8", "nested_too_deep", "huge_integer"])
def test_unreadable_bytes_are_a_parse_error(capsys, tmp_path, monkeypatch,
                                            data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "check", "-i", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: ") and "Traceback" not in err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(capsys, "check") == (2, "", err)


def test_utf8_in_and_out_under_an_ascii_locale(tmp_path):
    path, svg = tmp_path / "te.json", tmp_path / "te.svg"
    path.write_text(json.dumps({
        "left": ["té"], "right": ["b"], "s": "s", "t": "t",
        "edges": [["s", "té"], ["té", "t"], ["s", "b"], ["b", "t"],
                  ["s", "t"]]}, ensure_ascii=False), encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    script = ("import sys; from hpcc.cli import main; f = sys.argv[1]; "
              "sys.exit(main(['check', '-i', f]) or main(['render', '-i', f])"
              " or main(['render', '-i', f, '-o', sys.argv[2]]))")
    r = subprocess.run([sys.executable, "-c", script, str(path), str(svg)],
                       capture_output=True, env=env, timeout=120)
    assert (r.returncode, r.stderr) == (0, b"")
    summary, tag, drawn = r.stdout.partition(b"<svg")
    assert json.loads(summary)["left"] == ["té"]
    assert tag + drawn == svg.read_bytes()
    assert ">té<".encode() in drawn


def test_decompose(capsys, tmp_path):
    g = build_graph(["a", "m", "c"], ["b", "d"],
                    [("s", "a"), ("a", "m"), ("m", "c"), ("c", "t"),
                     ("s", "b"), ("b", "d"), ("d", "t"),
                     ("b", "m"), ("m", "d"), ("s", "m"), ("m", "t")],
                    s="s", t="t")
    path = tmp_path / "two.json"
    path.write_text(graph_to_json(g))
    code, out, _ = run(capsys, "decompose", "-i", str(path))
    assert code == 0
    lower, upper = json.loads(out)
    assert lower["kind"] == upper["kind"] == "polygon"
    assert lower["median"] == ["s", "m"]
    assert lower["upper_limit"] == ["b", "m"]
    assert lower["costs"] == {"1L": 1, "1R": 1, "2L": None, "2R": None}
    assert upper["lower_limit"] == ["m", "d"]


def test_decompose_lists_free_vertices(capsys, tmp_path):
    # r1 sits below the one polygon, whose source r2 is above it
    path = tmp_path / "free.json"
    path.write_text(graph_to_json(generate(GeneratorParams(
        n=7, chord_density=0.3, seed=5))))
    code, out, _ = run(capsys, "decompose", "-i", str(path))
    assert code == 0
    free, polygon = json.loads(out)
    assert free == {"kind": "free", "vertex": "r1"}
    assert (polygon["kind"], polygon["source"], polygon["sink"],
            polygon["left"], polygon["right"]) == (
        "polygon", "r2", "t", ["l1", "l2"], ["r3"])


def test_embed_and_render(capsys, sr_file, tmp_path):
    code, out, _ = run(capsys, "embed", "-i", sr_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["spine"] == ["s", "a", "b", "t"]
    assert sum(len(e["spine_crossings"]) for e in payload["edges"]) == 1

    code, out, _ = run(capsys, "render", "-i", sr_file)
    assert code == 0
    assert out.lstrip().startswith("<svg")

    svg = tmp_path / "out.svg"
    code, _, _ = run(capsys, "solve", "-i", sr_file, "-o",
                     str(tmp_path / "sol.json"), "--svg", str(svg))
    assert code == 0
    assert svg.read_text().lstrip().startswith("<svg")


def test_svg_escapes_vertex_names(capsys, tmp_path):
    g = build_graph(["a<b"], ["r&1"], [("s", "a<b"), ("a<b", "t"),
                                       ("s", "r&1"), ("r&1", "t")],
                    s="s", t="t")
    path = tmp_path / "in.json"
    path.write_text(graph_to_json(g))
    svg = tmp_path / "out.svg"
    code, rendered, _ = run(capsys, "render", "-i", str(path))
    assert code == 0
    assert run(capsys, "embed", "-i", str(path), "-o",
               str(tmp_path / "book.json"), "--svg", str(svg))[0] == 0
    for text in (rendered, svg.read_text()):
        doc = minidom.parseString(text)
        labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert {"a<b", "r&1"} <= set(labels)


@pytest.mark.parametrize("name", ["awkward_names", "surrogate_name"])
def test_svg_replaces_characters_xml_forbids(capsys, tmp_path, request,
                                             name):
    # U+0001 cannot be written in XML even escaped, and a lone surrogate
    # has no UTF-8 form: both draw as U+FFFD
    if name == "surrogate_name":
        a = "a\ud800"
        g = build_graph([a], ["b"], [("s", a), (a, "t"), ("s", "b"),
                                     ("b", "t")], s="s", t="t")
    else:
        g = request.getfixturevalue(name)
    path = tmp_path / "in.json"
    path.write_text(graph_to_json(g))
    svg, rendered = tmp_path / "embed.svg", tmp_path / "render.svg"
    assert main(["render", "-i", str(path), "-o", str(rendered)]) == 0
    assert main(["embed", "-i", str(path), "-o", str(tmp_path / "book.json"),
                 "--svg", str(svg)]) == 0
    for text in (rendered.read_text(), svg.read_text()):
        doc = minidom.parseString(text)
        labels = [t.firstChild.data
                  for t in doc.getElementsByTagName("text")]
        assert ("b\ufffd\n" if name == "awkward_names"
                else "a\ufffd") in labels


def test_documents_of_the_embed_ladder_match_the_reference():
    g = graph_from_json(json.dumps(ladder_module().ladder(3000, 1).doc))
    sol = solve(g)
    assert _solution_json(g, sol) == indented(solution_payload(g, sol))
    be = to_book_embedding(g, sol)
    assert book_to_json(g, be) == indented(book_payload(g, be))


def test_every_drawn_book_is_validated(capsys, sr_file, tmp_path,
                                       monkeypatch):
    monkeypatch.setattr("hpcc.cli.validate_book_embedding",
                        lambda be, g: ["planted problem"])
    for argv in (["render", "-i", sr_file],
                 ["solve", "-i", sr_file, "-o", str(tmp_path / "sol.json"),
                  "--svg", str(tmp_path / "out.svg")]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.splitlines() == [
            "self-check failed in stage book: planted problem",
            "to reproduce: " + shlex.join(["python", "-m", "hpcc", *argv])]
    # read from stdin, the line says the input must be fed again
    data = Path(sr_file).read_bytes()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, _, err = run(capsys, "render")
    assert code == 1
    assert err.splitlines()[1] == ("to reproduce: python -m hpcc render "
                                   "with the same input on stdin")


@pytest.mark.parametrize("text", ["", "{}", "a\nb\n"])
def test_written_text_ends_in_one_newline(capsys, tmp_path, text):
    path = tmp_path / "out.txt"
    _write_text(str(path), text)
    _write_text("-", text)
    assert path.read_text() == capsys.readouterr().out == text + "\n"


def test_solve_and_embed_build_no_list_view(tmp_path, monkeypatch):
    # the polygon table, the solution's and the book's arrays carry the
    # CLI from input to output, SVGs included, and the book reader, both
    # == and from_book_embedding; any element or list view, drawing,
    # segment or crossing record built on the way raises here
    def refuse(*args, **kwargs):
        raise AssertionError("a lazy view was built")

    for cls, views in ((CompletionSolution, ("completion_edges", "records")),
                       (BookEmbedding, ("drawings",))):
        for view in views:
            monkeypatch.setattr(cls, view, property(refuse))
    for module, names in (("hpcc.decompose", ("_elements",)),
                          ("hpcc.book", ("Segment", "EdgeDrawing")),
                          ("hpcc.crossings", ("CrossingRecord",))):
        for name in names:
            monkeypatch.setattr(importlib.import_module(module), name, refuse)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(ladder_module().ladder(40, 3).doc))
    svg = tmp_path / "out.svg"
    for cmd in ("solve", "embed"):
        for extra in ([], ["--svg", str(svg)]):
            out = tmp_path / f"{cmd}.json"
            assert main([cmd, "-i", str(path), "-o", str(out), *extra]) == 0
            assert json.loads(out.read_text())
    assert main(["render", "-i", str(path), "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    g = graph_from_json(path.read_text())
    sol = solve(g)
    be = book_from_json(g, (tmp_path / "embed.json").read_text())
    assert be == to_book_embedding(g, sol)
    assert from_book_embedding(g, be) == sol


def test_oracle_and_compare(capsys, sr_file):
    code, out, _ = run(capsys, "oracle", "-i", sr_file)
    assert code == 0
    assert json.loads(out) == {"crossings": 1, "order": ["s", "a", "b", "t"]}
    code, out, _ = run(capsys, "compare", "-i", sr_file)
    assert code == 0
    assert json.loads(out) == {"crossings": 1, "match": True}


def test_compare_reports_a_mismatch(capsys, sr_file, monkeypatch):
    monkeypatch.setattr("hpcc.cli.brute_force_optimal",
                        lambda g, max_vertices: (0, None))
    code, out, err = run(capsys, "compare", "-i", sr_file)
    assert (code, out) == (5, "")
    assert err == "mismatch: solver found 1 crossings, oracle found 0\n"


def test_gen_roundtrips(capsys):
    code, out, _ = run(capsys, "gen", "--n", "8", "--density", "0.7",
                       "--seed", "42")
    assert code == 0
    g = graph_from_json(out)
    assert g.n == 8
    code, again, _ = run(capsys, "gen", "--n", "8", "--density", "0.7",
                         "--seed", "42")
    assert again == out


def test_gen_count_emits_json_lines(capsys):
    code, out, _ = run(capsys, "gen", "--n", "6", "--count", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    graphs = [graph_from_json(ln) for ln in lines]
    assert len({graph_to_json(g) for g in graphs}) == 3


def test_gen_count_lines_are_the_compact_documents(capsys):
    code, out, _ = run(capsys, "gen", "--n", "9", "--density", "0.7",
                       "--left-fraction", "0.3", "--seed", "40",
                       "--count", "5")
    assert code == 0
    lines = out.split("\n")
    assert len(lines) == 6 and lines[-1] == ""
    for seed, line in enumerate(lines[:-1], 40):
        g = generate(GeneratorParams(n=9, left_fraction=0.3,
                                     chord_density=0.7, seed=seed))
        assert line == json.dumps(json.loads(graph_to_json(g)),
                                  sort_keys=True, separators=(",", ":"))


def test_gen_rejects_bad_params(capsys):
    for bad in (["--n", "1"], ["--n", "6", "--count", "0"],
                ["--n", "6", "--count", "-2"]):
        code, out, err = run(capsys, "gen", *bad)
        assert (code, out) == (3, "")
        assert "InfeasibleParams" in err


def test_unreadable_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run(capsys, "check", "-i", str(path))
    assert code == 2
    assert "ParseError" in err


def test_unwritable_output(capsys, sr_file, tmp_path):
    code, out, err = run(capsys, "solve", "-i", sr_file, "-o", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("cannot read or write: ")


def test_lone_surrogate_names_are_reported(capsys, tmp_path):
    # a JSON escape can hold half a surrogate pair; the message escapes it
    # as the interpreter's stderr would, even into a strict capture
    path = tmp_path / "lone.json"
    path.write_text('{"edges": [["s", "a"], ["a", "t"], ["s", "\\ud83d"]],'
                    ' "left": ["a"], "right": [], "s": "s", "t": "t"}')
    code, out, err = run(capsys, "check", "-i", str(path))
    assert (code, out) == (3, "")
    assert err == "UnknownVertex: \\ud83d\n"


@pytest.mark.parametrize("left", [[["a"]], [1]])
def test_chain_items_must_be_names(capsys, tmp_path, left):
    payload = {"edges": [["s", "t"]], "left": left, "right": [], "s": "s",
               "t": "t"}
    path = tmp_path / "bad_chain.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "check", "-i", str(path))
    assert code == 2
    assert err.startswith("ParseError: 'left' and 'right' must hold names")


def test_invalid_instance(capsys, tmp_path):
    payload = {"edges": [["s", "a"], ["a", "t"], ["s", "b"], ["b", "t"],
                         ["t", "s"]],
               "left": ["a"], "right": ["b"], "s": "s", "t": "t"}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "solve", "-i", str(path))
    assert code == 3
    assert "CycleDetected" in err


def test_oracle_size_cap(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "gen", "--n", "13", "--seed", "1")
    path = tmp_path / "big.json"
    path.write_text(out)
    code, _, err = run(capsys, "oracle", "-i", str(path))
    assert code == 4
    assert "InstanceTooLarge" in err
    code, out, _ = run(capsys, "oracle", "-i", str(path),
                       "--max-oracle", "13")
    assert code == 0
    assert json.loads(out)["crossings"] is not None
    monkeypatch.setenv("HPCC_MAX_ORACLE", "13")
    code, _, _ = run(capsys, "oracle", "-i", str(path))
    assert code == 0
    monkeypatch.setenv("HPCC_MAX_ORACLE", "8")
    code, _, err = run(capsys, "oracle", "-i", str(path))
    assert code == 4


def test_bad_oracle_limit_only_stops_the_oracle(capsys, sr_file, monkeypatch):
    monkeypatch.setenv("HPCC_MAX_ORACLE", "abc")
    code, out, _ = run(capsys, "solve", "-i", sr_file)
    assert code == 0 and json.loads(out)["crossings"] == 1
    for cmd in ("oracle", "compare"):
        code, _, err = run(capsys, cmd, "-i", sr_file)
        assert code == 2
        assert "BadOracleLimit: HPCC_MAX_ORACLE='abc' is not an integer" in err
    code, _, _ = run(capsys, "oracle", "-i", sr_file, "--max-oracle", "12")
    assert code == 0


def test_optimised_interpreter_gives_identical_bytes(tmp_path, request):
    # python -O strips assert statements; no behaviour may hang on them
    texts = [graph_to_json(request.getfixturevalue(name))
             for name in ("weak_rhombus", "strong_rhombus", "stacked_rhombi",
                          "chorded_polygon")]
    texts.append(json.dumps(ladder_module().ladder(200, 11).doc))
    # interleaving two-sided chords: every command rejects it (exit 3)
    texts.append(json.dumps({
        "left": ["l1", "l2"], "right": ["r1", "r2"], "s": "s", "t": "t",
        "edges": [["s", "l1"], ["l1", "l2"], ["l2", "t"], ["s", "r1"],
                  ["r1", "r2"], ["r2", "t"], ["l2", "r1"], ["l1", "r2"]]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    for i, text in enumerate(texts):
        path = tmp_path / f"in{i}.json"
        path.write_text(text)
        plane = i < len(texts) - 1
        for cmd in ("check", "decompose", "solve", "embed"):
            runs = [subprocess.run(
                [sys.executable, *flags, "-m", "hpcc", cmd, "-i", str(path)],
                capture_output=True, env=env, timeout=120)
                for flags in ((), ("-O",))]
            got = [(r.returncode, r.stdout, r.stderr) for r in runs]
            assert got[0] == got[1]
            code, out, err = got[0]
            if plane:
                assert (code, err) == (0, b"") and out
            else:
                assert (code, out) == (3, b"")
                assert err.startswith(b"EmbeddingNotPlane: ")
