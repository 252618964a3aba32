"""Command line front end.

Exit codes: 0 success, 1 a solver self-check failed (the message names
the stage, then a rerun command), 2 unreadable input, an unreadable or
unwritable file, or a non-integer HPCC_MAX_ORACLE, 3 invalid instance or
data (the class name says which rule), 4 instance too large for the
oracle, 5 solver and oracle disagree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .book import (InvalidSolution, book_to_json, to_book_embedding,
                   validate_book_embedding)
from .decompose import StPolygon, decompose
from .graph import (OuterplanarStDigraph, InternalError, ParseError,
                    ValidationError, graph_from_json, graph_to_json,
                    json_object, json_rows, json_scalars)
from .oracle import (GeneratorParams, InfeasibleParams, InstanceTooLarge,
                     brute_force_optimal, generate)
from .polygon import CHANNELS, polygon_costs
from .render import render_svg
from .rhombus import is_hamiltonian
from .solver import CompletionSolution, solution_problems, solve

_ORACLE_DEFAULT = 12


class BadOracleLimit(ValueError):
    """HPCC_MAX_ORACLE is set, but not to an integer."""


def _read_text(path: str | None) -> str:
    # JSON travels as UTF-8 (RFC 8259 8.1) whatever the locale; the bytes
    # are dropped on return, before the parse
    data = (sys.stdin.buffer.read() if path in (None, "-")
            else Path(path).read_bytes())
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    # UTF-8 whatever the locale, stdout through its byte buffer once its
    # text layer is flushed.  The newline goes on its own: text + "\n"
    # would copy the whole document
    if path in (None, "-"):
        sys.stdout.flush()
        sys.stdout.buffer.writelines((text.encode(), b"\n"))
        return
    with open(path, "w", encoding="utf-8") as fh:
        print(text, file=fh)


def _read_graph(args) -> OuterplanarStDigraph:
    return graph_from_json(_read_text(args.input))


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _solution_json(g: OuterplanarStDigraph, sol: CompletionSolution) -> str:
    names = json_scalars(g.names)
    cf, ch, xt, xh = names[sol.rec[:4]]
    records = {"completion_edge": (cf, ch), "crossed_edge": (xt, xh),
               "ordinal": json_scalars(sol.rec[4].tolist())}
    return json_object({
        "completion_edges": json_rows(tuple(names[sol.ce])),
        "crossings": json_scalars([sol.crossings])[0],
        "order": json_rows(names[sol.order]),
        "records": json_rows(records),
    })


def _named_edge(g, e):
    return None if e is None else [g.name(e[0]), g.name(e[1])]


def _cmd_check(args) -> int:
    g = _read_graph(args)
    payload = {
        "n": g.n,
        "edges": g.edge_count,
        "left": g.names_of(g.left_seq),
        "right": g.names_of(g.right_seq),
        "hamiltonian": is_hamiltonian(g),
    }
    _write_text(args.output, _dump(payload))
    return 0


def _cmd_decompose(args) -> int:
    g = _read_graph(args)
    elements = decompose(g)
    costs = iter(polygon_costs(g, elements.table)[0].tolist())
    out = []
    for el in elements:
        if isinstance(el, StPolygon):
            row = next(costs)
            out.append({
                "kind": "polygon",
                "source": g.name(el.source),
                "sink": g.name(el.sink),
                "left": g.names_of(el.left_vertices),
                "right": g.names_of(el.right_vertices),
                "median": _named_edge(g, el.median),
                "lower_limit": _named_edge(g, el.lower_limit),
                "upper_limit": _named_edge(g, el.upper_limit),
                "costs": {tag: None if math.isinf(c) else int(c)
                          for tag, c in zip(CHANNELS, row)},
            })
        else:
            out.append({"kind": "free", "vertex": g.name(el.vertex)})
    _write_text(args.output, _dump(out))
    return 0


def _solve_checked(g: OuterplanarStDigraph) -> CompletionSolution:
    sol = solve(g)
    probs = solution_problems(g, sol)
    if probs:
        raise InternalError("verify", "; ".join(probs))
    return sol


def _book_checked(g: OuterplanarStDigraph, sol: CompletionSolution):
    be = to_book_embedding(g, sol)
    probs = validate_book_embedding(be, g)
    if probs:
        raise InternalError("book", "; ".join(probs))
    return be


def _cmd_solve(args) -> int:
    g = _read_graph(args)
    sol = _solve_checked(g)
    _write_text(args.output, _solution_json(g, sol))
    if args.svg:
        _write_text(args.svg, render_svg(g, _book_checked(g, sol)))
    return 0


def _cmd_embed(args) -> int:
    g = _read_graph(args)
    be = _book_checked(g, _solve_checked(g))
    _write_text(args.output, book_to_json(g, be))
    if args.svg:
        _write_text(args.svg, render_svg(g, be))
    return 0


def _cmd_render(args) -> int:
    g = _read_graph(args)
    _write_text(args.output,
                render_svg(g, _book_checked(g, _solve_checked(g))))
    return 0


def _max_oracle(args) -> int:
    if args.max_oracle is not None:
        return args.max_oracle
    raw = os.environ.get("HPCC_MAX_ORACLE", str(_ORACLE_DEFAULT))
    try:
        return int(raw)
    except ValueError:
        raise BadOracleLimit(
            f"HPCC_MAX_ORACLE={raw!r} is not an integer") from None


def _cmd_oracle(args) -> int:
    g = _read_graph(args)
    best, witness = brute_force_optimal(g, max_vertices=_max_oracle(args))
    payload = {
        "crossings": None if math.isinf(best) else best,
        "order": None if witness is None else g.names_of(witness),
    }
    _write_text(args.output, _dump(payload))
    return 0


def _cmd_compare(args) -> int:
    g = _read_graph(args)
    sol = _solve_checked(g)
    best, _ = brute_force_optimal(g, max_vertices=_max_oracle(args))
    if sol.crossings != best:
        print(f"mismatch: solver found {sol.crossings} crossings, "
              f"oracle found {best}", file=sys.stderr)
        return 5
    _write_text(args.output, _dump({"crossings": best, "match": True}))
    return 0


def _cmd_gen(args) -> int:
    params = GeneratorParams(n=args.n, left_fraction=args.left_fraction,
                             chord_density=args.density, seed=args.seed)
    if args.count < 1:
        raise InfeasibleParams(f"count={args.count} is below the minimum of 1")
    if args.count == 1:
        _write_text(args.output, graph_to_json(generate(params)))
        return 0
    # each line is the compact form of the document gen --count 1 writes
    lines = [json.dumps(json.loads(graph_to_json(generate(
        dataclasses.replace(params, seed=params.seed + i)))),
        sort_keys=True, separators=(",", ":")) for i in range(args.count)]
    _write_text(args.output, "\n".join(lines))
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hpcc",
        description="Crossing-minimal acyclic hamiltonian completion of "
                    "outerplanar st-digraphs.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_, *, svg=False, oracle=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if name != "gen":
            p.add_argument("-i", "--input", default=None,
                           help="graph JSON file, default stdin")
        p.add_argument("-o", "--output", default=None,
                       help="output file, default stdout")
        if svg:
            p.add_argument("--svg", default=None,
                           help="also write an SVG rendering here")
        if oracle:
            p.add_argument("--max-oracle", type=int, default=None,
                           help="largest n to enumerate, default "
                                f"$HPCC_MAX_ORACLE or {_ORACLE_DEFAULT}")
        return p

    add("check", _cmd_check, "validate an instance and summarise it")
    add("decompose", _cmd_decompose, "print polygons, free vertices, costs")
    add("solve", _cmd_solve, "minimise crossings", svg=True)
    add("embed", _cmd_embed, "emit the two-page book embedding", svg=True)
    add("render", _cmd_render, "emit an SVG of the solved embedding")
    add("oracle", _cmd_oracle, "exhaustive minimum for small instances",
        oracle=True)
    add("compare", _cmd_compare, "solver against oracle", oracle=True)

    p = add("gen", _cmd_gen, "generate a random valid instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--left-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1,
                   help="emit this many instances as JSON lines")
    return top


def _report(text: str) -> None:
    # escape lone surrogates (a JSON name may hold one) as the process's
    # own stderr does, so that a caller's strict UTF-8 capture takes them
    print(text.encode(errors="backslashreplace").decode(), file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BadOracleLimit) as exc:
        _report(f"{type(exc).__name__}: {exc}")
        return 2
    except InstanceTooLarge as exc:
        _report(f"InstanceTooLarge: {exc}")
        return 4
    except (InternalError, InvalidSolution) as exc:
        import shlex    # only a failing run needs it
        stage = "" if isinstance(exc, InternalError) else "book: "
        stdin = args.input in (None, "-")
        _report(f"self-check failed in stage {stage}{exc}\nto reproduce: "
                + shlex.join(["python", "-m", "hpcc", *argv])
                + " with the same input on stdin" * stdin)
        return 1
    except (ValidationError, InfeasibleParams) as exc:
        _report(f"{type(exc).__name__}: {exc}")
        return 3
    except OSError as exc:
        _report(f"cannot read or write: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
