"""Digest of the CLI's output bytes over a fixed set of instances.

    python3 scripts/cli_digest.py [SRC]

Runs ``check``, ``decompose``, ``solve``, ``embed`` and ``embed --svg``
through ``hpcc.cli.main`` on every generator instance with n 4..9,
densities 0/0.3/0.7/1 and seeds 0..89, on generator instances of the
benchmark's one-polygon shape (density 0.3) with n 10^3, 10^4 and 10^5,
on the test fixtures (among them a deeply nested fan of one-sided
chords), on the benchmark's ladders of 8 rhombi (the shortest of seed 1
with all three junction kinds), of 40 rhombi at seeds 2..9, and of 10^3
and 10^4 rhombi, and on one malformed document per fault the reader names, plus
bad edges (a string, three names, a non-string endpoint, and a bad edge
beside a repeated side name) that pin which fault is named first.  For
each command it prints one sha256 over every run's output file, exit code
and standard error, and a ``book-read`` sha256 over
``book_to_json(g, book_from_json(g, out))`` for every ``embed`` output,
which compares the book readers of two trees.  The same six digests,
prefixed ``corpus``, cover the shapes of ``perfbench/corpus.py``'s
traffic beyond those: generator instances with n 2, 3 and 10..12 at the
four densities, seeds 0..29, and the ladders of 1 to 3 rhombi with
n <= 12 at seeds 0..79.  Two trees whose digests agree write the same
bytes.  SRC is the directory holding the ``hpcc`` package (default: this
checkout's ``src``); the instances always come from this checkout.  Needs
only the standard library and hpcc.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = (("check",), ("decompose",), ("solve",), ("embed",),
            ("embed", "--svg"))
READ = ("book-read",)
PATH = [["s", "a"], ["a", "b"], ["b", "t"], ["s", "r1"], ["r1", "t"]]
# (label, left, right, s, t, edges): one document per fault the reader names
MALFORMED = (
    ("repeated-side-name", ["a", "a"], ["r1"], "s", "t", PATH),
    ("s-inside-a-chain", ["a", "b"], ["s"], "s", "t", PATH),
    ("t-inside-a-chain", ["t", "b"], ["r1"], "s", "t", PATH),
    ("s-equals-t", ["a", "b"], ["r1"], "s", "s", PATH),
    ("unknown-vertex", ["a", "b"], ["r1"], "s", "t", PATH + [["a", "zz"]]),
    ("non-pair-edge", ["a", "b"], ["r1"], "s", "t", PATH + [["a"]]),
    ("two-sided-cycle", ["a"], ["r1", "r2"], "s", "t",
     [["s", "a"], ["a", "t"], ["s", "r1"], ["r1", "r2"], ["r2", "t"],
      ["r2", "a"], ["a", "r1"]]),
    # the reader's precedence among edge faults and the faults above
    ("string-edge", ["a", "b"], ["r1"], "s", "t", PATH + ["ab"]),
    ("three-name-edge", ["a", "b"], ["r1"], "s", "t",
     PATH + [["s", "a", "b"]]),
    ("number-endpoint", ["a", "b"], ["r1"], "s", "t", PATH + [["a", 5]]),
    ("null-endpoint", ["a", "b"], ["r1"], "s", "t", PATH + [[None, "b"]]),
    ("list-endpoint", ["a", "b"], ["r1"], "s", "t", PATH + [["a", ["b"]]]),
    ("bad-edge-and-repeated-side-name", ["a", "a"], ["r1"], "s", "t",
     PATH + [["a", 5]]),
)


def load(name: str, path: Path, **stubs):
    """Import the file at ``path``, with ``stubs`` standing in for modules."""
    saved = {k: sys.modules.get(k) for k in stubs}
    sys.modules.update(stubs)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod     # dataclasses resolve their module
        spec.loader.exec_module(mod)
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k)
            else:
                sys.modules[k] = v
    return mod


def instances(hpcc):
    """(label, instance document text) pairs."""
    for n in range(4, 10):
        for density in (0.0, 0.3, 0.7, 1.0):
            for seed in range(90):
                g = hpcc.generate(hpcc.GeneratorParams(
                    n=n, chord_density=density, seed=seed))
                yield f"gen-{n}-{density}-{seed}", hpcc.graph_to_json(g)
    for n in (10**3, 10**4, 10**5):
        g = hpcc.generate(hpcc.GeneratorParams(n=n, chord_density=0.3))
        yield f"gen-{n}-0.3-0", hpcc.graph_to_json(g)
    # the fixtures are plain functions marked by a stand-in pytest.fixture
    stub = types.ModuleType("pytest")
    stub.fixture = lambda fn: setattr(fn, "digest_fixture", True) or fn
    fixtures = load("digest_fixtures", ROOT / "tests" / "conftest.py",
                    pytest=stub)
    for name, fn in sorted(vars(fixtures).items()):
        if getattr(fn, "digest_fixture", False):
            yield f"fixture-{name}", hpcc.graph_to_json(fn())
    ladder = load("digest_ladder", ROOT / "perfbench" / "ladder.py")
    for rhombi, seed in [(8, 1), *((40, s) for s in range(2, 10)),
                         (10**3, 1), (10**4, 1)]:
        yield (f"ladder-{rhombi}-{seed}",
               json.dumps(ladder.ladder(rhombi, seed).doc))
    for label, left, right, s, t, edges in MALFORMED:
        yield f"malformed-{label}", json.dumps(
            {"left": left, "right": right, "s": s, "t": t, "edges": edges})


def corpus_instances(hpcc):
    """(label, instance document text) pairs of the corpus-shaped set."""
    for n in (2, 3, 10, 11, 12):
        for density in (0.0, 0.3, 0.7, 1.0):
            for seed in range(30):
                g = hpcc.generate(hpcc.GeneratorParams(
                    n=n, chord_density=density, seed=seed))
                yield f"gen-{n}-{density}-{seed}", hpcc.graph_to_json(g)
    ladder = load("digest_ladder", ROOT / "perfbench" / "ladder.py")
    for rhombi in (1, 2, 3):
        for seed in range(80):
            lad = ladder.ladder(rhombi, seed)
            if lad.n <= 12:
                yield f"ladder-{rhombi}-{seed}", json.dumps(lad.doc)


def digest(hpcc, pairs, tmp: Path) -> tuple[int, dict]:
    """(runs, sha256 per command) over the (label, text) pairs."""
    digests = {cmd: hashlib.sha256() for cmd in COMMANDS + (READ,)}
    runs = 0
    src, out, svg = (tmp / f for f in ("in.json", "out", "out.svg"))
    for label, text in pairs:
        src.write_text(text)
        for cmd in COMMANDS:
            args = [cmd[0], "-i", str(src), "-o", str(out)]
            if len(cmd) > 1:
                args += ["--svg", str(svg)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = hpcc.cli.main(args)
            h = digests[cmd]
            if cmd == ("embed",) and code == 0:
                g = hpcc.graph_from_json(text)
                be = hpcc.book_from_json(g, out.read_text())
                digests[READ].update(f"\0{label}\0".encode())
                digests[READ].update(hpcc.book_to_json(g, be).encode())
            for path in (out, svg) if len(cmd) > 1 else (out,):
                h.update(path.read_bytes() if path.exists() else b"-")
                path.unlink(missing_ok=True)
            h.update(f"\0{label}\0{code}\0{err.getvalue()}\0".encode())
        runs += 1
    return runs, digests


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    import hpcc
    import hpcc.cli

    with tempfile.TemporaryDirectory() as tmp:
        runs, digests = digest(hpcc, instances(hpcc), Path(tmp))
        more, corpus = digest(hpcc, corpus_instances(hpcc), Path(tmp))
    print(f"instances {runs} + corpus-shaped {more}, "
          f"hpcc from {Path(hpcc.__file__).parent}")
    for prefix, group in (("", digests), ("corpus ", corpus)):
        for cmd, h in group.items():
            print(f"{prefix + ' '.join(cmd):19s} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
