"""hpcc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload single --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program under test is ``src/hpcc`` of
the same checkout; without it the benchmark exits with code 2.  With
``--trace 0`` each operation is a child process (``python -m hpcc solve``
or ``embed``, or for ``corpus`` one instance inside one child) and the
end-to-end metrics are printed.  With ``--trace 1`` the operations run
in-process under the span recorder and the per-layer metrics are printed.
The last line of standard output is the result as one JSON object; the
full record, with the environment and inputs, goes to
``.bench_build/perfbench/results``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from spans import ROOT as ROOT_SPAN, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 7
MIN_OPS = 3
# a run must end within 180 s: no operation starts after WALL_CAP_S of
# measuring, and a child is killed after OP_TIMEOUT_S
WALL_CAP_S = 60
OP_TIMEOUT_S = 90

END_TO_END = {"op_s": "s", "vertices_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}
COUNTS = ("input.n", "input.edges", "input.bytes", "output.bytes",
          "decompose.polygons", "decompose.free_vertices",
          "decompose.junctions_vertex", "decompose.junctions_edge",
          "decompose.junctions_gap", "crossings.completion_edges",
          "crossings.total", "crossings.max_per_edge",
          "crossings.useful_scan_ratio", "book.segments")
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **dict.fromkeys(COUNTS, "count"),
    "input.bytes": "bytes", "output.bytes": "bytes",
    "crossings.useful_scan_ratio": "ratio",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cwd: Path, timeout: float = OP_TIMEOUT_S):
    """Run one child to exit: (wall seconds, exit code, max RSS in KiB)."""
    with open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss


def stderr_tail(cwd: Path) -> str:
    return (cwd / "stderr.txt").read_text(errors="replace").strip()[-300:]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Outputs:
    """Checks each CLI output; identical bytes reuse the first verdict."""

    def __init__(self, wl, hpcc, checks):
        self.wl, self.hpcc, self.checks = wl, hpcc, checks
        self.first = None
        self.verdict = None

    def check(self, path: Path):
        try:
            data = path.read_bytes()
        except OSError as exc:
            return [f"no output: {exc}"]
        if self.first is not None:
            if data != self.first:
                return ["output bytes differ from the run's first output"]
            return self.verdict[0]
        self.first = data
        check = (self.checks.check_solve if self.wl.command == "solve"
                 else self.checks.check_embed)
        try:
            probs, counts = check(self.wl.inst, data, self.wl.reference)
            if self.wl.command == "embed":
                probs += self.validate_book(data)
        except (ValueError, KeyError, TypeError) as exc:
            probs, counts = [f"unreadable output: {exc!r}"], {}
        counts["output.bytes"] = len(data)
        self.verdict = (probs, counts)
        return probs

    def validate_book(self, data: bytes) -> list[str]:
        g = self.hpcc.graph_from_json(self.wl.input_path.read_text())
        be = self.hpcc.book_from_json(g, data.decode())
        return self.hpcc.validate_book_embedding(be, g)


def measure_setup(work: Path) -> float:
    argv = [sys.executable, "-m", "hpcc", "--help"]
    spawn(argv, work)  # compiles the bytecode once
    return statistics.median(spawn(argv, work)[0]
                             for _ in range(SETUP_SAMPLES))


def measure_cli(wl, seconds, work, hpcc, checks):
    out = work / "out.json"
    argv = [sys.executable, "-m", "hpcc", wl.command,
            "-i", str(wl.input_path), "-o", str(out)]
    outputs = Outputs(wl, hpcc, checks)
    times, rss, failures = [], [], []
    solved = 0
    start = time.perf_counter()
    while (sum(times) < seconds or len(times) < MIN_OPS) \
            and time.perf_counter() - start < WALL_CAP_S:
        out.unlink(missing_ok=True)
        dt, code, maxrss = spawn(argv, work)
        times.append(dt)
        rss.append(maxrss)
        probs = (outputs.check(out) if code == 0
                 else [f"exit code {code}: {stderr_tail(work)}"])
        if probs:
            failures.append(f"op {len(times)}: " + "; ".join(probs))
        else:
            solved += wl.inputs["input.n"]
    return times, max(rss) / 1024, solved, failures


def measure_corpus(wl, seconds, work):
    res = work / "corpus.json"
    argv = [sys.executable, str(HERE / "corpus.py"), str(wl.input_path),
            str(res), "--seconds", str(seconds)]
    _, code, maxrss = spawn(argv, work, timeout=seconds + OP_TIMEOUT_S)
    if code != 0:
        return [], maxrss / 1024, 0, [f"corpus child exit code {code}: "
                                      f"{stderr_tail(work)}"]
    data = json.loads(res.read_text())
    return data["times"], maxrss / 1024, data["vertices"], data["failures"]


def end_to_end(args, wl, work, hpcc, checks):
    setup = measure_setup(work)
    if wl.command is None:
        times, peak, solved, failures = measure_corpus(wl, args.seconds, work)
    else:
        times, peak, solved, failures = measure_cli(
            wl, args.seconds, work, hpcc, checks)
    if not times:
        return {}, 1, failures, {}
    metrics = {"op_s": statistics.median(times),
               "vertices_per_s": solved / sum(times),
               "peak_rss_mb": peak,
               "setup_s": setup}
    # recorded, not a result metric: below ~1,000 operations (every CLI
    # workload) it is just the slowest one, and it is noise-bound anyway
    extra = {"op_p99_s": statistics.quantiles(
        times, n=100, method="inclusive")[98]}
    return metrics, len(times), failures, extra


def decomposition_counts(hpcc, g) -> dict:
    els = hpcc.decompose(g)
    polys = [el for el in els if isinstance(el, hpcc.StPolygon)]
    kinds = dict.fromkeys(("vertex", "edge", "gap"), 0)
    for prev, nxt in zip(polys, polys[1:]):
        if prev.sink == nxt.source:
            kinds["vertex"] += 1
        elif nxt.lower_limit == (nxt.source, prev.sink):
            kinds["edge"] += 1
        else:
            kinds["gap"] += 1
    return {"decompose.polygons": len(polys),
            "decompose.free_vertices": len(els) - len(polys),
            **{f"decompose.junctions_{k}": v for k, v in kinds.items()}}


def traced(args, wl, work, hpcc, checks):
    """Alternate untraced and traced in-process operations."""
    import corpus

    # keep the benchmark's own objects out of the collector's timed passes
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    plain, spanned, failures = [], [], []
    count_rows = []
    if wl.command is None:
        root_name = "corpus.instance"
        items = wl.items

        def op(k):
            return corpus.run_instance(items[k % len(items)][0]["text"])

        def check(k, result):
            item, inst = items[k % len(items)]
            probs = corpus.check_instance(item, inst, result)
            g, sol, be = result[:3]
            count_rows.append({
                **decomposition_counts(hpcc, g),
                "output.bytes": len(hpcc.book_to_json(g, be)),
                "crossings.completion_edges": len(sol.completion_edges),
                "crossings.total": sol.crossings,
                "crossings.max_per_edge": max(
                    (len(d.spine_crossings) for d in be.drawings), default=0),
                "book.segments": sum(len(d.segments) for d in be.drawings)})
            return probs
    else:
        root_name = ROOT_SPAN
        out = work / "out.json"
        argv = [wl.command, "-i", str(wl.input_path), "-o", str(out)]
        outputs = Outputs(wl, hpcc, checks)

        def op(k):
            return hpcc.cli.main(argv)

        def check(k, code):
            probs = outputs.check(out) if code == 0 else [f"exit code {code}"]
            out.unlink(missing_ok=True)
            return probs

    k = 0
    start = time.perf_counter()
    while (sum(plain) + sum(spanned) < args.seconds or not spanned) \
            and time.perf_counter() - start < WALL_CAP_S:
        # swap which goes first, so a cold first call hits both sides
        for timings in (plain, spanned)[::1 if k % 2 == 0 else -1]:
            on = timings is spanned
            if on:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = tracer.run_op(root_name, op, k) if on else op(k)
            except Exception as exc:  # a failed operation is counted
                result, probs = None, [f"{type(exc).__name__}: {exc}"]
            finally:
                timings.append(time.perf_counter() - t0)
                if on:
                    tracer.uninstall()
            if result is not None:
                probs = check(k, result)
            if probs:
                failures.append(f"op {k} ({'traced' if on else 'plain'}): "
                                + "; ".join(probs))
        k += 1

    per_op, roots = tracer.self_times()
    for op_id, row in per_op.items():
        if sum(ns for ns, _ in row.values()) != roots[op_id]:
            failures.append(f"op {op_id}: self times do not add up to the "
                            f"root span")
    ops = len(spanned)
    metrics = {}
    for name in SPAN_NAMES:
        ns = sum(row[name][0] for row in per_op.values() if name in row)
        calls = sum(row[name][1] for row in per_op.values() if name in row)
        metrics[f"{name}.self_s"] = ns / ops / 1e9
        metrics[f"{name}.calls"] = calls / ops
    scans = metrics["crossings.scan_order.calls"]
    metrics["crossings.useful_scan_ratio"] = 1 / scans if scans else 0.0
    metrics["trace.overhead_s"] = (statistics.median(spanned)
                                   - statistics.median(plain))
    metrics.update(wl.inputs)
    if wl.command is None:
        for key in count_rows[0] if count_rows else ():
            metrics[key] = sum(r[key] for r in count_rows) / len(count_rows)
    else:
        g = hpcc.graph_from_json(wl.input_path.read_text())
        metrics.update(decomposition_counts(hpcc, g))
        if outputs.verdict is not None:
            metrics.update(outputs.verdict[1])
    tracer.write(OUT / "results" / f"spans-{args.workload}-seed{args.seed}.json")
    extra = {"absent_layers": tracer.absent,
             "traced_ops": ops, "untraced_ops": len(plain)}
    return metrics, len(plain) + ops, failures, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hpcc" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'hpcc'} is missing; run from the root of "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import hpcc
    import hpcc.cli
    import checks
    import workloads

    if Path(hpcc.__file__).resolve().parent != SRC / "hpcc":
        print(f"perfbench: imported hpcc from {hpcc.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    inputs, metrics, attempted, extra = {}, {}, 1, {}
    try:
        wl = workloads.build(args.workload, args.seed, work)
        inputs = wl.inputs
        run = traced if args.trace else end_to_end
        metrics, attempted, failures, extra = run(args, wl, work, hpcc, checks)
    except Exception as exc:  # the program under test failed at set-up
        traceback.print_exc()
        failures = [f"set-up failed: {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = min(len(failures), attempted)

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "nproc": len(os.sched_getaffinity(0)),
                        "commit": git_commit()},
        "inputs": inputs,
        "error_rate": failed / attempted,
        "failures": failures[:20], **extra,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1))

    for k, m in record["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    if "op_p99_s" in extra:
        print(f"{'op_p99_s':40s} {extra['op_p99_s']:.6g} s (recorded only)")
    print(f"{'error_rate':40s} {record['error_rate']:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for f in failures[:5]:
        print(f"failure: {f}")
    print(json.dumps({k: record[k] for k in ("environment", "inputs")}))
    print(json.dumps({"correct": not failures and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
