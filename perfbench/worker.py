"""One pass of a workload in a fresh process: the program under test runs here.

The process imports ellsurf from the checkout's src/, runs one warm-up
surface (which loads sympy, imported lazily on the first factorization),
prints "ready" so the parent can time set-up, then runs its operations
one at a time and writes every result and wall time to a JSON file.
Only the call into ellsurf is timed; turning results into JSON and the
extra program calls the search checks need run after the clock stops.
Before each operation, untimed, sympy's cache is cleared and garbage is
collected, so that every operation starts from the same state, as a
fresh `ellsurf` process would, whatever ran before it in the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import ellsurf  # noqa: E402
from ellsurf import cli, documents, oracle, topology, transforms  # noqa: E402
from ellsurf.roots import InfinityPoint  # noqa: E402

from tracer import Tracer  # noqa: E402

# The worked fixture W1: p = -3v^4, q = 2v^6 + (u^2 - v^2)(u^2 - 4v^2)(u^2 - 9v^2).
W1 = {"k": 1, "p": ["-3", "0", "0", "0", "0"], "q": ["-34", "0", "49", "0", "-14", "0", "1"]}


# The run_* functions look the program's entry points up at call time, so
# that a traced run calls the wrappers the tracer installed.
def run_report(path: str):
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(["report", path, "--json"], prog_name="ellsurf", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError(f"ellsurf report exited with {code}")
    return buf.getvalue()


def run_crosscheck(t):
    return oracle.compare(t)


def run_search(k: int, h0: int):
    # the budget `ellsurf search` uses by default
    return transforms.search_extremal(k, h0, transforms.SearchBudget(max_candidates=128, rng_seed=0))


def reset_state() -> None:
    """Forget what earlier operations left behind: sympy's cache and garbage."""
    cache = sys.modules.get("sympy.core.cache")
    if cache is not None:
        cache.clear_cache()
    gc.collect()


def _point_text(pt) -> str:
    if isinstance(pt, InfinityPoint):
        return "inf"
    return documents.format_rational(pt.value)


def crosscheck_result(agreement) -> dict:
    res = agreement.oracle
    return {
        "h0": agreement.h0,
        "h1": agreement.h1,
        "chi": agreement.chi,
        "V": res.vertices,
        "E": res.edges,
        "F": res.faces,
        "cuts": sum(1 for s in res.slices if s.kind == "cut"),
        "samples": [[_point_text(s.point), len(s.comps)] for s in res.slices if s.kind == "sample"],
    }


def search_result(result, verify: bool) -> dict:
    out = {"found": result.found, "candidates": result.candidates_tried, "reason": result.reason}
    if result.found:
        out["triple"] = documents.triple_to_document(result.triple)
    if result.found and verify:
        out["oracle_h0"] = oracle.oracle_topology(result.triple).h0
        out["twist_h1"] = topology.betti(transforms.twist(result.triple)).h1
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True, help="scratch directory the parent removes")
    ap.add_argument("--ops", help="JSON list of operations; omitted for a set-up probe")
    ap.add_argument("--results")
    ap.add_argument("--budget", type=float, default=0.0, help="timed seconds; 0 runs every op")
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args()

    if Path(ellsurf.__file__).resolve().parent != SRC / "ellsurf":
        print(f"ellsurf imported from {ellsurf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w1_path = os.path.join(args.workdir, f"w1-{os.getpid()}.json")
    with open(w1_path, "w", encoding="utf-8") as fh:
        json.dump(W1, fh)
    run_report(w1_path)
    run_crosscheck(documents.load_triple(w1_path))
    print("ready", flush=True)
    if args.ops is None:
        return 0

    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)
    calls = []
    for i, op in enumerate(ops):
        if op["workload"] == "report":
            path = os.path.join(args.workdir, f"op-{os.getpid()}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op["doc"], fh)
            calls.append((run_report, (path,)))
        elif op["workload"] == "crosscheck":
            calls.append((run_crosscheck, (documents.triple_from_document(op["doc"]),)))
        else:
            calls.append((run_search, (op["k"], op["h0"])))

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    records = []
    timed = 0.0
    for i, (op, (fn, fn_args)) in enumerate(zip(ops, calls)):
        if args.budget and timed >= args.budget and op["batch"] != ops[i - 1]["batch"]:
            break
        reset_state()
        if tracer:
            tracer.begin_op(i, f"op.{op['workload']}")
        error = None
        start = time.perf_counter()
        try:
            out = fn(*fn_args)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end_op()
        timed += seconds
        if error is None and op["workload"] == "crosscheck":
            out = crosscheck_result(out)
        elif error is None and op["workload"] == "search":
            out = search_result(out, op["verify"])
        records.append({"seconds": seconds, "output": out, "error": error})

    summary = {
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.totals() if tracer else None,
        "spans": len(tracer.span_name) if tracer else 0,
    }
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    if tracer:
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
