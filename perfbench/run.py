"""Benchmark of ellsurf's report, crosscheck and search workloads.

    python3 perfbench/run.py --workload report --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  One caller runs one operation at a
time (a closed loop).  With --trace 0 the run makes two set-up probes
and three passes (five for search, two of them over its cheaper
targets only), each a fresh worker process, checks every result and
prints the end-to-end metrics.  With --trace 1 it makes one traced pass
over a fixed set of operations, so its call counts repeat exactly, and
prints the per-layer metrics.  The last line of standard output is a
JSON object with keys correct, attempted, failed and metrics.  Details
of each run, and the spans of a traced run, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("report", "crosscheck", "search")
PASSES = 3
PROBES = 2
# Batches per pass available to report and crosscheck; a pass normally
# stops on its time budget long before these run out.  A search pass
# always runs every target it holds.
CORPUS_BATCHES = {"report": 32, "crosscheck": 16}
# The traced run's fixed work, one pass of this many batches.
TRACE_BATCHES = {"report": 8, "crosscheck": 4}
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def run_worker(workdir: Path, deadline: float, ops=None, budget=0.0, spans=None):
    """Start a worker; return (set-up seconds, its summary or None for a probe)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir)]
    results = None
    if ops is not None:
        tag = f"pass-{time.monotonic_ns()}"
        ops_path = workdir / f"{tag}.ops.json"
        results = workdir / f"{tag}.results.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        cmd += ["--ops", str(ops_path), "--results", str(results), "--budget", str(budget)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.communicate(timeout=_remaining(deadline))
        code = proc.returncode
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran out of time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"worker failed (exit {code})")
    if results is None:
        return setup, None
    return setup, json.loads(results.read_text(encoding="utf-8"))


def check(op: dict, output, verified: dict) -> list:
    if op["workload"] == "report":
        return checks.check_report(op["doc"], output)
    if op["workload"] == "crosscheck":
        return checks.check_crosscheck(op["doc"], output)
    if not op["verify"]:
        first = verified.get(op["stratum"])
        if first is None or first.get("triple") != output.get("triple"):
            return [f"repeat: the search for {op['stratum']} differs from its verified pass"]
        output = first
    return checks.check_search(op["k"], op["h0"], output)


def ops_per_s(times_by_stratum: dict, weights: dict) -> float:
    """Operations per second, each wall time replaced by its stratum's median.

    A stratum is a k for report and crosscheck and a target for search;
    `weights` gives each stratum's share of the operations: its count,
    or one per target for search, whose targets run 3 or 5 times.  Runs
    stop between whole batches, so the strata keep their shares of the
    operations, and one slow stretch of the machine moves a stratum's
    median only where it covers half of that stratum's operations.
    """
    return sum(weights.values()) / sum(
        w * statistics.median(times_by_stratum[s]) for s, w in weights.items()
    )


def op_ms_p50(workload: str, times_by_stratum: dict) -> float:
    """Median wall time of one operation, in ms.

    report and crosscheck: the median of all operations.  search: the
    median over the targets of each target's median, so that every
    target counts once however often it ran, and the middle target's
    samples from the whole run decide the figure.
    """
    if workload == "search":
        times = [statistics.median(ts) for ts in times_by_stratum.values()]
    else:
        times = [t for ts in times_by_stratum.values() for t in ts]
    return 1000 * statistics.median(times)


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    passes = 1 if args.trace else PASSES
    batches = (TRACE_BATCHES if args.trace else CORPUS_BATCHES).get(args.workload, 0)
    plan = inputs.make_passes(args.workload, args.seed, passes, batches)
    budget = 0.0 if args.trace else args.seconds / PASSES

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz" if args.trace else None
    try:
        setups = []
        if not args.trace:
            for _ in range(PROBES):
                setups.append(run_worker(workdir, deadline)[0])
        done, summaries = [], []
        for ops in plan:
            setup, summary = run_worker(workdir, deadline, ops, budget, spans)
            setups.append(setup)
            summaries.append(summary)
            done.extend(zip(ops, summary["records"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verified = {
        op["stratum"]: rec["output"]
        for op, rec in done
        if op.get("verify") and rec["error"] is None
    }
    failures = {}
    errors = []
    times = {}
    for op, rec in done:
        if rec["error"] is not None:
            errors.append(f"{op['stratum']}: {rec['error']}")
            continue
        for msg in check(op, rec["output"], verified):
            failures.setdefault(msg.split(":", 1)[0], []).append(f"{op['stratum']}: {msg}")
        times.setdefault(op["stratum"], []).append(rec["seconds"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": setups,
        "ops_per_stratum": {s: len(ts) for s, ts in sorted(times.items())},
        "median_ms_per_stratum": {
            s: 1000 * statistics.median(ts) for s, ts in sorted(times.items())
        },
        "timed_s": sum(sum(ts) for ts in times.values()),
        "ops": [
            [op["stratum"], op["batch"], rec["seconds"]]
            for op, rec in done
            if rec["error"] is None
        ],
        "failures": {name: msgs[:5] for name, msgs in failures.items()},
        "errors": errors[:5],
    }
    if not times:
        raise BenchError("no operation completed")
    weights = {s: 1 if args.workload == "search" else len(ts) for s, ts in times.items()}
    e2e = {
        "ops_per_s": {"value": ops_per_s(times, weights), "unit": "1/s"},
        "op_ms_p50": {"value": op_ms_p50(args.workload, times), "unit": "ms"},
        "peak_rss_mb": {
            "value": max(s["maxrss_kb"] for s in summaries) / 1024,
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    if args.trace:
        totals = summaries[0]["layers"]
        metrics = {}
        for module, function in tracer.LAYER_FUNCTIONS:
            name = tracer.layer_name(module, function)
            got = totals.get(name, {"calls": 0, "self_s": 0.0})
            metrics[f"{name}.calls"] = {"value": got["calls"], "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": got["self_s"], "unit": "s"}
        metrics["transforms.search_extremal.candidates"] = {
            "value": sum(
                rec["output"]["candidates"]
                for op, rec in done
                if op["workload"] == "search" and rec["error"] is None
            ),
            "unit": "count",
        }
        detail["traced_ops_per_s"] = e2e["ops_per_s"]["value"]
        detail["spans"] = summaries[0]["spans"]
        detail["op_self_s"] = {n: v["self_s"] for n, v in totals.items() if n.startswith("op.")}
    else:
        metrics = e2e
    detail["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    env = detail["environment"]
    print(
        f"environment: python {env['python']}, sympy {env['sympy']} "
        f"(ground types {env['sympy_ground_types']}), nproc {env['nproc']}"
    )
    print(
        f"{args.workload}: attempted {len(done)}, failed {len(errors)}, "
        f"checks {'passed' if not failures else 'FAILED: ' + ', '.join(sorted(failures))}"
    )
    for msg in errors[:3] + [m for msgs in failures.values() for m in msgs[:3]]:
        print(f"  {msg}")
    if args.trace:
        print(f"traced ops_per_s {detail['traced_ops_per_s']:.4f} 1/s, {detail['spans']} spans")
    else:
        for m, v in metrics.items():
            print(f"{m} {v['value']:.6g} {v['unit']}")
    print(f"details in {OUT / name}")
    return {
        "correct": not failures,
        "attempted": len(done),
        "failed": len(errors),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ellsurf" / "__init__.py").is_file():
        print(f"no ellsurf sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
