"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload once at a tiny size and requires every check to
pass, then hands each checker a corrupted copy of a real result (h0 off
by one, an Euler sum of 12k + 1, one real fiber too many, a search
result with the wrong h0) and requires it to be rejected by the check
named.  It checks the make-up of the search passes.  Last, it runs
the benchmark in a directory that holds only the benchmark and
requires it to fail without printing a result.  Exit code 0 when all
of this holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import run as bench

HERE = Path(__file__).resolve().parent

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejected_by(name: str, msgs: list) -> bool:
    return any(m.split(":", 1)[0] == name for m in msgs)


def tiny_run(workload: str) -> list:
    if workload == "search":
        ops = [
            {"workload": "search", "batch": 0, "stratum": f"k={k},h0={h0}", "k": k, "h0": h0, "verify": True}
            for k, h0 in ((1, 2), (2, 3))
        ]
    else:
        ops = inputs.make_passes(workload, 0, 1, 1)[0]
    workdir = bench.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, summary = bench.run_worker(workdir, time.monotonic() + bench.DEADLINE_S, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    done = list(zip(ops, summary["records"]))
    verified = {op["stratum"]: rec["output"] for op, rec in done}
    for op, rec in done:
        msgs = [rec["error"]] if rec["error"] else bench.check(op, rec["output"], verified)
        expect(not msgs, f"{workload} {op['stratum']} passes its checks {msgs or ''}")
    return done


def corrupted_reports(done: list) -> None:
    op, rec = next(
        (op, rec)
        for op, rec in done
        if '"arcs"' in rec["output"] and any(f["is_real"] for f in json.loads(rec["output"])["fibers"])
    )
    doc, good = op["doc"], json.loads(rec["output"])

    bad = copy.deepcopy(good)
    bad["topology"]["h0"] += 1
    expect(rejected_by("chi", checks.check_report(doc, json.dumps(bad))), "report: h0 off by one")

    bad = copy.deepcopy(good)
    next(f for f in bad["fibers"] if f["is_real"])["euler"] += 1
    expect(rejected_by("euler_sum", checks.check_report(doc, json.dumps(bad))), "report: Euler sum 12k + 1")

    bad = copy.deepcopy(good)
    bad["fibers"].append(next(f for f in good["fibers"] if f["is_real"]))
    expect(
        rejected_by("real_fibers", checks.check_report(doc, json.dumps(bad))),
        "report: one real fiber too many",
    )


def corrupted_crosschecks(done: list) -> None:
    op, rec = done[0]
    bad = dict(rec["output"], cuts=rec["output"]["cuts"] + 1)
    expect(
        rejected_by("real_fibers", checks.check_crosscheck(op["doc"], bad)),
        "crosscheck: one cut slice too many",
    )
    bad = dict(rec["output"], h0=rec["output"]["h0"] + 1)
    expect(rejected_by("chi", checks.check_crosscheck(op["doc"], bad)), "crosscheck: h0 off by one")


def corrupted_searches(done: list) -> None:
    op, rec = done[0]
    msgs = checks.check_search(op["k"], op["h0"] + 1, rec["output"])
    expect(rejected_by("oracle_h0", msgs), "search: result with the wrong h0")


def search_passes() -> None:
    """No search pass repeats a target; the k = 3 targets run in every other pass."""
    plan = inputs.make_passes("search", 1, bench.PASSES, 0)
    strata = [[op["stratum"] for op in ops] for ops in plan]
    expect(
        len(plan) == 2 * bench.PASSES - 1 and all(len(set(s)) == len(s) for s in strata),
        "search: 2 * passes - 1 passes, none repeating a target",
    )
    expect(
        [any(st.startswith("k=3") for st in s) for s in strata] == [i % 2 == 0 for i in range(len(plan))],
        "search: whole target list in passes 1, 3, 5, only k <= 2 between",
    )


def bare_directory() -> None:
    """Without src/ the benchmark must fail and print no result."""
    bare = bench.OUT / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"a directory without src/ fails (exit {proc.returncode})",
    )


def main() -> int:
    corrupted_reports(tiny_run("report"))
    corrupted_crosschecks(tiny_run("crosscheck"))
    corrupted_searches(tiny_run("search"))
    search_passes()
    bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
