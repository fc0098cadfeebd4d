"""Randomized checking of the theorem-backed invariants.

Random integer Weierstrass data is drawn with a height bound, rejected
until valid, and pushed through classification, the Betti pipeline, the
twist duality, the bound checks and (on a deterministic subsample) the
cell-complex oracle and an I0* step.  Any failed invariant is a fatal
finding and is reported with the offending triple document, because the
properties tested here are theorems, not heuristics.

Everything is driven by an explicit seed; two runs with equal arguments
produce identical results, including the sampled triples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .binform import BinForm
from .documents import triple_to_document
from .oracle import OracleDisagreement, compare
from .topology import NotRealGeneric, check_bounds
from .transforms import (
    InvalidI0StarParams,
    i0star_transform,
    make_params,
    twist,
    verify_i0star,
)
from .weierstrass import WeierstrassError, WeierstrassTriple, validate


def random_form(rng: random.Random, degree: int, height: int) -> BinForm:
    return BinForm.make(degree, [rng.randint(-height, height) for _ in range(degree + 1)])


def random_valid_triple(rng: random.Random, k: int, height: int = 9) -> WeierstrassTriple:
    """Rejection-sample a valid triple with integer coefficients; 200 draws at most."""
    for _ in range(200):
        p = random_form(rng, 4 * k, height)
        q = random_form(rng, 6 * k, height)
        try:
            return validate(k, p, q)
        except WeierstrassError:
            continue
    raise RuntimeError("could not sample a valid triple within the retry budget")


@dataclass
class FuzzSummary:
    k: int
    trials: int
    seed: int
    histogram: Dict[Tuple[int, int], int] = field(default_factory=dict)
    non_generic: int = 0
    oracle_checked: int = 0
    i0star_checked: int = 0
    violations: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> List[str]:
        out = [
            f"fuzz k={self.k} trials={self.trials} seed={self.seed}",
            f"non_generic={self.non_generic} oracle_checked={self.oracle_checked} "
            f"i0star_checked={self.i0star_checked} violations={len(self.violations)}",
            "histogram (h0, h1): count",
        ]
        for (h0, h1), cnt in sorted(self.histogram.items()):
            out.append(f"  ({h0}, {h1}): {cnt}")
        for v in self.violations:
            out.append(f"VIOLATION[{v['kind']}]: {v['detail']}")
        return out


def _record_violation(summary: FuzzSummary, kind: str, detail: str, t: WeierstrassTriple) -> None:
    summary.violations.append(
        {"kind": kind, "detail": detail, "triple": triple_to_document(t)}
    )


# every this many trials an I0* step is tried and verified
I0STAR_EVERY = 25


def run_fuzz(
    k: int,
    trials: int,
    seed: int,
    height: int = 9,
    oracle_every: int = 10,
) -> FuzzSummary:
    """The full fuzz pass; deterministic in all arguments."""
    rng = random.Random(seed)
    summary = FuzzSummary(k=k, trials=trials, seed=seed)
    for index in range(trials):
        t = random_valid_triple(rng, k, height)
        try:
            t.fibers  # classified apart from betti: its own violation kind
        except AssertionError as exc:
            _record_violation(summary, "euler-sum", str(exc), t)
            continue

        try:
            report = t.topology
        except NotRealGeneric:
            summary.non_generic += 1
            continue
        except AssertionError as exc:
            _record_violation(summary, "betti-consistency", str(exc), t)
            continue

        key = (report.h0, report.h1)
        summary.histogram[key] = summary.histogram.get(key, 0) + 1

        bounds = check_bounds(report, k)
        if not bounds.all_ok:
            _record_violation(
                summary,
                "bounds",
                f"h0={report.h0} h1={report.h1} k={k}: {bounds}",
                t,
            )

        try:
            report2 = twist(t).topology
        except (NotRealGeneric, AssertionError) as exc:
            _record_violation(summary, "twist-betti", str(exc), t)
            continue
        duality_ok = (
            report2.h1 == 2 * report.h0
            and 2 * report2.h0 == report.h1
            and report2.chi_top == -report.chi_top
            and report2.h_star == report.h_star
        )
        if not duality_ok:
            _record_violation(
                summary,
                "twist-duality",
                f"(h0,h1,chi)={report.h0, report.h1, report.chi_top} vs "
                f"twist {report2.h0, report2.h1, report2.chi_top}",
                t,
            )

        if oracle_every and index % oracle_every == 0:
            try:
                compare(t)
                summary.oracle_checked += 1
            except OracleDisagreement as exc:
                _record_violation(summary, "oracle", str(exc), t)

        if index % I0STAR_EVERY == 0:
            done = _try_i0star(summary, rng, t)
            if done:
                summary.i0star_checked += 1
    return summary


def _try_i0star(summary: FuzzSummary, rng: random.Random, t: WeierstrassTriple) -> bool:
    """One random I0* step with its full verification; False when no
    admissible center pair was found nearby."""
    candidates = [Fraction(n, d) for n in range(-12, 13) for d in (1, 2)]
    rng.shuffle(candidates)
    for i in range(len(candidates) - 1):
        a, b = candidates[i], candidates[i + 1]
        if a == b:
            continue
        try:
            params = make_params(t, a, b)
        except InvalidI0StarParams:
            continue
        t_y = i0star_transform(t, params)
        ver = verify_i0star(t, params, t_y)
        if not ver.ok:
            _record_violation(
                summary,
                "i0star",
                "; ".join(f"{c.name}: {c.detail}" for c in ver.failures()),
                t,
            )
        return True
    return False
