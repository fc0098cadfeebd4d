"""Surface transformations: the twist, the I0* step, and extremal search.

The twist (p, q) -> (p, -q) changes the real structure only: the
discriminant is untouched, all complex fiber data survives, and every
real nodal type flips.  The I0* step multiplies p by r^2 and q by r^3
for r = (u - a v)(u - b v), which adds two I0* fibers at a and b, raises
k by one, multiplies the discriminant by r^6, and flips exactly the
real nodal fibers sitting strictly between a and b.

The search constructs surfaces attaining a prescribed number of real
components via the steerable family

    p = -3 g^2,  q = 2 g^3 + eps h,  Delta = 27 eps h (eps h + 4 g^3),

whose real singular points split into roots of h and of eps*h + 4g^3
with nodal signs controlled by the sign of g.  Candidates are verified
end to end (validation, classification, topology, oracle agreement)
before being returned.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .binform import BinForm
from .oracle import OracleDisagreement, compare, oracle_topology
from .roots import (
    CirclePoint,
    InfinityPoint,
    compare_with_rational,
    finite,
    sign_at,
)
from .topology import (
    CheckItem,
    NotRealGeneric,
    RealTopologyReport,
    Verification,
    _nodal_type_unchecked,
    check_bounds,
    twist_duality,
)
from .weierstrass import (
    SurfaceInvariants,
    WeierstrassError,
    WeierstrassTriple,
    normalize,
    validate,
)


def twist(t: WeierstrassTriple) -> WeierstrassTriple:
    """(p, q) -> (p, -q): same complex surface, conjugate real structure.

    Delta = 4p^3 + 27q^2 is unchanged, and the orders at the common
    roots of p and q (pq_orders, from gcds and Yun decompositions
    normalized to lc > 0) and the fiber reports do not see the sign of
    q: the twisted triple takes over whichever of them t has built.
    Its topology, which does, is built anew.
    """
    out = WeierstrassTriple(t.k, t.p, -t.q)
    # cached_property reads its value from the instance dict first
    for name in ("delta", "pq_orders", "fibers"):
        if name in t.__dict__:
            out.__dict__[name] = t.__dict__[name]
    return out


class InvalidI0StarParams(ValueError):
    pass


@dataclass(frozen=True)
class I0StarParams:
    """Twist centers a < b; both must avoid the zeros of p, q and Delta.

    Build via make_params, which checks the constraints against a triple
    and normalizes the order.
    """

    a: Fraction
    b: Fraction


def make_params(t: WeierstrassTriple, a, b) -> I0StarParams:
    a, b = Fraction(a), Fraction(b)
    if a == b:
        raise InvalidI0StarParams("centers must be distinct")
    if a > b:
        a, b = b, a
    for x in (a, b):
        pt = finite(x)
        for name, form in (("p", t.p), ("q", t.q), ("Delta", t.delta)):
            if form.is_zero:
                continue
            if sign_at(form, pt) == 0:
                raise InvalidI0StarParams(f"{name} vanishes at the center u = {x}")
    return I0StarParams(a, b)


def i0star_transform(t: WeierstrassTriple, params: I0StarParams) -> WeierstrassTriple:
    """Multiply (p, q) by (r^2, r^3) for r = (u - a v)(u - b v); k goes up by 1."""
    r = BinForm.from_linear_roots([params.a, params.b])
    out = validate(t.k + 1, r ** 2 * t.p, r ** 3 * t.q)
    return out


# ---------------------------------------------------------------------------
# verification of the twist and of the I0* step


def verify_twist(t: WeierstrassTriple, t_twisted: WeierstrassTriple) -> Verification:
    """Check the twist's contract on t_twisted, computed apart from twist.

    - 4p'^3 + 27q'^2, built from the twisted p and q, equals Delta(t);
    - twist_duality on the oracle's (h0, h1, chi) of both sides.  It
      does not apply when some real singular fiber is not nodal, and
      fails when the oracle refuses a slice.
    """
    rebuilt = 4 * t_twisted.p ** 3 + 27 * t_twisted.q ** 2
    checks = [
        CheckItem(
            "discriminant_unchanged",
            rebuilt == t.delta,
            "4p'^3 + 27q'^2 == Delta of the input",
        )
    ]
    try:
        before, after = oracle_topology(t), oracle_topology(t_twisted)
    except NotRealGeneric as exc:
        checks.append(CheckItem("twist_duality", None, str(exc)))
    except OracleDisagreement as exc:
        checks.append(CheckItem("twist_duality", False, f"oracle refused: {exc}"))
    else:
        checks.append(
            CheckItem(
                "twist_duality",
                twist_duality(before.triple(), after.triple()),
                f"(h0, h1, chi): {before.triple()} -> {after.triple()}",
            )
        )
    return Verification(tuple(checks))


def verify_i0star(
    t: WeierstrassTriple, params: I0StarParams, t_y: WeierstrassTriple
) -> Verification:
    """Check every claimed property of the I0* step on actual fiber data.

    - the discriminant relation Delta_Y = (u-av)^6 (u-bv)^6 Delta holds
      identically;
    - k goes up by exactly one and the Euler sum by exactly 12;
    - the fibers of t_y at a and b have valuations (2, 3, 6), type I0*,
      with no valuation of p (of q) when p (q) is identically zero;
    - away from a, b the fiber reports are unchanged: locations with
      their isolating intervals, valuations, types and reality;
    - real nodal types flip exactly on the open interval (a, b); this
      holds by construction.
    """
    checks: List[CheckItem] = []
    r = BinForm.from_linear_roots([params.a, params.b])
    delta_y = t_y.delta
    rel = r ** 6 * t.delta
    checks.append(
        CheckItem(
            "discriminant_relation",
            delta_y == rel,
            "Delta_Y == r^6 * Delta_X",
        )
    )
    checks.append(CheckItem("k_increment", t_y.k == t.k + 1, f"k: {t.k} -> {t_y.k}"))

    reports_x, reports_y = t.fibers, t_y.fibers
    # holds by construction: for_k(k + 1) is for_k(k) + 12, so this
    # repeats k_increment; the Euler sums themselves are asserted inside
    # classify_fibers
    inv_x, inv_y = SurfaceInvariants.for_k(t.k), SurfaceInvariants.for_k(t_y.k)
    checks.append(
        CheckItem(
            "euler_increment",
            inv_y.chi_top == inv_x.chi_top + 12,
            f"chi_top: {inv_x.chi_top} -> {inv_y.chi_top}",
        )
    )

    # r^2 * 0 = 0: a zero p (or q) gives the new fibers no v_p (or v_q)
    expected = (None if t.p.is_zero else 2, None if t.q.is_zero else 3, 6)
    for x in (params.a, params.b):
        rep = next((r for r in reports_y if r.location == finite(x)), None)
        ok = (
            rep is not None
            and (rep.v_p, rep.v_q, rep.v_delta) == expected
            and rep.kodaira.symbol == "I0*"
        )
        checks.append(CheckItem("new_fiber_is_I0star", ok, f"at u = {x}"))

    # reports compare by value: location (with its isolating interval),
    # valuations, Kodaira type and reality
    new_at = (finite(params.a), finite(params.b))
    old_x = Counter(reports_x)
    old_y = Counter(rep for rep in reports_y if rep.location not in new_at)
    checks.append(
        CheckItem(
            "other_fibers_unchanged",
            old_x == old_y,
            f"{len(reports_x)} reports on X, {sum(old_y.values())} on Y away from a and b",
        )
    )

    # holds by construction: both sides read sign(q), on X and on
    # Y = r^3 q, so this repeats the sign of r, which _strictly_between
    # decides on its own
    flips_ok = True
    flip_detail = []
    for rep in reports_x:
        if not rep.is_real or rep.v_delta != 1:
            continue
        c = rep.location
        before = _nodal_type_unchecked(t, c)
        after = _nodal_type_unchecked(t_y, c)
        inside = _strictly_between(c, params.a, params.b)
        expected = before.flipped() if inside else before
        if after != expected:
            flips_ok = False
            flip_detail.append(f"{c}: {before} -> {after}, inside={inside}")
    checks.append(
        CheckItem("real_type_flip_rule", flips_ok, "; ".join(flip_detail) or "all fibers")
    )
    return Verification(tuple(checks))


def _strictly_between(c: CirclePoint, a: Fraction, b: Fraction) -> bool:
    """c in the open bounded interval (a, b); infinity never is."""
    if isinstance(c, InfinityPoint):
        return False
    return compare_with_rational(c, a) > 0 and compare_with_rational(c, b) < 0


# ---------------------------------------------------------------------------
# guided search for extremal real component counts


@dataclass(frozen=True)
class SearchBudget:
    """Search limits; results are deterministic in both fields."""

    max_candidates: int = 64
    rng_seed: int = 0


@dataclass(frozen=True)
class SearchResult:
    triple: Optional[WeierstrassTriple]
    candidates_tried: int
    reason: str = ""
    # the verified topology of the found surface; normalize rescales by a
    # positive factor, so it is also the topology of `triple`
    report: Optional[RealTopologyReport] = None

    @property
    def found(self) -> bool:
        return self.triple is not None


def search_extremal(k_target: int, h0_target: int, budget: SearchBudget) -> SearchResult:
    """A verified triple with chi(O) = k_target and h0(X(R)) = h0_target.

    The bound h0 <= 5k is enforced up front.  Candidates come from the
    family p = -3g^2, q = 2g^3 + eps*h built to produce h0_target - 1
    two-circle arcs with matching nodal signs after a twist; eps runs
    down a deterministic ladder of binary scales until the verifier
    accepts.  Rungs that provably miss h0_target count against the
    budget but are not built.  Every returned triple has passed
    validation, topology, bound checks and exact oracle agreement.  A
    candidate that fails an invariant raises AssertionError instead of
    being skipped.
    """
    if h0_target < 1:
        return SearchResult(None, 0, "h0 must be at least 1")
    if h0_target > 5 * k_target:
        return SearchResult(None, 0, f"h0 = {h0_target} exceeds the bound 5k = {5 * k_target}")
    want_arcs = h0_target - 1
    pairs = min(want_arcs, 3 * k_target)
    dips = want_arcs - pairs
    if dips > k_target:
        return SearchResult(
            None,
            0,
            "target needs more sign windows than this family provides "
            f"(pairs={pairs}, dips={dips}, k={k_target})",
        )
    tried = 0
    rng = random.Random(budget.rng_seed)
    for jitter in range(4):
        offset = 0 if jitter == 0 else rng.randrange(1, 4)
        g, h = _family_g_h(k_target, pairs, dips, offset)
        p, two_g3 = -3 * g ** 2, 2 * g ** 3
        # With no dips, g > 0, and h > 0 at the center c of each root
        # pair.  For j < j_min, W = 4g^3 - 2^-j h is <= 0 at some c, while
        # W = 4g^3 > 0 at the ends of c's window: W has a root there, and
        # the candidate misses h0 = 1 + pairs.  Such a rung counts as
        # tried but is neither built nor verified.
        j_min = None
        if dips == 0:
            centers = [10 * (i + 1) + offset + Fraction(3, 2) for i in range(pairs)]
            j_min = _scale_threshold(g, h, centers)
        for j in _eps_ladder(g, h, k_target, dips, offset):
            if tried >= budget.max_candidates:
                return SearchResult(None, tried, "candidate budget exhausted")
            tried += 1
            if j_min is not None and j < j_min:
                continue
            cand = _build_candidate(k_target, p, two_g3, h, j)
            if cand is None:
                continue
            verified = _verify_candidate(cand, k_target, h0_target)
            if verified is not None:
                found, report = verified
                return SearchResult(found, tried, report=report)
    return SearchResult(None, tried, "no candidate passed verification")


def _floor_log2(x: Fraction) -> int:
    assert x > 0
    # with a and b the bit lengths of x's terms, 2^(a-b-1) < x < 2^(a-b+1)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > x:
        e -= 1
    return e


def _scale_threshold(g: BinForm, h: BinForm, centers: Sequence[Fraction]) -> Optional[int]:
    """The least j with 2^-j |h(c)| < 4 |g(c)|^3 at every center c.

    None when there is no center.
    """
    return max(
        (_floor_log2(abs(h.evaluate(c)) / (4 * abs(g.evaluate(c)) ** 3)) + 1 for c in centers),
        default=None,
    )


def _eps_ladder(g: BinForm, h: BinForm, k: int, dips: int, offset: int) -> List[int]:
    """Deterministic sequence of binary scales j for eps = -2^-j.

    Inside a sign window g^3 < 0 and h < 0, so W = 4g^3 + eps*h dips
    below zero exactly when 2^-j |h| < 4 |g|^3 there, i.e. for j above a
    threshold.  The threshold is computed exactly at each window center
    and the first scale past all of them is tried first, ascending,
    before a broad fallback sweep.
    """
    sweep = list(range(0, 128)) + list(range(-1, -64, -1))
    if dips == 0:
        return sweep
    centers = [Fraction(100 * k + 20 * d + offset + 5) for d in range(dips)]
    j_floor = max(0, _scale_threshold(g, h, centers))
    guided = [j_floor + i for i in range(0, 18)]
    seen = set()
    out = []
    for j in guided + sweep:
        if j not in seen:
            seen.add(j)
            out.append(j)
    return out


def _family_g_h(k: int, pairs: int, dips: int, offset: int) -> Tuple[BinForm, BinForm]:
    """The steering forms: g of degree 2k, h of degree 6k.

    g is negative exactly on the `dips` windows [100k+20d, 100k+20d+10];
    h is negative away from its root pairs (10i+1, 10i+2) and positive
    strictly between each pair.  The positive padding of h vanishes to
    order at most 5 at u = +-i and puts the rest of its degree on
    u^2 + 4v^2: where p = -3g^2 vanishes to order >= 4 at +-i, g^3 does
    to order >= 6, so q = 2g^3 + eps*h has order <= 5 and the data stay
    minimal.
    """
    pos = BinForm.make(2, [1, 0, 1])  # u^2 + v^2
    pos4 = BinForm.make(2, [4, 0, 1])  # u^2 + 4v^2
    g = BinForm.make(0, [1])
    for d in range(dips):
        lo = 100 * k + 20 * d + offset
        g = g * BinForm.from_linear_roots([lo, lo + 10])
    g = g * pos ** (k - dips)
    h = BinForm.make(0, [-1])
    for i in range(pairs):
        base = 10 * (i + 1) + offset
        h = h * BinForm.from_linear_roots([base + 1, base + 2])
    pad = 3 * k - pairs
    h = h * pos ** min(pad, 5) * pos4 ** max(pad - 5, 0)
    return g, h


def _build_candidate(
    k: int, p: BinForm, two_g3: BinForm, h: BinForm, j: int
) -> Optional[WeierstrassTriple]:
    """One member of the steerable family, before any verification.

    Builds Y = (p, 2g^3 - 2^-j h), with p = -3g^2 and arc_minus = pairs +
    dips, and twists it, so the result aims at h0 = pairs + dips + 1.
    """
    eps = -(Fraction(1, 2) ** j)
    q = two_g3 + eps * h
    try:
        y = validate(k, p, q)
    except WeierstrassError:
        return None
    return twist(y)


def _verify_candidate(
    cand: WeierstrassTriple, k_target: int, h0_target: int
) -> Optional[Tuple[WeierstrassTriple, RealTopologyReport]]:
    """The normalized candidate and its topology, or None when it is not
    real-generic or misses h0_target.  A failed invariant, bound check or
    oracle agreement is a theorem violation: AssertionError propagates.
    """
    try:
        report = cand.topology
    except NotRealGeneric:
        return None
    if report.h0 != h0_target:
        return None
    failed = ", ".join(c.name for c in check_bounds(report, k_target).failures())
    if failed:
        raise AssertionError(f"bounds failed at k={k_target}, h0={report.h0}, h1={report.h1}: {failed}")
    compare(cand)
    return normalize(cand), report
