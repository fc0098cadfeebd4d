"""Exact points of the real projective line and queries at them.

A point of P^1(R) is rational, irrational algebraic (carried by a
squarefree defining form plus an open isolating interval with rational
endpoints), or the point at infinity (1:0).  Everything here is exact:
signs of forms at such points are decided by gcd computations,
Descartes' rule of signs and interval bisection, never by numerics.
The points that are ordered are the real roots of one squarefree form
(rational_split); a finite point is compared only with a rational.

The circle is ordered the standard way: the reals ascending, then
infinity, wrapping back to -infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from . import _intpoly as ip
from .binform import BinForm, form_text


@dataclass(frozen=True)
class FinitePoint:
    value: Fraction

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AlgebraicPoint:
    """Irrational real root of `defining`, isolated in (lo, hi).

    `defining` is a squarefree primitive integer tuple, ascending and
    stripped; it has exactly one root in the open interval and the
    endpoints are not roots.  `lo_sign` is the sign of defining at lo,
    which every refinement keeps; it is evaluated when not given, and
    two points are equal when (defining, lo, hi) are.
    """

    defining: Tuple[int, ...]
    lo: Fraction
    hi: Fraction
    lo_sign: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("isolating interval must be non-degenerate")
        if not self.lo_sign:
            object.__setattr__(self, "lo_sign", ip.eval_sign(self.defining, self.lo))

    def refined(self) -> "AlgebraicPoint":
        """Halve the isolating interval (exact bisection step)."""
        lo, hi = ip.refine_interval(self.defining, self.lo, self.hi, self.lo_sign)
        return AlgebraicPoint(self.defining, lo, hi, self.lo_sign)

    def excluding(self, x: Fraction) -> "AlgebraicPoint":
        """Refine until the rational x lies outside [lo, hi].

        A root x of the defining form in [lo, hi] breaks the contract
        (no refinement can exclude it) and raises ValueError.
        """
        pt = self
        if pt.lo <= x <= pt.hi and ip.eval_sign(self.defining, x) == 0:
            raise ValueError(f"{x} is a rational root of {form_text(self.defining)} in the interval")
        while pt.lo <= x <= pt.hi:
            pt = pt.refined()
        return pt

    def __str__(self) -> str:
        return f"root of {form_text(self.defining)} in ({self.lo}, {self.hi})"


@dataclass(frozen=True)
class InfinityPoint:
    def __str__(self) -> str:
        return "inf"


INFINITY = InfinityPoint()

CirclePoint = Union[FinitePoint, AlgebraicPoint, InfinityPoint]


def finite(x) -> FinitePoint:
    return FinitePoint(Fraction(x))


# ---------------------------------------------------------------------------
# comparisons


def compare_with_rational(c: CirclePoint, x: Fraction) -> int:
    """-1, 0 or +1 as the finite point c lies below, at or above the rational x.

    An algebraic point is irrational, so it is refined until x leaves
    its interval and never compares equal.
    """
    if isinstance(c, FinitePoint):
        return (c.value > x) - (c.value < x)
    assert isinstance(c, AlgebraicPoint)
    return 1 if c.excluding(x).lo > x else -1


def _bounds(p: CirclePoint) -> Tuple[Fraction, Fraction]:
    if isinstance(p, FinitePoint):
        return p.value, p.value
    assert isinstance(p, AlgebraicPoint)
    return p.lo, p.hi


def circle_sort_key_refine(points: Sequence[CirclePoint]) -> List[CirclePoint]:
    """Sort the real roots of one squarefree form along R, then infinity.

    The points are what rational_split gives for one squarefree form:
    rational points, algebraic points on at most one defining form with
    pairwise disjoint intervals, and perhaps infinity.  Each algebraic
    point is refined until its interval excludes every rational point;
    the refined copies are returned, sorted by lower bound.  Points that
    break this (two defining forms, overlapping intervals, a repeated
    point) raise ValueError.
    """
    infs = [p for p in points if isinstance(p, InfinityPoint)]
    if len(infs) > 1:
        raise ValueError("duplicate point at infinity")
    rationals = [p for p in points if isinstance(p, FinitePoint)]
    algebraic = [p for p in points if isinstance(p, AlgebraicPoint)]
    if len({p.defining for p in algebraic}) > 1:
        raise ValueError("algebraic points on more than one defining form")
    # bisection intervals are nested, so the order of exclusion does not matter
    for x in rationals:
        algebraic = [p.excluding(x.value) for p in algebraic]
    fin = sorted(rationals + algebraic, key=lambda p: _bounds(p)[0])
    for a, b in zip(fin, fin[1:]):
        gap = _bounds(b)[0] - _bounds(a)[1]
        # open intervals of one form may share an end, which is not a root
        both_algebraic = isinstance(a, AlgebraicPoint) and isinstance(b, AlgebraicPoint)
        if gap < 0 or (gap == 0 and not both_algebraic):
            raise ValueError(f"points {a} and {b} overlap or repeat")
    return fin + infs


# ---------------------------------------------------------------------------
# real points of a squarefree polynomial


def factor_order(factor: Tuple[int, ...]) -> tuple:
    """Sort key of an integer factor: degree, then coefficients from the leading one down.

    This is the order sympy's factor_list gives irreducible factors.
    """
    return len(factor), factor[::-1]


def rational_split(s: list) -> List[Tuple[Tuple[int, ...], List[CirclePoint]]]:
    """Squarefree integer s as [(factor, real points of factor)], without factoring.

    Each rational root a/b (ip.rational_roots) gives the factor b u - a
    with its FinitePoint.  The quotient of s by all of them, when not
    constant, has no rational root, so each of its real points is an
    AlgebraicPoint on it.  Factors are integer tuples, primitive with
    lc > 0 and sorted by factor_order; whenever the quotient is
    irreducible they are the irreducible factors of s in sympy's order.
    """
    roots, rest = ip.rational_roots(s)
    out: List[Tuple[Tuple[int, ...], List[CirclePoint]]] = [
        ((-r.numerator, r.denominator), [FinitePoint(r)]) for r in roots
    ]
    out.sort(key=lambda unit: factor_order(unit[0]))
    if ip.degree(rest) >= 1:
        rest = tuple(rest)
        intervals = ip.isolate_real_roots(rest)
        # rest has lc > 0, so its sign left of the i-th of n roots is (-1)^(n - i)
        pts = [
            AlgebraicPoint(rest, lo, hi, -1 if (len(intervals) - i) % 2 else 1)
            for i, (lo, hi) in enumerate(intervals)
        ]
        out.append((rest, pts))
    return out


# ---------------------------------------------------------------------------
# sign at a point


def sign_at(g: BinForm, c: CirclePoint) -> int:
    """Exact sign of the form g at the point c (0 when g vanishes there)."""
    if g.is_zero:
        return 0
    if isinstance(c, FinitePoint):
        val = g.evaluate(c.value)
        return (val > 0) - (val < 0)
    if isinstance(c, InfinityPoint):
        val = g.value_at_infinity()
        return (val > 0) - (val < 0)
    assert isinstance(c, AlgebraicPoint)
    # with no root of g in (lo, hi) the sign is constant there; otherwise
    # either g vanishes at c, or refining c leaves its roots out
    ga = g.num
    lo, hi = c.lo, c.hi
    g_lo, g_hi = ip.eval_sign(ga, lo), ip.eval_sign(ga, hi)
    if _may_vanish_in(ga, lo, hi, g_lo, g_hi):
        s = c.defining
        if _divisor_vanishes_in(ip.gcd(ga, s), lo, hi):
            return 0
        while True:
            new_lo, new_hi = ip.refine_interval(s, lo, hi, c.lo_sign)
            if new_lo == lo:
                hi, g_hi = new_hi, ip.eval_sign(ga, new_hi)
            else:
                lo, g_lo = new_lo, ip.eval_sign(ga, new_lo)
            if not _may_vanish_in(ga, lo, hi, g_lo, g_hi):
                break
    return g_lo or g_hi or ip.eval_sign(ga, (lo + hi) / 2)


def _divisor_vanishes_in(f: list, lo: Fraction, hi: Fraction) -> bool:
    """Whether f has a root in (lo, hi).

    f must divide a defining form whose isolating interval contains
    (lo, hi), and lo and hi must not be roots of that form.  f then has
    at most one root there, a simple one, and none at the ends, so it
    has one exactly when it changes sign.
    """
    return ip.degree(f) >= 1 and ip.eval_sign(f, lo) != ip.eval_sign(f, hi)


def _may_vanish_in(ga: list, lo: Fraction, hi: Fraction, g_lo: int, g_hi: int) -> bool:
    """Whether g may have a root in (lo, hi), given its signs g_lo, g_hi at the ends.

    Opposite signs prove a root; otherwise Descartes' rule decides, and
    its count 0 proves there is none.
    """
    return g_lo * g_hi < 0 or ip.variations_in(ga, lo, hi) > 0


# ---------------------------------------------------------------------------
# rational samples inside circle arcs


def simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The smallest-denominator rational strictly inside the open (a, b).

    Among integers the candidate closest to zero is chosen, which makes
    the pick deterministic.
    """
    if not a < b:
        raise ValueError("empty interval")
    lo_int = _floor(a) + 1
    hi_int = _ceil(b) - 1
    if lo_int <= hi_int:
        # at least one integer strictly inside
        return Fraction(min(max(lo_int, 0), hi_int))
    n = _floor(a)
    if a == n:
        # interval (n, b) with no integer inside: take n + 1/m, m minimal
        m = _floor(1 / (b - n)) + 1
        return n + Fraction(1, m)
    # both endpoints in [n, n+1); recurse on the inverted fractional parts
    inner = simplest_between(1 / (b - n), 1 / (a - n))
    return n + 1 / inner


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def sample_between(left: CirclePoint, right: CirclePoint, wraps: bool = False) -> FinitePoint:
    """A rational point strictly inside the arc from left to right.

    `wraps` marks the arc that runs from the last point through infinity
    back to the first; there (and whenever one endpoint is infinity) an
    integer beyond the finite data is chosen, otherwise the smallest-
    denominator rational strictly between the two roots.
    """
    if isinstance(left, InfinityPoint) and isinstance(right, InfinityPoint):
        raise ValueError("degenerate arc")
    if isinstance(left, InfinityPoint):
        lo, _ = _bounds(right)
        return FinitePoint(Fraction(_ceil(lo) - 1))
    if isinstance(right, InfinityPoint) or wraps:
        _, hi = _bounds(left)
        return FinitePoint(Fraction(_floor(hi) + 1))
    lpt, rpt = left, right
    while True:
        _, lhi = _bounds(lpt)
        rlo, _ = _bounds(rpt)
        if lhi < rlo:
            return FinitePoint(simplest_between(lhi, rlo))
        refined = False
        if isinstance(lpt, AlgebraicPoint):
            lpt, refined = lpt.refined(), True
        if isinstance(rpt, AlgebraicPoint):
            rpt, refined = rpt.refined(), True
        if not refined:
            raise ValueError("arc endpoints are not in increasing order")
