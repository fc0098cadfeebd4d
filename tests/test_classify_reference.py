"""Gcd-only classification checked against a reference built from sympy's factors.

classify_fibers cuts Delta into strata with gcds and never factors.
Here the same fibers are rebuilt per irreducible factor of Delta, with
the orders of p, q and Delta taken from sympy's factor_list and the
real roots isolated by sympy, and both must agree point for point.
"""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from ellsurf import (
    AlgebraicPoint,
    BinForm,
    FinitePoint,
    InfinityPoint,
    classify_fibers,
    twist,
    validate,
)
from ellsurf.documents import load_triple
from ellsurf.fuzz import random_valid_triple
from ellsurf.weierstrass import kodaira_from_valuations

from conftest import U, V, fraction_coeffs, iterate_i0star

X = sympy.Symbol("x")
GOLDEN = Path(__file__).parent / "golden"


def _sympy_poly(coeffs):
    """The polynomial with the given ascending coefficients."""
    return sympy.Poly(list(reversed(coeffs)), X, domain="QQ")


def _orders(form):
    """{monic irreducible factor: order} of the affine part of form; None for 0."""
    if form.is_zero:
        return None
    return {fac.monic(): m for fac, m in _sympy_poly(fraction_coeffs(form)).factor_list()[1]}


def _reference(t):
    """Counter of (kodaira, v_p, v_q, v_delta, is_real) per complex point, and
    the real finite points as [(monic factor, root interval, key)]."""
    op, oq, od = _orders(t.p), _orders(t.q), _orders(t.delta)
    points = Counter()
    real = []
    for fac, v_delta in od.items():
        v_p = None if op is None else op.get(fac, 0)
        v_q = None if oq is None else oq.get(fac, 0)
        kod = kodaira_from_valuations(v_p, v_q, v_delta).symbol
        intervals = fac.intervals()
        points[(kod, v_p, v_q, v_delta, True)] += len(intervals)
        points[(kod, v_p, v_q, v_delta, False)] += fac.degree() - len(intervals)
        for (lo, hi), _ in intervals:
            real.append((fac, Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q)),
                         (kod, v_p, v_q, v_delta)))
    if t.delta.v_order_at_infinity() >= 1:
        v = [None if f.is_zero else f.v_order_at_infinity() for f in (t.p, t.q, t.delta)]
        points[(kodaira_from_valuations(*v).symbol, *v, True)] += 1
    return +points, real


def _is_at(pt, fac, lo, hi) -> bool:
    """pt is the root of the irreducible fac in [lo, hi], decided by sympy."""
    if isinstance(pt, FinitePoint):
        x = sympy.Rational(pt.value.numerator, pt.value.denominator)
        return lo <= pt.value <= hi and fac.eval(x) == 0
    assert isinstance(pt, AlgebraicPoint)
    a, b = max(lo, pt.lo), min(hi, pt.hi)
    if a > b:
        return False
    common = sympy.gcd(fac, _sympy_poly(pt.defining))
    return common.degree() >= 1 and common.count_roots(
        sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    ) >= 1


def _triples():
    rng = random.Random(20261018)
    out = [(f"random-k{k}-{i}", random_valid_triple(rng, k)) for k in (1, 2, 3) for i in range(5 if k < 3 else 3)]
    w1 = load_triple(str(GOLDEN / "w1.triple.json"))
    out += [("w1", w1), ("w1-twist", twist(w1))]
    out += [("w1-i0star", iterate_i0star(w1, [(4, 5)])),
            ("w1-i0star-twice", iterate_i0star(w1, [(4, 5), (Fraction(-5, 2), Fraction(1, 2))]))]
    # I1* at 0, IV at infinity, I1 at -4; and q = 0 with III fibers, two of them non-real
    out.append(("istar-1", validate(1, -3 * U * U * V * V, U ** 3 * V * V * (2 * V + U))))
    out.append(("q-zero", validate(1, (U * U + V * V) * (U - V) * (U + 2 * V), BinForm.from_affine(6, []))))
    for name in ("fractional-coefficients", "bundle-k2-two-tori", "bundle-positive-delta"):
        out.append((name, load_triple(str(GOLDEN / f"{name}.triple.json"))))
    return out


@pytest.mark.parametrize("t", [pytest.param(t, id=name) for name, t in _triples()])
def test_matches_sympy_factor_reference(t):
    reports = classify_fibers(t)
    expected, real = _reference(t)
    got = Counter()
    for r in reports:
        got[(r.kodaira.symbol, r.v_p, r.v_q, r.v_delta, r.is_real)] += r.multiplicity_weight
    assert got == expected

    finite = [r for r in reports if r.is_real and not isinstance(r.location, InfinityPoint)]
    assert len(finite) == len(real)
    for r in finite:
        matches = [key for fac, lo, hi, key in real if _is_at(r.location, fac, lo, hi)]
        assert matches == [(r.kodaira.symbol, r.v_p, r.v_q, r.v_delta)], r.location
