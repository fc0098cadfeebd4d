"""The fraction-free integer kernel checked against sympy's polynomial arithmetic."""

import linecache
import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf import _intpoly as ip

from conftest import poly_mul, sturm_bisection

X = sympy.Symbol("x")

polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(ip.strip)
nonzero = polys.filter(bool)
nonconstant = polys.filter(lambda f: ip.degree(f) >= 1)


def _poly(f, domain="ZZ"):
    return sympy.Poly(list(reversed(f)), X, domain=domain)


def _rationals(p) -> list:
    """Ascending coefficients of a sympy Poly as Fractions, stripped."""
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return out


def _primitive_positive(coeffs) -> list:
    """Integer multiple with coprime coefficients and positive lead."""
    if not coeffs:
        return []
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _coefficients(bound, max_size):
    return st.lists(st.integers(-bound, bound), min_size=1, max_size=max_size).map(ip.strip)


# (a, b, c) for gcd(a b, a c): small cases with zeros and constants, and
# degrees up to 24 with coefficients up to about 10^30
gcd_cases = st.one_of(
    st.tuples(nonzero, polys, polys),
    st.tuples(
        _coefficients(10 ** 10, 9).filter(bool),
        _coefficients(10 ** 20, 17),
        _coefficients(10 ** 20, 17),
    ),
)


def _check_gcd_against_sympy(gcd, case):
    a, b, c = case
    f, g = poly_mul(a, b), poly_mul(a, c)
    expected = _rationals(_poly(f).gcd(_poly(g)))
    assert gcd(f, g) == _primitive_positive(expected)


@given(gcd_cases)
@settings(max_examples=150, deadline=None)
def test_gcd_matches_sympy(case):
    _check_gcd_against_sympy(ip.gcd, case)


@given(gcd_cases)
@settings(max_examples=100, deadline=None)
def test_prs_gcd_fallback_matches_sympy(case):
    _check_gcd_against_sympy(ip.prs_gcd, case)


def test_heuristic_gcd_decides_without_the_fallback(monkeypatch):
    def no_fallback(f, g):
        raise AssertionError("prs_gcd called")

    monkeypatch.setattr(ip, "prs_gcd", no_fallback)
    sextic = [36, 0, -49, 0, 14, 0, -1]  # -(u^2 - 1)(u^2 - 4)(u^2 - 9)
    delta = poly_mul(sextic, sextic)
    assert ip.gcd(delta, ip.derivative(delta)) == ip.monic_sign(sextic)
    assert ip.gcd(poly_mul([-2, 0, 1], [3, 1]), poly_mul([-2, 0, 1], [5, 0, 1])) == [-2, 0, 1]
    assert ip.gcd([10 ** 30 + 57, 3, 1], [7, -(10 ** 29), 0, 1]) == [1]
    # below the bound on xi a wrong candidate divides both: at xi = 2 the
    # values are 3 and 2, whose gcd 1 would pass for gcd(u^2 - 1, u^2 - u)
    assert ip.gcd([-1, 0, 1], [0, -1, 1]) == [-1, 1]
    assert ip.gcd([0, 6, -11, 3], [0, 3, -7, 2]) == [0, -3, 1]


@given(polys, nonzero, polys)
@settings(max_examples=150, deadline=None)
def test_try_div_exact_matches_sympy(a, b, c):
    for f in (poly_mul(a, b), ip.add(poly_mul(a, b), c)):
        q, r = _poly(f, "QQ").div(_poly(b, "QQ"))
        got = ip.try_div_exact(f, b)
        if not r.is_zero:
            assert got is None
        elif not f:
            assert got == []
        else:
            quotient = _rationals(q)
            den = lcm(*(x.denominator for x in quotient))
            assert got == [int(x * den) for x in quotient]


@given(nonconstant, polys)
@settings(max_examples=150, deadline=None)
def test_sturm_chain_entries_are_positive_multiples_of_sympy(a, b):
    f = poly_mul(a, poly_mul(b, b)) if b else a
    ours = ip.sturm_chain(f)
    theirs = [_rationals(s) for s in sympy.sturm(_poly(f, "QQ"))]
    assert len(ours) == len(theirs)
    for mine, ref in zip(ours, theirs):
        assert len(mine) == len(ref)
        ratio = Fraction(mine[-1]) / ref[-1]
        assert ratio > 0
        assert all(Fraction(m) == ratio * r for m, r in zip(mine, ref))


def test_sturm_chain_takes_the_squarefree_part_only_when_it_must(monkeypatch):
    calls = []
    squarefree_part = ip.squarefree_part

    def counting(f):
        calls.append(f)
        return squarefree_part(f)

    monkeypatch.setattr(ip, "squarefree_part", counting)
    rng = random.Random(5)
    seen = 0
    while seen < 100:
        f = ip.strip([rng.randint(-30, 30) for _ in range(rng.randint(2, 8))])
        if ip.degree(f) < 1 or ip.degree(ip.gcd(f, ip.derivative(f))) > 0:
            continue
        assert ip.sturm_chain(f)[0] == ip.monic_sign(f)
        assert ip.sturm_chain(poly_mul(f, f))[0] == ip.monic_sign(f)
        assert len(calls) == 1, calls  # the square only
        calls.clear()
        seen += 1


def _lmq_shift(d):
    """The LMQ rule of _positive_root_shift, written out in full: every
    negative coefficient is paired, and the largest exponent decides."""
    a = d if d[-1] > 0 else [-c for c in d]
    uses = {j: 1 for j, c in enumerate(a) if c > 0}
    exponents = []
    for i, c in enumerate(a):
        if c < 0:
            e, j = min(
                (-((b.bit_length() - 1 - uses[j] - (-c - 1).bit_length()) // (j - i)), j)
                for j, b in enumerate(a)
                if j > i and b > 0
            )
            uses[j] += 1
            exponents.append(e)
    worst = max(exponents)
    return 1 << -worst if worst <= 0 else 0


shift_inputs = st.lists(
    st.one_of(st.integers(-40, 40), st.integers(-(2 ** 80), 2 ** 80)), min_size=2, max_size=10
).filter(lambda d: d[-1] != 0 and any(c > 0 for c in d) and any(c < 0 for c in d))


@given(shift_inputs)
@settings(max_examples=300, deadline=None)
def test_positive_root_shift_is_the_full_lmq_rule(d):
    assert ip._positive_root_shift(d) == _lmq_shift(d)


@given(polys, nonzero)
@settings(max_examples=150, deadline=None)
def test_pseudo_division_identity(f, g):
    r = ip._pseudo_rem(f, g)
    c = abs(g[-1]) ** max(0, ip.degree(f) - ip.degree(g) + 1)
    assert ip.degree(r) < ip.degree(g)
    # c*f - r is g times an integer polynomial
    _, rest = (c * _poly(f) - _poly(r)).div(_poly(g), auto=False)
    assert rest.is_zero


rational_roots_drawn = st.lists(
    st.fractions(min_value=-60, max_value=60, max_denominator=40), max_size=5
)


def _check_rational_roots_against_sympy(f):
    """rational_roots of the squarefree part of f: sympy's linear factors, and a rest that completes them."""
    s = ip.squarefree_part(f)
    _, factors = _poly(s).factor_list()
    expected = sorted(
        Fraction(-int(c0), int(c1))
        for c1, c0 in (fac.all_coeffs() for fac, _ in factors if fac.degree() == 1)
    )
    roots, rest = ip.rational_roots(s)
    assert roots == expected
    product = [1]
    for r in roots:
        product = poly_mul(product, [-r.numerator, r.denominator])
    assert _poly(poly_mul(product, rest)) == _poly(ip.monic_sign(s))


@given(
    rational_roots_drawn,
    st.lists(st.integers(-30, 30), min_size=1, max_size=5).map(ip.strip).filter(bool),
    st.sampled_from([1, 2, 360, 10 ** 12 + 39]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_rational_roots_match_sympy_linear_factors(roots, cofactor, lead, at_zero):
    f = cofactor[:-1] + [cofactor[-1] * lead]
    for r in roots + ([Fraction(0)] if at_zero else []):
        f = poly_mul(f, [-r.numerator, r.denominator])
    _check_rational_roots_against_sympy(f)


@st.composite
def high_rational_roots(draw):
    """Rational roots with numerators up to 10^40 and denominators dividing a lead,
    times lead x^2 - d with real irrational roots and a small cofactor.

    The residues of the irrational roots are lifted to the full bound,
    and the large roots are rebuilt only at high levels.
    """
    lead = draw(st.sampled_from([1, 2, 360, 10 ** 12 + 39]))
    denominators = sympy.divisors(lead)
    roots = draw(
        st.lists(
            st.builds(Fraction, st.integers(-(10 ** 40), 10 ** 40), st.sampled_from(denominators)),
            max_size=5,
        )
    )
    d = draw(st.integers(1, 10 ** 20).filter(lambda d: isqrt(lead * d) ** 2 != lead * d))
    f = poly_mul([-d, 0, lead], draw(st.lists(st.integers(-30, 30), max_size=4).map(ip.strip)) or [1])
    for r in roots:
        f = poly_mul(f, [-r.numerator, r.denominator])
    return f


@given(high_rational_roots())
@settings(max_examples=100, deadline=None)
def test_rational_roots_of_large_height_match_sympy(f):
    _check_rational_roots_against_sympy(f)


def test_rational_roots_lift_each_root_only_as_far_as_it_needs(monkeypatch):
    # roots 10, 20, ..., 160 beside x^2 - (2^200 + 1): f(0) has 298 bits,
    # so the full height 2 C^2 takes 8 squarings of p = 23, which are 16
    # evaluations per root when every root is lifted all the way
    f = [-(2 ** 200 + 1), 0, 1]
    for i in range(1, 17):
        f = poly_mul(f, [-10 * i, 1])
    moduli = []
    evaluate = ip._eval_mod

    def counting(g, x, m):
        moduli.append(m)
        return evaluate(g, x, m)

    monkeypatch.setattr(ip, "_eval_mod", counting)
    roots, rest = ip.rational_roots(f)
    assert roots == [Fraction(10 * i) for i in range(1, 17)]
    assert rest == [-(2 ** 200 + 1), 0, 1]
    # each lifting step squares the modulus, from the prime p on
    p = min(m for m in moduli if m * m in moduli)
    assert sum(m > p for m in moduli) <= 8 * len(roots)


def test_rational_root_close_to_a_false_candidate_is_found():
    # r = 1 + (2 3 5 ... 47)^8 agrees with 1 to 8 p-adic digits at every
    # prime the search can pick, so the low levels rebuild the candidate 1,
    # which is no root: its exact division fails and the lift goes on
    r = 1 + prod(sympy.primerange(2, 48)) ** 8
    assert ip.rational_roots(poly_mul([-r, 1], [-2, 0, 1])) == ([Fraction(r)], [-2, 0, 1])


def test_descartes_count_refuses_the_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        ip.variations_in([], Fraction(0), Fraction(1))


@pytest.mark.parametrize("divide", [ip._pseudo_rem, ip.try_div_exact], ids=["pseudo-remainder", "exact"])
def test_division_by_the_zero_polynomial_raises(divide):
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divide([1, 2, 1], [])


@pytest.mark.parametrize("split", [ip.squarefree_part, ip.yun_decomposition], ids=["squarefree", "yun"])
def test_the_zero_polynomial_has_no_squarefree_structure(split):
    with pytest.raises(ValueError, match="zero polynomial"):
        split([])


def test_a_nonzero_constant_has_no_yun_components():
    assert ip.yun_decomposition([-5]) == []


def test_refinement_refuses_a_rational_root():
    # u^2 - 1 on (0, 2), negative at 0: the first midpoint is the root 1
    with pytest.raises(ValueError):
        ip.refine_interval([-1, 0, 1], Fraction(0), Fraction(2), -1)


def _raise_site(excinfo):
    """The function that raised and the condition guarding its raise statement."""
    tb = excinfo.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    before = [linecache.getline(code.co_filename, n).strip() for n in (tb.tb_lineno - 1, tb.tb_lineno - 2)]
    return code.co_name, next(line for line in before if line.startswith("if "))


def test_isolation_refuses_a_rational_root():
    # (x^2 - 1)(x^2 - 2): on s(-x) the continued fractions split x + 1 at
    # the root 1, which is -1 for s
    with pytest.raises(ValueError, match="rational root -1: divide the rational roots out first") as excinfo:
        ip.isolate_real_roots([2, 0, -3, 0, 1])
    assert _raise_site(excinfo) == ("_positive_roots_cf", "if not f1[-1]:")


@pytest.mark.parametrize(
    "s,root,site",
    [
        # (x + 14)(x^2 - 99): on s(-x) the shifts by 2, 4 and 8 end on the root 14
        ([-1386, -99, 14, 1], "-14", ("_positive_roots_cf", "if not g[-1]:")),
        # (2x + 3)(x^2 - 2x - 2): the continued fractions isolate -3/2 without
        # meeting it, and bisecting (-6, 6) reaches it as a midpoint
        ([-6, -10, -1, 2], "-3/2", ("isolate_real_roots", "if sign == 0:")),
    ],
    ids=["shift", "midpoint"],
)
def test_isolation_refuses_a_rational_root_met_by_a_shift_or_a_midpoint(s, root, site):
    with pytest.raises(ValueError, match=f"rational root {root}: divide the rational roots out first") as excinfo:
        ip.isolate_real_roots(s)
    assert _raise_site(excinfo) == site


@given(rational_roots_drawn, st.lists(st.integers(-30, 30), min_size=1, max_size=7))
@settings(max_examples=150, deadline=None)
def test_isolation_of_the_rest_matches_sympy(roots, cofactor):
    f = ip.strip(cofactor) or [1]
    for r in roots:
        f = poly_mul(f, [-r.numerator, r.denominator])
    _, rest = ip.rational_roots(ip.squarefree_part(f))
    intervals = ip.isolate_real_roots(rest)
    assert len(intervals) == _poly(rest).count_roots()
    chain = ip.sturm_chain(rest)
    for lo, hi in intervals:
        assert lo < hi
        assert ip.eval_sign(rest, lo) * ip.eval_sign(rest, hi) == -1
        assert ip.sturm_count(chain, lo, hi) == 1
    assert all(b1 <= a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))


def _clustered_quadratics(draw):
    """Product of quadratics a^2 x^2 - 2 a c x + c^2 - e with roots (c +- sqrt(e)) / a, close when e is small."""
    f = [1]
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(1, 60))
        c = draw(st.integers(-(10 ** 6), 10 ** 6))
        e = draw(st.integers(-(10 ** 3), 10 ** 3))
        f = poly_mul(f, [c * c - e, -2 * a * c, a * a])
    return f


@st.composite
def squarefree_rests(draw):
    """What rational_roots leaves of random integer polynomials: no rational root, lc > 0."""
    kind = draw(st.sampled_from(["dense", "large", "clustered"]))
    if kind == "clustered":
        f = _clustered_quadratics(draw)
    else:
        bound = 2 ** 60 if kind == "large" else 2 ** draw(st.sampled_from([3, 10, 30]))
        f = ip.strip(draw(st.lists(st.integers(-bound, bound), min_size=3, max_size=25)))
    if ip.degree(f) < 1:
        return [1]
    return ip.rational_roots(ip.squarefree_part(f))[1]


@given(squarefree_rests())
@settings(max_examples=250, deadline=None)
def test_isolation_rebuilds_the_sturm_bisection_intervals(rest):
    assert ip.isolate_real_roots(rest) == sturm_bisection(rest)


@pytest.mark.parametrize(
    "rest",
    [
        # roots 3 +- sqrt(2) / 10^9 and -1 +- sqrt(3) / 10^12, far below the
        # Cauchy bound's scale, and complex roots near +-i
        poly_mul(
            poly_mul([9 * 10 ** 18 - 2, -6 * 10 ** 18, 10 ** 18], [10 ** 24 - 3, 2 * 10 ** 24, 10 ** 24]),
            [10 ** 6 + 1, 0, 10 ** 6],
        ),
        # the LMQ bound below the root near -57 is a shift by 32; rounding
        # log2 of a negative coefficient down gives 64 and loses the root
        [2 ** 63, 2 ** 55, -2216615441596416, -206158430208, 939524096, 786432, 512, 7],
    ],
    ids=["close clusters", "tight root bound"],
)
def test_isolation_rebuilds_the_sturm_bisection_intervals_on_hard_cases(rest):
    rest = ip.monic_sign(rest)
    assert ip.rational_roots(rest) == ([], rest)
    assert ip.isolate_real_roots(rest) == sturm_bisection(rest)


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=8).map(ip.strip).filter(bool),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000),
)
@settings(max_examples=150, deadline=None)
def test_descartes_count_bounds_the_roots_in_the_open_interval(f, lo, width):
    s = ip.squarefree_part(f)
    hi = lo + width
    count = ip.variations_in(s, lo, hi)
    # sympy counts the roots in the closed interval
    closed = _poly(s).count_roots(
        sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
    )
    inside = closed - sum(ip.eval_sign(s, x) == 0 for x in (lo, hi))
    assert count >= inside
    assert (count - inside) % 2 == 0
