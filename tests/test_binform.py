"""Binary form arithmetic, gcd and squarefree structure."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf import BinForm, FormDegreeError, WeierstrassTriple
from ellsurf import _intpoly as ip
from ellsurf.fuzz import random_valid_triple

from conftest import U, V, fraction_calls, fraction_coeffs, interlace_sextic, poly_mul


class TestArithmetic:
    def test_add(self):
        assert fraction_coeffs(U + V) == (1, 1)
        assert ((U + V) + (U - V)) == 2 * U

    def test_add_degree_mismatch(self):
        with pytest.raises(FormDegreeError):
            U + BinForm.from_affine(2, [])

    def test_mul(self):
        assert U * V == BinForm.make(2, [0, 1, 0])
        lhs = (U * U - V * V) * (U * U + V * V)
        assert lhs == BinForm.make(4, [-1, 0, 0, 0, 1])  # u^4 - v^4

    def test_pow_matches_repeated_mul(self):
        f = 2 * U - 3 * V
        assert f ** 3 == f * f * f

    def test_evaluate_homogeneous(self):
        f = interlace_sextic()
        assert f.evaluate(2) == 0
        assert f.evaluate(0) == -36
        assert f.value_at_infinity() == 1  # leading u^6 coefficient

    def test_v_order_at_infinity(self):
        assert (V ** 4).v_order_at_infinity() == 4
        assert (U ** 2 * V ** 3).v_order_at_infinity() == 3
        assert U.v_order_at_infinity() == 0

    def test_content(self):
        f = BinForm.make(2, [Fraction(4, 6), Fraction(-2, 3), 2])
        assert f.content == Fraction(2, 3)
        prim = BinForm.from_affine(f.degree, ip.primitive(f.num))
        assert all(x.denominator == 1 for x in fraction_coeffs(prim))
        assert f.content * prim == f
        assert (-f).content == f.content


def _euclid_gcd_degree(f, g):
    """Naive Euclid over Fraction lists; independent of the library gcd."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while any(b):
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if len(a) < len(b):
            a, b = b, a
        if not b:
            break
        lead = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = [c - lead * b[i - shift] if 0 <= i - shift < len(b) else c for i, c in enumerate(a)]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) - 1


class TestGcdSquarefree:
    def test_repeated_linear(self):
        f = (U - V) ** 2
        sq = ip.squarefree_part(f.num)
        assert sq == [-1, 1]
        assert ip.try_div_exact(f.num, sq) == [-1, 1]

    def test_monomial(self):
        f = U ** 6 * V ** 6
        assert ip.squarefree_part(f.num) == [0, 1]  # u
        assert f.v_order_at_infinity() == 6

    def test_already_squarefree_by_independent_euclid(self):
        a = interlace_sextic().num
        # oracle: gcd(f, f') is a constant, computed by naive Euclid
        assert _euclid_gcd_degree(a, ip.derivative(a)) == 0
        assert ip.squarefree_part(a) == list(a)

    def test_product_relation(self):
        f = (U - V) ** 3 * (U + 2 * V) * V ** 2
        prod = [1]
        for comp, m in ip.yun_decomposition(f.num):
            for _ in range(m):
                prod = poly_mul(prod, comp)
        # f(u, 1) = prod g_i^i up to a rational scalar
        assert len(prod) == len(f.num)
        ratio = None
        for a, b in zip(prod, f.num):
            if b == 0:
                assert a == 0
                continue
            r = a / b
            assert ratio is None or r == ratio
            ratio = r

    def test_squarefree_decomposition(self):
        f = (U - V) ** 2 * (U + V) * (U - 3 * V) ** 3
        assert [m for _, m in ip.yun_decomposition(f.num)] == [1, 2, 3]


small_frac = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def forms(draw, max_degree=4):
    d = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = draw(
        st.lists(small_frac, min_size=d + 1, max_size=d + 1).filter(
            lambda cs: any(cs)
        )
    )
    return BinForm.make(d, coeffs)


class TestProperties:
    @given(forms(), forms())
    @settings(max_examples=60, deadline=None)
    def test_mul_degree_adds(self, f, g):
        assert (f * g).degree == f.degree + g.degree

    @given(forms(), forms())
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, f, g):
        d = ip.gcd(f.num, g.num)
        for h in (f, g):
            assert ip.try_div_exact(h.num, d) is not None

    @given(forms(), forms())
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_fraction_convolution(self, f, g):
        product = poly_mul(fraction_coeffs(f), fraction_coeffs(g))
        product += [Fraction(0)] * (f.degree + g.degree + 1 - len(product))
        assert fraction_coeffs(f * g) == tuple(product)

    @given(forms(max_degree=6), small_frac)
    @settings(max_examples=80, deadline=None)
    def test_evaluate_matches_fraction_sum(self, f, u):
        assert f.evaluate(u) == sum(c * u ** i for i, c in enumerate(fraction_coeffs(f)))

    @given(forms())
    @settings(max_examples=40, deadline=None)
    def test_squarefree_part_is_squarefree(self, f):
        sq = ip.squarefree_part(f.num)
        assert ip.squarefree_part(sq) == sq
        assert _euclid_gcd_degree(sq, ip.derivative(sq)) == 0


def _in_normal_form(f):
    """num stripped, den >= 1 and coprime to the content of num; make(degree, coeffs) rebuilds f."""
    return (
        f.den >= 1
        and (not f.num or f.num[-1] != 0)
        and gcd(ip.content(f.num), f.den) == 1
        and BinForm.make(f.degree, fraction_coeffs(f)) == f
    )


class TestNormalForm:
    @given(forms(), st.data(), st.integers(0, 3), small_frac, st.integers(-6, 6))
    @settings(max_examples=120, deadline=None)
    def test_every_route_gives_equal_values_and_hashes(self, f, data, n, c, m):
        """Each pair builds one form two ways: by the arithmetic and from Fraction coefficients."""
        d = f.degree
        g = BinForm.make(d, data.draw(st.lists(small_frac, min_size=d + 1, max_size=d + 1)))
        power = [1]
        for _ in range(n):
            power = poly_mul(power, fraction_coeffs(f))
        pairs = [
            (f, BinForm.from_affine(d, fraction_coeffs(f))),
            (f, BinForm.from_affine(d, ip.strip(fraction_coeffs(f)))),
            (f + g, BinForm.make(d, [a + b for a, b in zip(fraction_coeffs(f), fraction_coeffs(g))])),
            (f - f, BinForm.from_affine(d, [])),
            (f * g, BinForm.from_affine(2 * d, poly_mul(fraction_coeffs(f), fraction_coeffs(g)))),
            (f ** n, BinForm.from_affine(n * d, power)),
            (c * f, BinForm.make(d, [c * a for a in fraction_coeffs(f)])),
            (f * m, BinForm.make(d, [m * a for a in fraction_coeffs(f)])),
            (-f, BinForm.make(d, [-a for a in fraction_coeffs(f)])),
        ]
        for lhs, rhs in pairs:
            assert lhs == rhs and hash(lhs) == hash(rhs)
            assert _in_normal_form(lhs) and _in_normal_form(rhs)
        prim = BinForm.from_affine(d, ip.primitive(f.num))
        assert f.content * prim == f and _in_normal_form(prim)

    def test_raw_constructor_checks_the_cheap_invariants(self):
        with pytest.raises(ValueError):
            BinForm(-1, (), 1)
        with pytest.raises(ValueError):
            BinForm(2, (1,), 0)
        with pytest.raises(ValueError):
            BinForm(1, (1, 2, 3), 1)
        with pytest.raises(ValueError):
            BinForm(2, (1, 0), 1)

    def test_discriminant_of_integer_forms_runs_no_fraction_code(self):
        t = random_valid_triple(random.Random(2024), 4)
        t = WeierstrassTriple(t.k, t.p, t.q)  # a fresh triple: delta not built yet
        delta, calls = fraction_calls(lambda: t.delta)
        assert calls == []
        assert delta.den == 1 and delta.degree == 48
        assert "delta" in t.__dict__
