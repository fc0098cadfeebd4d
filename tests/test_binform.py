"""Binary form arithmetic, gcd and squarefree structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf import BinForm, FormDegreeError
from ellsurf import _intpoly as ip

from conftest import U, V, interlace_sextic, poly_mul


class TestArithmetic:
    def test_add(self):
        assert (U + V).coeffs == (1, 1)
        assert ((U + V) + (U - V)) == 2 * U

    def test_add_degree_mismatch(self):
        with pytest.raises(FormDegreeError):
            U + BinForm.zero(2)

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

    def test_content_and_primitive(self):
        f = BinForm.make(2, [Fraction(4, 6), Fraction(-2, 3), 2])
        c, prim = f.content_and_primitive()
        assert c > 0
        assert all(x.denominator == 1 for x in prim.coeffs)
        assert c * prim == f


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
        sq = ip.squarefree_part(f.affine_int())
        assert sq == [-1, 1]
        assert ip.try_div_exact(f.affine_int(), sq) == [-1, 1]

    def test_monomial(self):
        f = U ** 6 * V ** 6
        assert ip.squarefree_part(f.affine_int()) == [0, 1]  # u
        assert f.v_order_at_infinity() == 6

    def test_already_squarefree_by_independent_euclid(self):
        a = interlace_sextic().affine_int()
        # oracle: gcd(f, f') is a constant, computed by naive Euclid
        assert _euclid_gcd_degree(a, ip.derivative(a)) == 0
        assert ip.squarefree_part(a) == a

    def test_product_relation(self):
        f = (U - V) ** 3 * (U + 2 * V) * V ** 2
        prod = [1]
        for comp, m in ip.yun_decomposition(f.affine_int()):
            for _ in range(m):
                prod = poly_mul(prod, comp)
        # f(u, 1) = prod g_i^i up to a rational scalar
        assert len(prod) == len(f.affine_int())
        ratio = None
        for a, b in zip(prod, f.affine_int()):
            if b == 0:
                assert a == 0
                continue
            r = a / b
            assert ratio is None or r == ratio
            ratio = r

    def test_squarefree_decomposition(self):
        f = (U - V) ** 2 * (U + V) * (U - 3 * V) ** 3
        assert [m for _, m in ip.yun_decomposition(f.affine_int())] == [1, 2, 3]


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
        d = ip.gcd(f.affine_int(), g.affine_int())
        for h in (f, g):
            assert ip.try_div_exact(h.affine_int(), d) is not None

    @given(forms(), forms())
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_fraction_convolution(self, f, g):
        product = poly_mul(list(f.coeffs), list(g.coeffs))
        product += [Fraction(0)] * (f.degree + g.degree + 1 - len(product))
        assert (f * g).coeffs == tuple(product)

    @given(forms(max_degree=6), small_frac)
    @settings(max_examples=80, deadline=None)
    def test_evaluate_matches_fraction_sum(self, f, u):
        assert f.evaluate(u) == sum(c * u ** i for i, c in enumerate(f.coeffs))

    @given(forms())
    @settings(max_examples=40, deadline=None)
    def test_squarefree_part_is_squarefree(self, f):
        sq = ip.squarefree_part(f.affine_int())
        assert ip.squarefree_part(sq) == sq
        assert _euclid_gcd_degree(sq, ip.derivative(sq)) == 0
