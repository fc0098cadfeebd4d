"""Validation, discriminant, j, rescaling and Kodaira classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf import (
    BinForm,
    DeltaIdenticallyZero,
    FinitePoint,
    InfinityPoint,
    NonMinimal,
    WeierstrassError,
    WeierstrassTriple,
    classify_fibers,
    discriminant,
    j_invariant,
    normalize,
    rescale,
    validate,
)
from ellsurf.fuzz import random_valid_triple
from ellsurf.weierstrass import kodaira_from_valuations

from conftest import U, V, interlace_sextic, poly_mul


class TestValidate:
    def test_istar_pair_is_valid(self):
        t = validate(1, BinForm.monomial(4, 2), BinForm.monomial(6, 3))
        assert discriminant(t) == BinForm.monomial(12, 6, 31)

    def test_nonminimal_at_zero(self):
        with pytest.raises(NonMinimal) as err:
            validate(1, BinForm.monomial(4, 4), BinForm.monomial(6, 6))
        w = err.value.witness
        assert isinstance(w, FinitePoint) and w.value == 0

    def test_nonminimal_at_infinity(self):
        with pytest.raises(NonMinimal) as err:
            validate(1, V ** 4, V ** 6)
        assert isinstance(err.value.witness, InfinityPoint)

    def test_delta_zero(self):
        with pytest.raises(DeltaIdenticallyZero):
            validate(1, BinForm.zero(4), BinForm.zero(6))

    def test_shared_low_order_vanishing_at_infinity_is_fine(self):
        # p and q both vanish at infinity, but to orders (1, 1) only
        validate(1, BinForm.monomial(4, 3), BinForm.monomial(6, 5))

    def test_degree_mismatch(self):
        with pytest.raises(WeierstrassError):
            validate(2, BinForm.zero(4), BinForm.zero(6))

    def test_nonminimal_conjugate_pair_witnessed_by_factor(self):
        w = U * U + V * V
        with pytest.raises(NonMinimal) as err:
            validate(2, w ** 4, w ** 6)
        assert isinstance(err.value.witness, BinForm)


class TestDiscriminant:
    def test_q_only(self):
        t = WeierstrassTriple(1, BinForm.zero(4), V ** 6)
        assert discriminant(t) == 27 * V ** 12

    def test_monomials(self):
        t = validate(1, BinForm.monomial(4, 2), BinForm.monomial(6, 3))
        assert discriminant(t) == BinForm.monomial(12, 6, 31)

    def test_built_once_per_triple(self, w1):
        assert discriminant(w1) is discriminant(w1)

    def test_w1_factorization(self, w1):
        h = interlace_sextic()
        expected = 27 * h * (h + 4 * V ** 6)
        assert discriminant(w1) == expected

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_form_arithmetic_on_fractional_triples(self, data):
        k = data.draw(st.integers(1, 2))
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
        p = BinForm.make(4 * k, data.draw(st.lists(coeff, min_size=4 * k + 1, max_size=4 * k + 1)))
        q = BinForm.make(6 * k, data.draw(st.lists(coeff, min_size=6 * k + 1, max_size=6 * k + 1)))
        delta = discriminant(WeierstrassTriple(k, p, q))
        assert delta == 4 * p ** 3 + 27 * q ** 2
        # and coefficient by coefficient over Q, with no library product
        p3 = poly_mul(poly_mul(list(p.coeffs), list(p.coeffs)), list(p.coeffs))
        q2 = poly_mul(list(q.coeffs), list(q.coeffs))
        p3 += [Fraction(0)] * (12 * k + 1 - len(p3))
        q2 += [Fraction(0)] * (12 * k + 1 - len(q2))
        assert delta.coeffs == tuple(4 * a + 27 * b for a, b in zip(p3, q2))


class TestJInvariant:
    def test_p_zero_gives_j_zero(self):
        t = validate(1, BinForm.zero(4), BinForm.monomial(6, 6) + BinForm.monomial(6, 0))
        j = j_invariant(t)
        assert j.ratio_num.is_zero

    def test_q_zero_standard_j_1728(self):
        p = (U * U - V * V) * (U * U - 4 * V * V)
        t = validate(1, p, BinForm.zero(6))
        j = j_invariant(t)
        assert j.ratio_degenerate
        assert j.standard_num == BinForm.make(0, [1728])
        assert j.standard_den == BinForm.make(0, [1])

    def test_constant_ratio(self):
        t = validate(1, BinForm.monomial(4, 2), BinForm.monomial(6, 3))
        j = j_invariant(t)
        assert j.ratio_num == BinForm.make(0, [4])
        assert j.ratio_den == BinForm.make(0, [27])


class TestRescaleNormalize:
    def test_rescale_identity_cases(self, w1):
        assert rescale(w1, Fraction(1)) == w1
        assert rescale(w1, Fraction(-1)) == w1  # even powers of lambda

    def test_rescale_zero_rejected(self, w1):
        with pytest.raises(WeierstrassError):
            rescale(w1, Fraction(0))

    def test_rescale_arithmetic(self):
        t = WeierstrassTriple(1, V ** 4, V ** 6)
        s = rescale(t, Fraction(2))
        assert s.p == 16 * V ** 4 and s.q == 64 * V ** 6

    def test_normalize_removes_square_cube_content(self):
        t = WeierstrassTriple(1, 16 * V ** 4, 64 * V ** 6)
        n = normalize(t)
        assert n.p == V ** 4 and n.q == V ** 6

    def test_normalize_preserves_twist_sign(self):
        t = WeierstrassTriple(1, 16 * V ** 4, -64 * V ** 6)
        n = normalize(t)
        assert n.q == -(V ** 6)

    def test_normalize_clears_denominators_and_is_idempotent(self):
        t = WeierstrassTriple(1, Fraction(1, 2) * V ** 4, Fraction(1, 2) * V ** 6)
        n = normalize(t)
        assert all(c.denominator == 1 for c in n.p.coeffs)
        assert all(c.denominator == 1 for c in n.q.coeffs)
        assert normalize(n) == n

    def test_normalize_on_valid_triple(self):
        t = validate(1, 16 * BinForm.monomial(4, 2), 64 * BinForm.monomial(6, 3))
        n = normalize(t)
        assert n.p == BinForm.monomial(4, 2) and n.q == BinForm.monomial(6, 3)

    def test_normalize_postconditions_on_fuzzed(self):
        import sympy

        rng = random.Random(321)
        for _ in range(10):
            t = random_valid_triple(rng, 1, height=9)
            n = normalize(rescale(t, Fraction(6, 5)))
            coeffs = list(n.p.coeffs) + list(n.q.coeffs)
            assert all(c.denominator == 1 for c in coeffs)
            if n.p.is_zero or n.q.is_zero:
                continue
            cp, _ = n.p.content_and_primitive()
            cq, _ = n.q.content_and_primitive()
            for prime in set(sympy.factorint(int(cp)).keys()) & set(
                sympy.factorint(int(cq)).keys()
            ):
                assert not (int(cp) % prime ** 2 == 0 and int(cq) % prime ** 3 == 0)
            assert normalize(n) == n


class TestKodairaTable:
    @pytest.mark.parametrize(
        "vp,vq,vd,symbol,euler",
        [
            (0, 0, 1, "I1", 1),
            (0, 0, 5, "I5", 5),
            (1, 1, 2, "II", 2),
            (None, 1, 2, "II", 2),
            (1, 2, 3, "III", 3),
            (1, None, 3, "III", 3),
            (2, 2, 4, "IV", 4),
            (2, 3, 6, "I0*", 6),
            (2, 4, 6, "I0*", 6),
            (3, 3, 6, "I0*", 6),
            (2, 3, 8, "I2*", 8),
            (3, 4, 8, "IV*", 8),
            (3, 5, 9, "III*", 9),
            (4, 5, 10, "II*", 10),
        ],
    )
    def test_table(self, vp, vq, vd, symbol, euler):
        kod = kodaira_from_valuations(vp, vq, vd)
        assert kod.symbol == symbol
        assert kod.euler_number == euler

    def test_nonminimal_rejected(self):
        with pytest.raises(ValueError):
            kodaira_from_valuations(4, 6, 12)


class TestClassify:
    def test_two_istar_fibers(self):
        t = validate(1, BinForm.monomial(4, 2), BinForm.monomial(6, 3))
        reports, inv = classify_fibers(t)
        assert sorted(r.kodaira.symbol for r in reports) == ["I0*", "I0*"]
        assert all((r.v_p, r.v_q, r.v_delta) == (2, 3, 6) for r in reports)
        assert inv.chi_top == 12 and inv.h11 == 10 and inv.b2 == 10

    def test_iistar_plus_nodal(self):
        t = validate(1, -3 * V ** 4, BinForm.monomial(6, 1))
        reports, _ = classify_fibers(t)
        by_symbol = sorted((r.kodaira.symbol, str(r.location)) for r in reports)
        assert by_symbol == [("I1", "-2"), ("I1", "2"), ("II*", "inf")]

    def test_conjugate_pairs_only(self):
        t = validate(1, BinForm.zero(4), BinForm.monomial(6, 6) + BinForm.monomial(6, 0))
        reports, _ = classify_fibers(t)
        assert all(not r.is_real for r in reports)
        assert all(r.kodaira.symbol == "II" for r in reports)
        assert sum(r.multiplicity_weight for r in reports) == 6

    def test_w1_all_nodal(self, w1):
        reports, inv = classify_fibers(w1)
        assert len(reports) == 12
        assert all(r.is_real and r.kodaira.symbol == "I1" for r in reports)
        assert inv.chi_top == 12

    def test_classification_rescale_invariant(self, w1):
        def key(t):
            reports, _ = classify_fibers(t)
            return sorted(
                (r.kodaira.symbol, r.v_delta, r.is_real, r.multiplicity_weight)
                for r in reports
            )

        assert key(rescale(w1, Fraction(3, 2))) == key(w1)
        assert key(rescale(w1, Fraction(-7))) == key(w1)

    def test_istar_n_fiber(self):
        # p = -3 u^2 v^2, q = u^3 v^2 (2v + u): orders (2, 3, 7) at 0 give I1*,
        # (2, 2, 4) at infinity give IV, and the leftover simple zero is I1
        p = -3 * BinForm.monomial(4, 2)
        q = BinForm.monomial(6, 3, 2) + BinForm.monomial(6, 4)
        t = validate(1, p, q)
        reports, inv = classify_fibers(t)
        table = {str(r.location): (r.kodaira.symbol, r.kodaira.euler_number) for r in reports}
        assert table["0"] == ("I1*", 7)
        assert table["inf"] == ("IV", 4)
        assert table["-4"] == ("I1", 1)
        assert inv.chi_top == 12

    def test_euler_sum_holds_on_random_triples(self):
        rng = random.Random(123)
        for k in (1, 2):
            for _ in range(15):
                t = random_valid_triple(rng, k, height=7)
                _, inv = classify_fibers(t)  # raises internally on mismatch
                assert inv.chi_top == 12 * k
