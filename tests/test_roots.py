"""Root isolation on the circle and exact signs."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf import (
    INFINITY,
    AlgebraicPoint,
    BinForm,
    finite,
    sign_at,
    simplest_between,
)
from ellsurf import _intpoly as ip
from ellsurf.roots import (
    FinitePoint,
    circle_sort_key_refine,
    compare_with_rational,
    rational_split,
    sample_between,
)

from conftest import U, V, circle_roots, fraction_coeffs, interlace_sextic, poly_mul, time_limit


def sqrt2_point():
    return AlgebraicPoint((-2, 0, 1), Fraction(1), Fraction(2))


def _sympy_sign_at_root(g, s, lo, hi):
    """Exact sign of g at the one root of s in (lo, hi), by sympy's gcd and root counts."""
    x = sympy.Symbol("x")
    G = sympy.Poly(list(reversed(g)), x, domain="QQ")
    S = sympy.Poly(list(reversed(s)), x, domain="QQ")
    lo = sympy.Rational(lo.numerator, lo.denominator)
    hi = sympy.Rational(hi.numerator, hi.denominator)
    assert S.count_roots(lo, hi) == 1
    common = sympy.gcd(G, S)
    if common.degree() >= 1 and common.count_roots(lo, hi) >= 1:
        return 0
    while G.degree() >= 1 and G.count_roots(lo, hi) > 0:
        mid = (lo + hi) / 2
        if sympy.sign(S.eval(mid)) == sympy.sign(S.eval(lo)):
            lo = mid
        else:
            hi = mid
    return int(sympy.sign(G.eval((lo + hi) / 2)))


class TestIsolation:
    def test_no_real_roots(self):
        assert len(circle_roots(U * U + V * V)) == 0

    def test_rational_and_infinity(self):
        order = circle_roots(U * V * (U - V))
        values = [str(p) for p in order]
        assert values == ["0", "1", "inf"]

    def test_six_rational_roots(self):
        order = circle_roots(interlace_sextic())
        assert [p.value for p in order] == [-3, -2, -1, 1, 2, 3]

    def test_irrational_roots_isolated(self):
        order = circle_roots(U * U - 2 * V * V)
        assert len(order) == 2
        for p in order:
            assert isinstance(p, AlgebraicPoint)

    def test_a_missed_rational_root_raises_instead_of_giving_intervals(self, monkeypatch):
        # (x + 14)(x - 1)(x^2 - 99), with -14 left in the rest: the
        # continued fractions meet it as the image of a shift
        found = ip.rational_roots

        def keeps_one(f):
            roots, rest = found(f)
            missed = roots.pop(0)
            return roots, poly_mul(rest, [-missed.numerator, missed.denominator])

        monkeypatch.setattr(ip, "rational_roots", keeps_one)
        with pytest.raises(ValueError, match="rational root -14"):
            rational_split(poly_mul(poly_mul([14, 1], [-1, 1]), [-99, 0, 1]))

    def test_multiplicities_collapsed(self):
        order = circle_roots((U - V) ** 5)
        assert [p.value for p in order] == [1]

    def test_count_matches_sturm(self):
        rng = random.Random(11)
        for _ in range(40):
            d = rng.randint(1, 7)
            coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
            f = BinForm.make(d, coeffs)
            if f.is_zero:
                continue
            order = circle_roots(f)
            affine = ip.squarefree_part(f.num)
            expected = ip.count_real_roots(affine)
            expected += 1 if f.v_order_at_infinity() >= 1 else 0
            assert len(order) == expected

    def test_count_agrees_across_both_charts(self):
        # the u-chart misses infinity, the v-chart misses 0; on the circle
        # both accountings must agree
        rng = random.Random(12)
        for _ in range(25):
            d = rng.randint(1, 6)
            f = BinForm.make(d, [rng.randint(-7, 7) for _ in range(d + 1)])
            if f.is_zero:
                continue
            chart1 = ip.count_real_roots(ip.squarefree_part(f.num))
            chart1 += 1 if f.v_order_at_infinity() >= 1 else 0
            g = BinForm.make(f.degree, reversed(fraction_coeffs(f)))  # u and v swapped
            chart2 = ip.count_real_roots(ip.squarefree_part(g.num))
            chart2 += 1 if g.v_order_at_infinity() >= 1 else 0
            assert chart1 == chart2 == len(circle_roots(f))


class TestSignAt:
    def test_positive_definite(self):
        g = U * U + V * V
        for c in (finite(0), finite(-7), finite(Fraction(22, 7)), INFINITY):
            assert sign_at(g, c) == 1

    def test_at_algebraic_point(self):
        assert sign_at(U, sqrt2_point()) == 1  # the isolated root is +sqrt(2)
        assert sign_at(U * U - 2 * V * V, sqrt2_point()) == 0
        assert sign_at(U - 2 * V, sqrt2_point()) == -1

    def test_direct_evaluation(self):
        g = BinForm.make(6, [-34, 0, 49, 0, -14, 0, 1])
        assert sign_at(g, finite(1)) == 1  # 1 - 14 + 49 - 34 = 2

    def test_zero_form_is_zero_everywhere(self):
        zero = BinForm.from_affine(3, [])
        for c in (finite(0), finite(Fraction(-5, 2)), sqrt2_point(), INFINITY):
            assert sign_at(zero, c) == 0

    def test_sign_at_infinity(self):
        assert sign_at(U ** 2 * V, INFINITY) == 0
        assert sign_at(U ** 3 - V ** 3, INFINITY) == 1
        assert sign_at(-2 * U ** 3 + V ** 3, INFINITY) == -1

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(ip.strip).filter(bool),
        st.sampled_from([2, 3, 5, 6, 7]),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(ip.strip).filter(bool),
        st.sampled_from(
            [
                "plain",
                "vanishes",
                "vanishes twice",
                "root in the interval",
                "root off the midpoints",
                "two roots in the interval",
                "complex pair over the interval",
            ]
        ),
    )
    @settings(max_examples=140, deadline=None)
    def test_at_split_points_matches_sympy(self, cofactor, m, h, case):
        # s has the irrational roots +-sqrt(m) at least
        s = ip.squarefree_part(poly_mul(cofactor, [-m, 0, 1]))
        points = [pt for _, pts in rational_split(s) for pt in pts]
        points = [pt for pt in points if isinstance(pt, AlgebraicPoint)]
        assert len(points) >= 2
        for pt in points:
            # x0 lies in the first interval and is never a bisection midpoint
            x0, r = (2 * pt.lo + pt.hi) / 3, (pt.hi - pt.lo) / 10
            g = h
            if case == "vanishes":
                g = poly_mul(h, pt.defining)
            elif case == "vanishes twice":
                g = poly_mul(h, poly_mul(pt.defining, pt.defining))
            elif case == "root in the interval":
                mid = (pt.lo + pt.hi) / 2
                g = poly_mul(h, [-mid.numerator, mid.denominator])
            elif case == "root off the midpoints":
                g = poly_mul(h, [-x0.numerator, x0.denominator])
            elif case == "two roots in the interval":
                # x0 +- r / sqrt(2): g has the same sign at both ends
                g = poly_mul(h, BinForm.from_affine(2, [x0 * x0 - r * r / 2, -2 * x0, 1]).num)
            elif case == "complex pair over the interval":
                g = poly_mul(h, BinForm.from_affine(2, [x0 * x0 + r * r, -2 * x0, 1]).num)
            form = BinForm.from_affine(ip.degree(g) + 1, g)
            expected = _sympy_sign_at_root(g, pt.defining, pt.lo, pt.hi)
            with time_limit(10):
                assert sign_at(form, pt) == expected


class TestProperties:
    @staticmethod
    def _random_form(rng, dmax=4):
        d = rng.randint(0, dmax)
        f = BinForm.make(d, [rng.randint(-6, 6) for _ in range(d + 1)])
        return f

    @staticmethod
    def _random_point(rng):
        choice = rng.randint(0, 2)
        if choice == 0:
            return finite(Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
        if choice == 1:
            return INFINITY
        shift = rng.randint(-3, 3)
        defi = ((U - shift * V) ** 2 - 2 * V * V).num  # root shift + sqrt(2), primitive
        return AlgebraicPoint(defi, Fraction(shift) + 1, Fraction(shift) + 2)

    def test_sign_multiplicative(self):
        rng = random.Random(5)
        for _ in range(60):
            g = self._random_form(rng)
            h = self._random_form(rng)
            c = self._random_point(rng)
            assert sign_at(g * h, c) == sign_at(g, c) * sign_at(h, c)

    def test_refinement_is_built_once(self):
        pt = sqrt2_point()
        assert pt.refined is pt.refined
        assert pt.refined.refined is pt.refined.refined

    def test_refinement_never_changes_answers(self):
        rng = random.Random(7)
        pt = sqrt2_point()
        refined = pt
        for _ in range(12):
            refined = refined.refined
        for _ in range(25):
            g = self._random_form(rng)
            assert sign_at(g, pt) == sign_at(g, refined)


class TestSimplestBetween:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)),
            (Fraction(-2), Fraction(5), Fraction(0)),
            (Fraction(2), Fraction(3), Fraction(5, 2)),
            (Fraction(7, 2), Fraction(4), Fraction(11, 3)),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert simplest_between(a, b) == expected

    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=40),
        st.fractions(min_value=-20, max_value=20, max_denominator=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_strictly_inside_and_minimal(self, a, b):
        if a == b:
            return
        if a > b:
            a, b = b, a
        x = simplest_between(a, b)
        assert a < x < b
        # nothing with a smaller denominator fits strictly inside
        for den in range(1, x.denominator):
            lo = a * den
            hi = b * den
            n0 = lo.numerator // lo.denominator + 1
            assert not any(
                a < Fraction(n, den) < b for n in range(n0, n0 + int(hi - lo) + 2)
            )


class TestSampleBetween:
    def test_plain_arc(self):
        s = sample_between(finite(1), finite(2))
        assert Fraction(1) < s.value < Fraction(2)

    def test_wrap_arc(self):
        s = sample_between(finite(3), finite(-3), wraps=True)
        assert s.value > 3

    def test_infinity_endpoints(self):
        assert sample_between(INFINITY, finite(-3)).value < -3
        assert sample_between(finite(3), INFINITY).value > 3

    def test_algebraic_endpoints(self):
        a = AlgebraicPoint((-2, 0, 1), Fraction(1), Fraction(2))
        b = AlgebraicPoint((-3, 0, 1), Fraction(1), Fraction(2))
        s = sample_between(a, b)
        # sqrt(2) < sample < sqrt(3)
        assert s.value ** 2 > 2 and s.value ** 2 < 3

    def test_order_violation_raises(self):
        with pytest.raises(ValueError):
            sample_between(finite(2), finite(1))

    def test_a_degenerate_isolating_interval_raises(self):
        with pytest.raises(ValueError, match="non-degenerate"):
            AlgebraicPoint((-2, 0, 1), Fraction(3, 2), Fraction(3, 2))

    def test_an_empty_interval_has_no_simplest_rational(self):
        with pytest.raises(ValueError, match="empty interval"):
            simplest_between(Fraction(1), Fraction(1))

    def test_an_arc_from_infinity_to_infinity_raises(self):
        with pytest.raises(ValueError, match="degenerate arc"):
            sample_between(INFINITY, INFINITY)

    def test_infinity_twice_raises(self):
        with pytest.raises(ValueError, match="duplicate point at infinity"):
            circle_sort_key_refine([INFINITY, finite(0), INFINITY])


class TestCompare:
    def test_mixed_ordering(self):
        assert compare_with_rational(finite(1), Fraction(2)) == -1
        assert compare_with_rational(finite(2), Fraction(1)) == 1
        assert compare_with_rational(finite(1), Fraction(1)) == 0
        assert compare_with_rational(sqrt2_point(), Fraction(1)) == 1
        assert compare_with_rational(sqrt2_point(), Fraction(2)) == -1

    def test_rationals_inside_the_interval_are_refined_out(self):
        # sqrt(2) in (1, 2): 3/2 and 7/5 both start inside the interval
        assert compare_with_rational(sqrt2_point(), Fraction(3, 2)) == -1
        assert compare_with_rational(sqrt2_point(), Fraction(7, 5)) == 1
        assert compare_with_rational(sqrt2_point(), Fraction(141421, 100000)) == 1
        assert compare_with_rational(sqrt2_point(), Fraction(141422, 100000)) == -1


class TestCircleOrder:
    """The real roots of one squarefree form, as rational_split gives them."""

    FORM = (
        (U * U - 2 * V * V)
        * (U * U - 3 * V * V)
        * (2 * U * U - 5 * V * V)
        * (5 * U - 7 * V)
        * (2 * U - 3 * V)
    )

    @classmethod
    def _points(cls):
        return [pt for _, pts in rational_split(cls.FORM.num) for pt in pts] + [INFINITY]

    @staticmethod
    def _sympy_roots():
        r = sympy.Rational
        roots = [sympy.sqrt(2), sympy.sqrt(3), sympy.sqrt(r(5, 2))]
        return sorted(roots + [-x for x in roots] + [r(7, 5), r(3, 2)])

    def test_matches_sympy_exact_order(self):
        points = self._points()
        rationals = [p.value for p in points if isinstance(p, FinitePoint)]
        assert sorted(rationals) == [Fraction(7, 5), Fraction(3, 2)]
        # the first intervals hold rationals, so ordering must refine them out
        assert any(
            isinstance(p, AlgebraicPoint) and any(p.lo <= x <= p.hi for x in rationals)
            for p in points
        )
        expected = self._sympy_roots()
        rng = random.Random(14)
        for _ in range(8):
            rng.shuffle(points)
            order = circle_sort_key_refine(points)
            assert order[-1] == INFINITY
            finite_pts = order[:-1]
            assert len(finite_pts) == len(expected)
            for p, x in zip(finite_pts, expected):
                if isinstance(p, FinitePoint):
                    assert p.value == x
                else:
                    assert p.lo < x < p.hi
                    assert not any(p.lo <= y <= p.hi for y in rationals)

    def test_points_of_two_rests_raise(self):
        # sqrt(2) and sqrt(2 + 10^-6) on coprime rests: the circle order is
        # that of the roots of one squarefree form, so two forms are refused
        rests = [[-2, 0, 1], [-(2 * 10 ** 6 + 1), 0, 10 ** 6]]
        points = [pt for rest in rests for _, pts in rational_split(rest) for pt in pts]
        with pytest.raises(ValueError, match="more than one defining form"):
            circle_sort_key_refine(points)

    def test_overlapping_points_of_one_form_raise(self):
        form = (-2, 0, 1)  # u^2 - 2v^2
        minus, plus = (
            AlgebraicPoint(form, Fraction(-2), Fraction(1, 2)),
            AlgebraicPoint(form, Fraction(0), Fraction(2)),
        )
        with pytest.raises(ValueError, match="overlap or repeat"):
            circle_sort_key_refine([plus, minus])
        # the same root twice, on nested intervals
        with pytest.raises(ValueError, match="overlap or repeat"):
            circle_sort_key_refine([sqrt2_point(), AlgebraicPoint(form, Fraction(5, 4), Fraction(3, 2))])
        # intervals that share an end, which is not a root, are fine
        lower = AlgebraicPoint(form, Fraction(-2), Fraction(1))
        assert circle_sort_key_refine([sqrt2_point(), lower]) == [lower, sqrt2_point()]

    def test_rational_root_in_an_interval_raises(self):
        # (u - v)(u^2 - 2v^2) has the root 1 in (1/2, 5/4), and no bisection
        # midpoint of that interval is 1, so refining never excludes it
        pt = AlgebraicPoint(((U - V) * (U * U - 2 * V * V)).num, Fraction(1, 2), Fraction(5, 4))
        with time_limit(10):
            with pytest.raises(ValueError):
                pt.excluding(Fraction(1))
            with pytest.raises(ValueError):
                circle_sort_key_refine([pt, finite(1)])

    def test_repeated_finite_point_raises(self):
        with pytest.raises(ValueError):
            circle_sort_key_refine([finite(1), sqrt2_point(), finite(1)])

    def test_root_shared_by_two_forms_raises(self):
        # sqrt(2) once on u^2 - 2v^2 and once on (u^2 - 2v^2)(u^2 - 3v^2)
        shared = AlgebraicPoint(
            ((U * U - 2 * V * V) * (U * U - 3 * V * V)).num, Fraction(13, 10), Fraction(3, 2)
        )
        with pytest.raises(ValueError):
            circle_sort_key_refine([sqrt2_point(), finite(0), shared])
