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
    compare_finite,
    points_equal,
    rational_split,
    sample_between,
)

from conftest import U, V, circle_roots, interlace_sextic, poly_mul, time_limit


def sqrt2_point():
    return AlgebraicPoint(U * U - 2 * V * V, Fraction(1), Fraction(2))


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
            affine = ip.squarefree_part(f.affine_int())
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
            chart1 = ip.count_real_roots(ip.squarefree_part(f.affine_int()))
            chart1 += 1 if f.v_order_at_infinity() >= 1 else 0
            g = BinForm.make(f.degree, reversed(f.coeffs))  # u and v swapped
            chart2 = ip.count_real_roots(ip.squarefree_part(g.affine_int()))
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
                g = poly_mul(h, pt.defining.affine_int())
            elif case == "vanishes twice":
                g = poly_mul(h, poly_mul(pt.defining.affine_int(), pt.defining.affine_int()))
            elif case == "root in the interval":
                mid = (pt.lo + pt.hi) / 2
                g = poly_mul(h, [-mid.numerator, mid.denominator])
            elif case == "root off the midpoints":
                g = poly_mul(h, [-x0.numerator, x0.denominator])
            elif case == "two roots in the interval":
                # x0 +- r / sqrt(2): g has the same sign at both ends
                g = poly_mul(h, BinForm.from_affine(2, [x0 * x0 - r * r / 2, -2 * x0, 1]).affine_int())
            elif case == "complex pair over the interval":
                g = poly_mul(h, BinForm.from_affine(2, [x0 * x0 + r * r, -2 * x0, 1]).affine_int())
            form = BinForm.from_affine(ip.degree(g) + 1, g)
            expected = _sympy_sign_at_root(g, pt.defining.affine_int(), pt.lo, pt.hi)
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
        defi = (U - shift * V) ** 2 - 2 * V * V  # root shift + sqrt(2), primitive
        return AlgebraicPoint(defi, Fraction(shift) + 1, Fraction(shift) + 2)

    def test_sign_multiplicative(self):
        rng = random.Random(5)
        for _ in range(60):
            g = self._random_form(rng)
            h = self._random_form(rng)
            c = self._random_point(rng)
            assert sign_at(g * h, c) == sign_at(g, c) * sign_at(h, c)

    def test_refinement_never_changes_answers(self):
        rng = random.Random(7)
        pt = sqrt2_point()
        refined = pt
        for _ in range(12):
            refined = refined.refined()
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
        a = AlgebraicPoint(U * U - 2 * V * V, Fraction(1), Fraction(2))
        b = AlgebraicPoint(U * U - 3 * V * V, Fraction(1), Fraction(2))
        s = sample_between(a, b)
        # sqrt(2) < sample < sqrt(3)
        assert s.value ** 2 > 2 and s.value ** 2 < 3

    def test_order_violation_raises(self):
        with pytest.raises(ValueError):
            sample_between(finite(2), finite(1))


class TestCompare:
    def test_mixed_ordering(self):
        pts = [finite(2), sqrt2_point(), finite(1)]
        assert compare_finite(pts[2], pts[1]) == -1
        assert compare_finite(pts[1], pts[0]) == -1
        assert compare_finite(pts[1], pts[1]) == 0

    def test_points_equal_across_kinds(self):
        assert points_equal(INFINITY, INFINITY)
        assert not points_equal(INFINITY, finite(0))
        other = AlgebraicPoint(U * U - 2 * V * V, Fraction(5, 4), Fraction(3, 2))
        assert points_equal(sqrt2_point(), other)


class TestCircleOrder:
    """Points on coprime forms whose starting intervals all overlap in (1, 2)."""

    @staticmethod
    def _points():
        r = sympy.Rational
        return [
            (AlgebraicPoint(U * U - 2 * V * V, Fraction(1), Fraction(2)), sympy.sqrt(2)),
            (AlgebraicPoint(U * U - 3 * V * V, Fraction(1), Fraction(2)), sympy.sqrt(3)),
            (AlgebraicPoint(2 * U * U - 5 * V * V, Fraction(1), Fraction(2)), sympy.sqrt(r(5, 2))),
            (finite(Fraction(7, 5)), r(7, 5)),
            (finite(Fraction(3, 2)), r(3, 2)),
            (INFINITY, sympy.oo),
        ]

    @staticmethod
    def _key(p):
        return p.defining if isinstance(p, AlgebraicPoint) else p

    def test_matches_sympy_exact_order(self):
        points = self._points()
        expected = [self._key(p) for p, _ in sorted(points, key=lambda pv: pv[1])]
        rng = random.Random(14)
        for _ in range(8):
            rng.shuffle(points)
            order = circle_sort_key_refine([p for p, _ in points])
            assert [self._key(p) for p in order] == expected
            finite_pts = order[:-1]
            for a, b in zip(finite_pts, finite_pts[1:]):
                assert compare_finite(a, b) == -1
            for p in finite_pts:
                if isinstance(p, AlgebraicPoint):
                    assert not any(
                        p.lo <= q.value <= p.hi for q in finite_pts if isinstance(q, FinitePoint)
                    )

    def test_overlapping_intervals_of_two_rests_are_refined_apart(self):
        # sqrt(2) and sqrt(2 + 10^-6) on coprime rests: both first intervals
        # are (0, B) with B the rest's Cauchy bound
        rests = [[-2, 0, 1], [-(2 * 10 ** 6 + 1), 0, 10 ** 6]]
        points = [pt for rest in rests for _, pts in rational_split(rest) for pt in pts]
        positive = [pt for pt in points if pt.lo >= 0]
        a, b = positive
        assert a.hi > b.lo and b.hi > a.lo
        order = circle_sort_key_refine(points)
        keys = [sympy.sqrt(2), sympy.sqrt(sympy.Rational(2 * 10 ** 6 + 1, 10 ** 6))]
        expected = sorted([-x for x in keys] + keys)
        assert len(order) == 4
        for pt, x in zip(order, expected):
            assert pt.lo < x < pt.hi
        for left, right in zip(order, order[1:]):
            assert left.hi <= right.lo

    def test_rational_root_in_an_interval_raises(self):
        # (u - v)(u^2 - 2v^2) has the root 1 in (1/2, 5/4), and no bisection
        # midpoint of that interval is 1, so refining never excludes it
        pt = AlgebraicPoint((U - V) * (U * U - 2 * V * V), Fraction(1, 2), Fraction(5, 4))
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
            (U * U - 2 * V * V) * (U * U - 3 * V * V), Fraction(13, 10), Fraction(3, 2)
        )
        with pytest.raises(ValueError):
            circle_sort_key_refine([sqrt2_point(), finite(0), shared])
