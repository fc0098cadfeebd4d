"""Cross-cutting invariants tying the modules together."""

import random
from fractions import Fraction

import pytest

from ellsurf import (
    BinForm,
    NonMinimal,
    betti,
    classify_fibers,
    validate,
)
from ellsurf import _intpoly as ip
from ellsurf.fuzz import random_valid_triple

from conftest import U, V, circle_roots, interlace_sextic, monomial, rescale


class TestDiscriminantBookkeeping:
    def test_delta_degree_and_total_vanishing(self):
        rng = random.Random(51)
        for k in (1, 2):
            for _ in range(8):
                t = random_valid_triple(rng, k, height=7)
                assert t.delta.degree == 12 * k
                reports = classify_fibers(t)
                total = sum(r.v_delta * r.multiplicity_weight for r in reports)
                # roots of Delta counted with multiplicity over C fill the degree
                assert total == 12 * k

    def test_isolating_intervals_disjoint_with_one_root_each(self):
        delta = validate(1, -3 * V ** 4, 2 * V ** 6 + interlace_sextic()).delta
        sq = ip.squarefree_part(delta.num)
        chain = ip.sturm_chain(sq)
        order = circle_roots(delta)
        finite_pts = [p for p in order if hasattr(p, "lo") or hasattr(p, "value")]
        intervals = []
        for p in finite_pts:
            if hasattr(p, "lo"):
                intervals.append((p.lo, p.hi))
            else:
                eps = Fraction(1, 1000)
                intervals.append((p.value - eps, p.value + eps))
        for lo, hi in intervals:
            assert ip.sturm_count(chain, lo, hi) == 1
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2 or b2 <= a1 or b1 <= a2  # sorted and disjoint
            assert b1 <= a2


class TestConditionTwoCrossCheck:
    """Rejection iff some point has p-order >= 4 and q-order >= 6."""

    @pytest.mark.parametrize(
        "a,b,expect_valid",
        [
            (0, 0, True),   # (p0, q0) with orders (2, 3) at 0
            (1, 2, True),   # orders (3, 5)
            (2, 2, True),   # orders (4, 5): q-order too small to reject
            (2, 3, False),  # orders (4, 6): rejected at u = 0
        ],
    )
    def test_monomial_shift_family(self, a, b, expect_valid):
        # p = u^(2+a) v^(2-a), q = u^(3+b) v^(3-b): orders at 0 are 2+a, 3+b
        p = monomial(4, 2 + a)
        q = monomial(6, 3 + b)
        if expect_valid:
            validate(1, p, q)
        else:
            with pytest.raises(NonMinimal):
                validate(1, p, q)

    def test_zero_p_uses_q_order_alone(self):
        # p identically zero counts as infinite order: only q's order matters
        with pytest.raises(NonMinimal):
            validate(1, BinForm.from_affine(4, []), monomial(6, 6))
        validate(1, BinForm.from_affine(4, []), monomial(6, 5) + V ** 6)

    def test_infinity_family(self):
        # orders at infinity: p has 4, q has 5: minimal
        validate(1, V ** 4, monomial(6, 1))
        # orders (4, 6): rejected at infinity
        with pytest.raises(NonMinimal):
            validate(1, V ** 4, V ** 6)


class TestRealGenericityTwoRoutes:
    """Per-fiber v_delta == 1 iff gcd(Delta, Delta') has no real root."""

    def _generic_by_gcd(self, t):
        delta = t.delta
        da = delta.num
        g = ip.gcd(da, ip.derivative(da))
        affine_multiple = ip.degree(g) >= 1 and ip.count_real_roots(g) > 0
        infinity_multiple = delta.v_order_at_infinity() >= 2
        return not (affine_multiple or infinity_multiple)

    def _generic_by_fibers(self, t):
        reports = classify_fibers(t)
        return all(r.v_delta == 1 for r in reports if r.is_real)

    def test_routes_agree_on_fuzzed(self):
        rng = random.Random(52)
        for _ in range(25):
            t = random_valid_triple(rng, 1, height=6)
            assert self._generic_by_gcd(t) == self._generic_by_fibers(t)

    def test_routes_agree_on_crafted_non_generic(self):
        t = validate(1, BinForm.from_affine(4, []), (U - V) ** 2 * V ** 4)
        assert not self._generic_by_gcd(t)
        assert not self._generic_by_fibers(t)


class TestRescaleInvariance:
    def test_betti_invariant_under_rescaling(self, w1):
        base = betti(w1)
        for lam in (Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(-1, 4)):
            rep = betti(rescale(w1, lam))
            assert (rep.h0, rep.h1, rep.chi_top) == (base.h0, base.h1, base.chi_top)
            assert rep.components == base.components

    def test_classification_invariant_under_rescaling(self):
        t = validate(1, -3 * V ** 4, monomial(6, 1))

        def key(s):
            reports = classify_fibers(s)
            return sorted(
                (r.kodaira.symbol, r.v_delta, r.is_real, r.multiplicity_weight)
                for r in reports
            )

        base = key(t)
        for lam in (Fraction(2), Fraction(-1, 3), Fraction(7, 2)):
            assert key(rescale(t, lam)) == base
