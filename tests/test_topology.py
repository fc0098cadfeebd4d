"""Arc decomposition, Betti numbers and bound verdicts."""

import random
from fractions import Fraction

import pytest

from ellsurf import (
    AlgebraicPoint,
    BinForm,
    NotRealGeneric,
    arc_decomposition,
    betti,
    check_bounds,
    compare,
    finite,
    smooth_fiber_components,
    twist,
    validate,
)
from ellsurf.fuzz import random_valid_triple
from ellsurf.roots import FinitePoint
from ellsurf.topology import I1_MINUS, I1_PLUS, _nodal_type_unchecked, twist_duality

from conftest import U, V


class TestRealNodalTypes:
    def test_w1_rational_points_are_connected_type(self, w1):
        dec = arc_decomposition(w1)
        rational = [(pt.value, ty) for pt, ty in zip(dec.points, dec.types) if isinstance(pt, FinitePoint)]
        assert rational == [(x, I1_MINUS) for x in (-3, -2, -1, 1, 2, 3)]

    def test_w1_irrational_points_are_split_type(self, w1):
        dec = arc_decomposition(w1)
        for pt, ty in zip(dec.points, dec.types):
            if isinstance(pt, AlgebraicPoint):
                assert ty == I1_PLUS
            else:
                assert ty == I1_MINUS

    def test_twist_flips_all_types(self, w1):
        dec = arc_decomposition(w1)
        dec2 = arc_decomposition(twist(w1))
        assert dec2.n_plus == 6 and dec2.n_minus == 6
        assert dec2.points == dec.points
        assert dec2.types == tuple(ty.flipped() for ty in dec.types)


    def test_nodal_type_refuses_a_zero_of_q(self):
        # q = u v^5 vanishes at 0, where Delta = 27 v^10 (u^2 - 4 v^2) does not
        t = validate(1, -3 * V ** 4, U * V ** 5)
        with pytest.raises(ValueError, match="q vanishes at c"):
            _nodal_type_unchecked(t, finite(0))
        assert _nodal_type_unchecked(t, finite(2)) == I1_MINUS  # q(2) = 2 > 0


class TestSmoothFiberComponents:
    def test_always_one_for_positive_discriminant(self):
        t = validate(1, BinForm.from_affine(4, []), V ** 6 + U ** 6)
        for x in (0, 1, -5, Fraction(7, 3)):
            assert smooth_fiber_components(t, finite(x)) == 1

    def test_w1_samples(self, w1):
        assert smooth_fiber_components(w1, finite(0)) == 1
        assert smooth_fiber_components(w1, finite(Fraction(-299, 100))) == 2

    def test_rejects_singular_point(self, w1):
        with pytest.raises(ValueError):
            smooth_fiber_components(w1, finite(1))


class TestArcDecomposition:
    def test_w1_cyclic_structure(self, w1):
        dec = arc_decomposition(w1)
        assert len(dec.points) == 12
        labels = [str(ty) for ty in dec.types]
        assert labels == [
            "I1-", "I1+", "I1+", "I1-", "I1-", "I1+",
            "I1+", "I1-", "I1-", "I1+", "I1+", "I1-",
        ]
        assert dec.circles == (2, 1) * 6
        assert dec.arc_plus == 0 and dec.arc_minus == 0

    def test_alternation_and_even_count(self):
        rng = random.Random(31)
        seen = 0
        while seen < 10:
            t = random_valid_triple(rng, 1, height=6)
            try:
                dec = arc_decomposition(t)
            except NotRealGeneric:
                continue
            seen += 1
            assert len(dec.points) % 2 == 0
            counts = dec.circles
            for i, c in enumerate(counts):
                assert c != counts[(i + 1) % len(counts)]

    def test_multiple_real_root_refused(self):
        # q with a double real root of Delta: p = 0, q = (u - v)^2 * v^4
        t = validate(1, BinForm.from_affine(4, []), (U - V) ** 2 * V ** 4)
        with pytest.raises(NotRealGeneric) as err:
            arc_decomposition(t)
        assert err.value.offenders


class TestBetti:
    def test_w1(self, w1):
        rep = betti(w1)
        assert (rep.h0, rep.h1, rep.h2) == (1, 2, 1)
        assert rep.chi_top == 0
        assert rep.components == ("V2",)
        assert not rep.orientable

    def test_no_real_singular_positive_delta(self):
        t = validate(1, BinForm.from_affine(4, []), V ** 6 + U ** 6)
        rep = betti(t)
        assert (rep.h0, rep.h1) == (1, 2)
        assert rep.components == ("V2",)
        assert rep.no_real_singular_fibers
        assert compare(t).oracle.triple() == (rep.h0, rep.h1, rep.chi_top)

    def test_no_real_singular_negative_delta_two_components(self):
        w = U * U + V * V
        t = validate(1, -(w ** 2), Fraction(1, 3) * w ** 3)
        rep = betti(t)
        assert (rep.h0, rep.h1) == (2, 4)
        assert rep.components == ("V2", "V2")

    def test_k2_orientable_labels(self):
        # k = 2 surface with no real singular fibers: tori
        w = (U * U + V * V) * (U * U + 2 * V * V)
        t = validate(2, -(w ** 2), Fraction(1, 3) * w ** 3)
        rep = betti(t)
        assert (rep.h0, rep.h1) == (2, 4)
        assert rep.orientable
        assert set(rep.components) == {"S1"}

    def test_k2_single_torus(self):
        q = (U ** 4 + V ** 4) ** 3
        t = validate(2, BinForm.from_affine(8, []), q)
        rep = betti(t)
        assert (rep.h0, rep.h1) == (1, 2)
        assert rep.components == ("S1",)
        from ellsurf import oracle_topology

        assert oracle_topology(t).triple() == (1, 2, 0)

    def test_consistency_identity_fuzzed(self):
        # 2 (1 + arc+) - (2 + 2 arc-) == [I1+] - [I1-] on every generic triple
        rng = random.Random(77)
        seen = 0
        while seen < 15:
            t = random_valid_triple(rng, 1, height=6)
            try:
                dec = arc_decomposition(t)
            except NotRealGeneric:
                continue
            seen += 1
            lhs = 2 * (1 + dec.arc_plus) - (2 + 2 * dec.arc_minus)
            rhs = dec.n_plus - dec.n_minus
            assert lhs == rhs

    def test_h1_always_even_fuzzed(self):
        rng = random.Random(78)
        seen = 0
        while seen < 15:
            t = random_valid_triple(rng, 1, height=6)
            try:
                rep = betti(t)
            except NotRealGeneric:
                continue
            seen += 1
            assert rep.h1 % 2 == 0


class TestBounds:
    def test_w1_passes(self, w1):
        rep = betti(w1)
        assert check_bounds(rep, 1).ok

    @staticmethod
    def _fake(h0, h1, orientable):
        from ellsurf.topology import RealTopologyReport

        return RealTopologyReport(
            h0=h0, h1=h1, h2=h0, chi_top=2 * h0 - h1, orientable=orientable,
            components=("S0",) * h0, arcs=None,
        )

    @staticmethod
    def _failed(rep, k):
        return [c.name for c in check_bounds(rep, k).failures()]

    def test_component_bound_violation_flagged(self):
        assert self._failed(self._fake(6, 0, False), 1) == ["h0_le_5k"]
        assert not check_bounds(self._fake(6, 0, False), 1).ok

    def test_betti_bound_violation_flagged(self):
        assert self._failed(self._fake(1, 12, False), 1) == ["h1_le_10k"]

    def test_parity_violation_flagged(self):
        assert self._failed(self._fake(1, 3, False), 1) == ["h1_even"]

    def test_orientable_at_odd_k_flagged(self):
        assert self._failed(self._fake(1, 2, True), 1) == ["orientable_iff_k_even"]

    def test_bounds_attained_pass(self):
        assert self._failed(self._fake(5, 10, False), 1) == []
        assert self._failed(self._fake(10, 20, True), 2) == []


class TestTwistDuality:
    # one real component with h1 = 4 pairs with two components and h1 = 2
    BEFORE = (1, 4, -2)

    def test_the_dual_pair_holds(self):
        assert twist_duality(self.BEFORE, (2, 2, 2))
        assert twist_duality((2, 2, 2), self.BEFORE)

    @pytest.mark.parametrize(
        "after",
        [(2, 4, 2), (3, 2, 2), (2, 2, 0)],
        ids=["h1 is not 2 h0", "2 h0 is not h1", "chi does not change sign"],
    )
    def test_each_conjunct_fails_alone(self, after):
        assert not twist_duality(self.BEFORE, after)
