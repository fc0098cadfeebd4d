"""The cell-complex oracle and its agreement with the arc formulas.

These tests are what license the two derived sign conventions (two
circles iff the discriminant is negative; connected nodal locus iff q is
positive): the oracle never uses them, so exact agreement on a varied
corpus validates both.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from ellsurf import (
    INFINITY,
    BinForm,
    NotRealGeneric,
    compare,
    oracle_topology,
    twist,
    validate,
)
from ellsurf import _intpoly as ip
from ellsurf import oracle
from ellsurf.documents import triple_from_document
from ellsurf.fuzz import random_valid_triple

from conftest import U, V, fraction_coeffs, monomial


class TestKnownSurfaces:
    def test_w1(self, w1):
        res = oracle_topology(w1)
        assert res.triple() == (1, 2, 0)

    def test_twist_w1(self, w1):
        assert oracle_topology(twist(w1)).triple() == (1, 2, 0)

    def test_single_klein_bundle(self):
        t = validate(1, BinForm.from_affine(4, []), V ** 6 + U ** 6)
        assert oracle_topology(t).triple() == (1, 2, 0)

    def test_two_component_bundle(self):
        w = U * U + V * V
        t = validate(1, -(w ** 2), Fraction(1, 3) * w ** 3)
        assert oracle_topology(t).triple() == (2, 4, 0)

    def test_two_circle_arc_wrapping_through_infinity(self):
        # p = -3u^4, q = u^6 + v^6: nodal fibers at +-1 only, with the
        # two-circle arc running from 1 through infinity back to -1, so the
        # oval/branch split must survive the chart swap
        t = validate(1, -3 * U ** 4, U ** 6 + V ** 6)
        from ellsurf import arc_decomposition, betti

        dec = arc_decomposition(t)
        assert len(dec.points) == 2
        wrap_arc = dec.arcs[-1]
        assert wrap_arc.component_count == 2
        assert dec.arc_minus == 1 and dec.arc_plus == 0
        rep = betti(t)
        assert (rep.h0, rep.h1, rep.chi_top) == (1, 4, -2)
        assert rep.components == ("V4",)
        assert oracle_topology(t).triple() == (1, 4, -2)

    def test_euler_count_is_cellular(self, w1):
        res = oracle_topology(w1)
        assert res.chi == res.vertices - res.edges + res.faces

    def test_not_real_generic_refused(self):
        t = validate(1, monomial(4, 2), monomial(6, 3))
        with pytest.raises(NotRealGeneric):
            oracle_topology(t)


class TestRefinementInvariance:
    def test_extra_samples_do_not_change_w1(self, w1):
        base = oracle_topology(w1).triple()
        extra = [Fraction(1, 7), Fraction(-9, 2), Fraction(99), Fraction(5, 2)]
        assert oracle_topology(w1, extra_samples=extra).triple() == base

    def test_extra_samples_on_bundle(self):
        t = validate(1, BinForm.from_affine(4, []), V ** 6 + U ** 6)
        base = oracle_topology(t).triple()
        refined = oracle_topology(
            t, extra_samples=[Fraction(n, 3) for n in range(-6, 7)]
        ).triple()
        assert refined == base

    def test_extra_sample_at_cut_rejected(self, w1):
        with pytest.raises(ValueError):
            oracle_topology(w1, extra_samples=[Fraction(1)])

    def test_extra_samples_around_a_cut_at_infinity(self):
        # nodal fibers at one irrational point and at infinity: the arc after
        # infinity is sampled below the first cut, so its slice comes first
        from ellsurf.roots import FinitePoint, compare_with_rational

        t = validate(
            1, BinForm.make(4, [-1, 2, 7, -9, -3]), BinForm.make(6, [5, -2, -8, -4, -6, 2, 2])
        )
        base = oracle_topology(t)
        assert [s.kind for s in base.slices] == ["sample", "cut", "sample", "cut"]
        assert base.slices[-1].point == INFINITY
        extra = [Fraction(20), Fraction(1, 3), Fraction(-20), Fraction(0), Fraction(1, 3)]
        refined = oracle_topology(t, extra_samples=extra)
        assert refined.triple() == base.triple()
        assert len(refined.slices) == 8 and refined.slices[-1].point == INFINITY
        # no two cuts are adjacent, so each pair holds a rational sample
        finite = [s.point for s in refined.slices[:-1]]
        for a, b in zip(finite, finite[1:]):
            if isinstance(b, FinitePoint):
                assert compare_with_rational(a, b.value) < 0
            else:
                assert compare_with_rational(b, a.value) > 0


class TestVerdicts:
    def test_cell_count_verdict_survives_python_O(self):
        # a cap read as two loops takes 2 from chi at each of w1's six
        # collapses; h1 stays even, so the cell-count verdict must refuse,
        # also where python -O strips assert statements
        path = Path(__file__).resolve().parent / "golden" / "w1.triple.json"
        script = (
            "import ellsurf.oracle as o\n"
            "from ellsurf.documents import load_triple\n"
            "o._LOOPS['cap'] = 2\n"
            "try:\n"
            f"    o.oracle_topology(load_triple({str(path)!r}))\n"
            "except o.OracleDisagreement as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "cell count disagrees with nodal patterns\n"


class TestAgreement:
    def test_w1_and_twist(self, w1):
        compare(w1)
        compare(twist(w1))

    def test_chi_equals_nodal_count_fuzzed(self):
        rng = random.Random(41)
        seen = 0
        while seen < 12:
            t = random_valid_triple(rng, 1, height=6)
            try:
                dec_chi = None
                from ellsurf import arc_decomposition

                dec = arc_decomposition(t)
                dec_chi = dec.n_plus - dec.n_minus
            except NotRealGeneric:
                continue
            res = oracle_topology(t)
            assert res.chi == dec_chi
            assert res.h1 % 2 == 0
            seen += 1

    def test_twist_negates_oracle_chi_fuzzed(self):
        rng = random.Random(42)
        seen = 0
        while seen < 8:
            t = random_valid_triple(rng, 1, height=6)
            try:
                a = oracle_topology(t)
                b = oracle_topology(twist(t))
            except NotRealGeneric:
                continue
            assert b.chi == -a.chi
            seen += 1

    def test_full_agreement_fuzzed_k1_k2(self):
        rng = random.Random(43)
        for k in (1, 2):
            seen = 0
            while seen < 6:
                t = random_valid_triple(rng, k, height=5)
                try:
                    compare(t)
                except NotRealGeneric:
                    continue
                seen += 1

    def test_agreement_with_nodal_fiber_at_infinity(self):
        # leading coefficients (-3, 2) cancel the top of 4p^3 + 27q^2, so the
        # discriminant drops degree and infinity becomes a singular point
        from ellsurf import INFINITY, classify_fibers, validate
        from ellsurf.weierstrass import WeierstrassError

        rng = random.Random(44)
        seen = 0
        while seen < 4:
            p = BinForm.make(4, [rng.randint(-4, 4) for _ in range(4)] + [-3])
            q = BinForm.make(6, [rng.randint(-4, 4) for _ in range(6)] + [2])
            try:
                t = validate(1, p, q)
            except WeierstrassError:
                continue
            reports = classify_fibers(t)
            inf_nodal = any(
                str(r.location) == "inf" and r.kodaira.symbol == "I1" for r in reports
            )
            if not inf_nodal:
                continue
            try:
                compare(t)
            except NotRealGeneric:
                continue
            seen += 1


class TestSampleSlices:
    """Smooth slices against sympy's count of real roots of the fiber cubic."""

    @staticmethod
    def _distinct_real_roots(t, point):
        x = sympy.Symbol("x")
        values = []
        for form in (t.p, t.q):
            coeffs = [sympy.Rational(c.numerator, c.denominator) for c in fraction_coeffs(form)]
            if point == INFINITY:
                values.append(coeffs[-1])
            else:
                u = sympy.Rational(point.value.numerator, point.value.denominator)
                values.append(sum(c * u ** i for i, c in enumerate(coeffs)))
        cubic = sympy.Poly(x ** 3 + values[0] * x + values[1], x)
        return cubic.sqf_part().count_roots()

    def test_components_follow_the_cubic(self, w1):
        w = U * U + V * V
        surfaces = [w1, validate(1, -(w ** 2), Fraction(1, 3) * w ** 3)]
        rng = random.Random(46)
        for k in (1, 2, 3):
            found = 0
            while found < 3:
                t = random_valid_triple(rng, k)
                try:
                    oracle_topology(t)
                except NotRealGeneric:
                    continue
                surfaces.append(t)
                found += 1
        samples = 0
        for t in surfaces:
            for s in oracle_topology(t).slices:
                if s.kind != "sample":
                    continue
                roots = self._distinct_real_roots(t, s.point)
                assert roots in (1, 3)
                assert len(s.comps) == (2 if roots == 3 else 1), (t, s)
                samples += 1
        assert samples >= 2 * len(surfaces)


class TestWorkDoneOnce:
    @pytest.mark.parametrize("name", ["w1", "fractional-coefficients", "random-k3"])
    def test_compare_builds_each_forms_sturm_chain_once(self, monkeypatch, name):
        # no form of the surface gets a Sturm chain: the pipeline isolates
        # and signs without them, and the oracle builds one per distinct
        # fiber cubic (w1 has 12 sample points but 7 distinct cubics)
        cubics = []
        fiber_cubic_at = oracle._fiber_cubic_at

        def recording_cubic(t, pt):
            cubics.append(fiber_cubic_at(t, pt))
            return cubics[-1]

        samples = []
        sample_slice = oracle._sample_slice

        def recording_sample(t, pt, counts):
            samples.append(tuple(fiber_cubic_at(t, pt)))
            return sample_slice(t, pt, counts)

        chains = []
        sturm_chain = ip.sturm_chain

        def recording_chain(f):
            chains.append(f)
            return sturm_chain(f)

        monkeypatch.setattr(oracle, "_fiber_cubic_at", recording_cubic)
        monkeypatch.setattr(oracle, "_sample_slice", recording_sample)
        monkeypatch.setattr(ip, "sturm_chain", recording_chain)
        path = Path(__file__).parent / "golden" / f"{name}.triple.json"
        t = triple_from_document(json.loads(path.read_text(encoding="utf-8")))
        compare(t)
        assert all(any(f is c for c in cubics) for f in chains), "a chain of a non-cubic was built"
        assert sorted(map(tuple, chains)) == sorted(set(samples))
        if name == "w1":
            assert (len(samples), len(chains)) == (12, 7)
