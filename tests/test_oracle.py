"""The cell-complex oracle and its agreement with the arc formulas.

These tests are what license the two derived sign conventions (two
circles iff the discriminant is negative; connected nodal locus iff q is
positive): the oracle never uses them, so exact agreement on a varied
corpus validates both.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
from ellsurf.documents import load_triple, triple_from_document
from ellsurf.fuzz import random_valid_triple
from ellsurf.oracle import OracleDisagreement
from ellsurf.roots import (
    AlgebraicPoint,
    FinitePoint,
    InfinityPoint,
    compare_with_rational,
    sample_between,
    sign_at,
)

import digest
from conftest import U, V, fraction_coeffs, monomial, off_delta

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_and_seeded():
    """The golden triples, then 16 seeded random ones at k = 1..4."""
    surfaces = [load_triple(str(path)) for path in sorted(GOLDEN.glob("*.triple.json"))]
    rng = random.Random(47)
    return surfaces + [random_valid_triple(rng, k) for k in (1, 2, 3, 4) for _ in range(4)]


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
        assert dec.circles[-1] == 2
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


def _second_samples(arcs):
    """A second rational in each arc: between the pipeline's sample and the
    next cut, or one step further out where the arc ends at or runs
    through infinity."""
    seconds = []
    for i, sample in enumerate(arcs.samples):
        nxt = arcs.points[(i + 1) % len(arcs.points)]
        if isinstance(nxt, InfinityPoint) or compare_with_rational(nxt, sample.value) < 0:
            seconds.append(sample.value + 1)
        else:
            seconds.append(sample_between(sample, nxt).value)
    return seconds


class TestRefinementInvariance:
    """The oracle's answer does not depend on the arc samples the pipeline chose."""

    def test_second_sample_in_each_arc_changes_nothing(self):
        surfaces = 0
        for t in _golden_and_seeded():
            try:
                arcs = t.topology.arcs
            except NotRealGeneric:
                continue
            if arcs is None:
                continue
            base = oracle_topology(t)
            seconds = _second_samples(arcs)
            assert all(b != s.value for b, s in zip(seconds, arcs.samples))
            moved = oracle_topology(_handing_cuts(t, arcs.points, seconds))
            assert moved.triple() == base.triple(), t
            assert (moved.vertices, moved.edges, moved.faces) == (base.vertices, base.edges, base.faces), t
            surfaces += 1
        assert surfaces >= 20

    def test_second_sample_around_a_cut_at_infinity(self):
        # nodal fibers at one irrational point and at infinity: the arc after
        # infinity is sampled below the first cut, so its slice comes first
        t = validate(
            1, BinForm.make(4, [-1, 2, 7, -9, -3]), BinForm.make(6, [5, -2, -8, -4, -6, 2, 2])
        )
        base = oracle_topology(t)
        assert [s.kind for s in base.slices] == ["sample", "cut", "sample", "cut"]
        assert base.slices[-1].point == INFINITY
        seconds = _second_samples(t.topology.arcs)
        moved = oracle_topology(_handing_cuts(t, t.topology.arcs.points, seconds))
        assert moved.triple() == base.triple()
        assert [s.kind for s in moved.slices] == ["sample", "cut", "sample", "cut"]
        assert moved.slices[0].point == FinitePoint(seconds[-1])
        assert moved.slices[-1].point == INFINITY


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

    def test_h1_verdict(self, w1, monkeypatch):
        # a wedge read as one loop adds 1 to chi at each of w1's six joins,
        # and chi = 6 makes h1 = 2 h0 - chi negative
        monkeypatch.setitem(oracle._LOOPS, "wedge", 1)
        with pytest.raises(OracleDisagreement, match=r"^h1 = -4 is not the first Betti number of a closed surface$"):
            oracle_topology(w1)


def _moving_cuts(t, move):
    """t with the pipeline's topology, each cut c handed on as move(c)."""
    rep = t.topology
    dec = dataclasses.replace(rep.arcs, points=tuple(map(move, rep.arcs.points)))
    t.__dict__["topology"] = dataclasses.replace(rep, arcs=dec)
    return t


def _handing_cuts(t, cuts, samples):
    """t with a topology that hands the oracle these cuts, the arc after
    cut i sampled at samples[i]: the only parts of it the oracle reads."""
    samples = tuple(FinitePoint(Fraction(x)) for x in samples)
    t.__dict__["topology"] = SimpleNamespace(
        h0=1, h1=2, chi_top=0, arcs=SimpleNamespace(points=tuple(cuts), samples=samples)
    )
    return t


class TestRefusals:
    """Each refusal of a slice fires through compare on a faulty hand-over of cuts."""

    def test_irrational_cuts_off_the_discriminant_are_refused(self):
        t = _moving_cuts(load_triple(str(GOLDEN / "random-k2.triple.json")), off_delta)
        with pytest.raises(OracleDisagreement, match=r"^the nodal cut root of .* is not a zero of the discriminant$"):
            compare(t)

    def test_irrational_cut_where_q_vanishes_is_refused(self):
        # type II fibers at +-sqrt(2): zeros of Delta where p and q vanish
        t = validate(1, (U * U - 2 * V * V) * (U * U + V * V), (U * U - 2 * V * V) * (U ** 4 + V ** 4))
        cuts = [r.location for r in t.fibers if r.is_real]
        assert [r.kodaira.symbol for r in t.fibers if r.is_real] == ["II", "II"]
        _handing_cuts(t, cuts, [0, 5])
        with pytest.raises(OracleDisagreement, match=r"^q vanishes at the nodal cut root of -2\*v\^2 \+ u\^2 in \(-3, 0\)$"):
            compare(t)

    def test_rational_cut_off_the_discriminant_is_refused(self):
        w1 = load_triple(str(GOLDEN / "w1.triple.json"))
        t = _moving_cuts(w1, lambda c: FinitePoint(Fraction(1001, 1000)) if c == FinitePoint(Fraction(1)) else c)
        with pytest.raises(OracleDisagreement, match=r"^fiber at the cut 1001/1000 is not nodal$"):
            compare(t)

    def test_sample_on_a_zero_of_the_discriminant_is_refused(self):
        # every arc of w1 sampled at its cut 1, where the cubic has a double root
        t = load_triple(str(GOLDEN / "w1.triple.json"))
        cuts = t.topology.arcs.points
        _handing_cuts(t, cuts, [1] * len(cuts))
        with pytest.raises(OracleDisagreement, match=r"^smooth real cubic with 2 real roots at 1; "):
            compare(t)

    def test_cut_without_a_sample_is_refused(self):
        # one sample short: the oracle must not drop the last cut
        t = load_triple(str(GOLDEN / "w1.triple.json"))
        cuts = t.topology.arcs.points
        _handing_cuts(t, cuts, [x.value for x in t.topology.arcs.samples[:-1]])
        with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is shorter than argument 1$"):
            compare(t)

    def test_cuts_handed_over_as_a_circle_bundle_are_refused(self):
        # no cuts: the oracle slices at 0 and infinity, where the real
        # circle counts differ across the surface's discriminant zeros
        t = load_triple(str(GOLDEN / "random-k1-two-components.triple.json"))
        t.__dict__["topology"] = SimpleNamespace(h0=1, h1=2, chi_top=0, arcs=None)
        with pytest.raises(OracleDisagreement, match=r"^circle count changed over an arc without a discriminant zero$"):
            compare(t)

    def test_cusp_at_a_rational_cut_is_refused(self):
        # type II fibers at -1 and 0: the fiber cubic is x^3, a triple root
        t = validate(1, U * V ** 3 + U ** 4, U * V ** 5 + U ** 6)
        cuts = [r.location for r in t.fibers if r.is_real]
        assert cuts == [FinitePoint(Fraction(0)), FinitePoint(Fraction(-1))]
        _handing_cuts(t, cuts, [Fraction(-1, 2), 1])
        with pytest.raises(OracleDisagreement, match=r"^fiber at the cut 0 is not nodal$"):
            compare(t)


class TestFiberCubics:
    @staticmethod
    def _reference(t, pt):
        """BinForm.from_affine(3, [q, p, 0, 1]).num from the Fraction values of p and q."""
        if pt == INFINITY:
            pv, qv = fraction_coeffs(t.p)[-1], fraction_coeffs(t.q)[-1]
        else:
            pv, qv = (sum(c * pt.value ** i for i, c in enumerate(fraction_coeffs(f))) for f in (t.p, t.q))
        return BinForm.from_affine(3, [qv, pv, Fraction(0), Fraction(1)]).num

    def test_integer_cubic_is_the_fraction_cubic(self):
        rational_cuts = samples = 0
        for t in _golden_and_seeded():
            points = [INFINITY, FinitePoint(Fraction(0)), FinitePoint(Fraction(-7, 3))]
            try:
                arcs = t.topology.arcs
            except NotRealGeneric:
                arcs = None
            if arcs is not None:
                cuts = [c for c in arcs.points if isinstance(c, FinitePoint)]
                rational_cuts += len(cuts)
                samples += len(arcs.samples)
                points += cuts + list(arcs.samples)
            for pt in points:
                assert oracle._fiber_cubic_at(t, pt) == self._reference(t, pt), (t, pt)
        assert rational_cuts >= 10 and samples >= 80


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
    def test_queries_after_the_topology_take_no_refinement_step(self, monkeypatch):
        # each cut is a node of its fiber point's refinement chain, which the
        # pipeline already walked: the oracle's sign of q and the twist's
        # types and samples (it shares the fibers) refine nothing further
        steps = []
        refine_interval = ip.refine_interval

        def counting(*args):
            steps.append(args)
            return refine_interval(*args)

        monkeypatch.setattr(ip, "refine_interval", counting)
        real_generic = 0
        for t in _golden_and_seeded():
            try:
                t.topology
            except NotRealGeneric:
                continue
            real_generic += 1
            steps.clear()
            compare(t)
            assert not steps, t
            twist(t).topology
            assert not steps, t
        assert real_generic >= 30

    def test_compare_after_the_topology_signs_nothing_again(self, monkeypatch):
        # the oracle's sign of q at each irrational cut is the answer the
        # pipeline recorded at that same point object
        calls = Counter()
        for name in ("variations_in", "gcd", "eval_sign"):
            def counting(*args, _name=name, _kernel=getattr(ip, name)):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(ip, name, counting)
        irrational = 0
        for t in _golden_and_seeded():
            try:
                arcs = t.topology.arcs
            except NotRealGeneric:
                continue
            irrational += arcs is not None and any(isinstance(c, AlgebraicPoint) for c in arcs.points)
            calls.clear()
            compare(t)
            assert not calls, t
        assert irrational >= 20

    def test_the_twist_signs_minus_q_afresh(self, monkeypatch):
        # -q is not answered from q's record: the twist's nodal types are
        # decided again, with the same Descartes queries as q's
        calls = []
        variations_in = ip.variations_in

        def counting(*args):
            calls.append(args)
            return variations_in(*args)

        monkeypatch.setattr(ip, "variations_in", counting)
        signed = 0
        for t in _golden_and_seeded():
            t.fibers
            calls.clear()
            try:
                t.topology
            except NotRealGeneric:
                continue
            on_q = len(calls)
            calls.clear()
            twist(t).topology
            assert len(calls) == on_q, t
            signed += on_q
        assert signed >= 100

    def test_a_record_never_changes_an_answer(self):
        # q, -q, Delta and the cut's own defining form, asked twice in both
        # orders at the pipeline's cut and at a fresh equal point, give
        # what a point with an empty record gives
        cuts = 0
        for t in _golden_and_seeded():
            try:
                arcs = t.topology.arcs
            except NotRealGeneric:
                continue
            for c in arcs.points if arcs is not None else ():
                if not isinstance(c, AlgebraicPoint):
                    continue
                cuts += 1
                forms = [t.q, -t.q, t.delta, BinForm.make(len(c.defining) - 1, c.defining)]
                expected = {g: sign_at(g, AlgebraicPoint(c.defining, c.lo, c.hi)) for g in forms}
                assert expected[forms[-1]] == 0 and expected[t.q] == -expected[-t.q] != 0
                for order in (forms, forms[::-1]):
                    for pt in (c, AlgebraicPoint(c.defining, c.lo, c.hi)):
                        assert [sign_at(g, pt) for g in order for _ in "ab"] == [
                            expected[g] for g in order for _ in "ab"
                        ], (t, c)
        assert cuts >= 40

    def test_a_filled_record_leaves_equality_and_hashing(self):
        t = load_triple(str(GOLDEN / "random-k2.triple.json"))
        c = next(c for c in t.topology.arcs.points if isinstance(c, AlgebraicPoint))
        bare = AlgebraicPoint(c.defining, c.lo, c.hi)
        assert c.signs and "signs" not in vars(bare)
        assert bare == c and hash(bare) == hash(c) and repr(bare) == repr(c)
        assert Counter([c]) == Counter([bare])

    def test_p_q_and_delta_are_decomposed_at_most_once(self, monkeypatch):
        # validate reads minimality from pq_orders, the fibers read it again
        # with Delta's decomposition, and the twist takes both over
        decomposed = []
        yun_decomposition = ip.yun_decomposition

        def counting(f):
            decomposed.append(tuple(ip.monic_sign(f)))
            return yun_decomposition(f)

        monkeypatch.setattr(ip, "yun_decomposition", counting)
        docs = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(GOLDEN.glob("*.triple.json"))]
        docs += [doc for _, doc, minimal in digest.validate_documents() if minimal]
        p_and_q = 0
        for doc in docs:
            decomposed.clear()
            t = triple_from_document(doc)
            t.fibers
            twist(t).fibers
            forms = [tuple(ip.monic_sign(f.num)) for f in (t.p, t.q, t.delta) if not f.is_zero]
            assert sorted(decomposed) == sorted(set(decomposed)), doc
            assert set(decomposed) <= set(forms), doc
            p_and_q += not (t.p.is_zero or t.q.is_zero) and set(forms[:2]) <= set(decomposed)
        assert p_and_q >= 6

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
