"""Twist, I0* step, iteration and the extremal search."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ellsurf import (
    AlgebraicPoint,
    BinForm,
    FinitePoint,
    InvalidI0StarParams,
    SearchBudget,
    betti,
    classify_fibers,
    i0star_transform,
    make_params,
    normalize,
    search_extremal,
    sign_at,
    twist,
    validate,
    verify_i0star,
    verify_twist,
)
from ellsurf import _intpoly as ip
from ellsurf.documents import triple_from_document
from ellsurf.fuzz import random_valid_triple
from ellsurf.oracle import OracleDisagreement, compare, oracle_topology
from ellsurf.topology import (
    I1_MINUS,
    I1_PLUS,
    CheckItem,
    NotRealGeneric,
    Verification,
    arc_decomposition,
)
from ellsurf.transforms import _family_g_h, _floor_log2
from ellsurf.weierstrass import WeierstrassError, WeierstrassTriple

import digest
from conftest import U, V, iterate_i0star



class TestTwist:
    def test_involution_after_normalize(self, w1):
        assert normalize(twist(twist(w1))) == normalize(w1)

    def test_preserves_discriminant(self, w1):
        tw = twist(w1)
        assert tw.delta == 4 * tw.p ** 3 + 27 * tw.q ** 2 == w1.delta

    def test_hands_the_discriminant_on(self, w1):
        assert twist(w1).delta is w1.delta

    def test_hands_the_fiber_reports_on(self):
        rng = random.Random(31)
        for k in (1, 2, 3, 4):
            for _ in range(4):
                t = random_valid_triple(rng, k)
                assert "fibers" not in twist(t).__dict__  # t has not built them
                reports = t.fibers
                tw = twist(t)
                assert tw.__dict__["fibers"] is reports
                assert list(tw.fibers) == classify_fibers(WeierstrassTriple(t.k, t.p, -t.q))

    def test_hands_the_common_root_orders_on(self):
        # validate builds pq_orders; the twist's minimality and strata read the same record
        shared = 0
        for name, doc, minimal in digest.validate_documents():
            if not minimal:
                continue
            t = triple_from_document(doc)
            assert "pq_orders" in t.__dict__, name
            if t.pq_orders:
                assert twist(t).pq_orders is t.pq_orders, name
                shared += 1
        assert shared >= 6

    def test_builds_the_topology_anew(self, w1):
        before = w1.topology
        tw = twist(w1)
        assert "topology" not in tw.__dict__
        assert tw.topology == betti(WeierstrassTriple(w1.k, w1.p, -w1.q))
        assert tw.topology.arcs.types == tuple(ty.flipped() for ty in before.arcs.types)

    def test_search_candidate_and_twist_share_one_gcd_and_yun_of_p_and_q(self, monkeypatch):
        # h0 = 5 at k = 2: p = -3g^2 and q = 2g^3 - 2^-10 h share u^2 + v^2
        g, h = _family_g_h(2, 4, 0, 0)
        p, q = -3 * g ** 2, 2 * g ** 3 - Fraction(1, 2 ** 10) * h
        pa, qa = p.num, q.num
        yun_of, gcd_of = [], []
        yun_decomposition, gcd = ip.yun_decomposition, ip.gcd

        def counting_yun(f):
            yun_of.append(ip.monic_sign(f))
            return yun_decomposition(f)

        def counting_gcd(f, g):
            gcd_of.append(sorted([ip.monic_sign(f), ip.monic_sign(g)]))
            return gcd(f, g)

        monkeypatch.setattr(ip, "yun_decomposition", counting_yun)
        monkeypatch.setattr(ip, "gcd", counting_gcd)
        t = validate(2, p, q)
        t.fibers
        twisted = twist(t)
        assert any(r.kodaira.symbol == "IV" for r in twisted.fibers)
        assert yun_of.count(ip.monic_sign(pa)) == 1
        assert yun_of.count(ip.monic_sign(qa)) == 1
        assert gcd_of.count(sorted([ip.monic_sign(pa), ip.monic_sign(qa)])) == 1

    def test_preserves_complex_fiber_data(self, w1):
        def key(t):
            reports = classify_fibers(t)
            return sorted(
                (r.kodaira.symbol, r.v_delta, r.multiplicity_weight) for r in reports
            )

        assert key(twist(w1)) == key(w1)

    def test_w1_types_fully_swapped(self, w1):
        dec = arc_decomposition(twist(w1))
        rational = [ty for pt, ty in zip(dec.points, dec.types) if isinstance(pt, FinitePoint)]
        algebraic = [ty for pt, ty in zip(dec.points, dec.types) if isinstance(pt, AlgebraicPoint)]
        assert all(ty == I1_PLUS for ty in rational)  # were I1- before the twist
        assert all(ty == I1_MINUS for ty in algebraic)

    def test_type_multiset_swapped_on_fuzzed(self):
        from ellsurf import NotRealGeneric

        rng = random.Random(13)
        seen = 0
        while seen < 10:
            t = random_valid_triple(rng, 1, height=6)
            try:
                dec = arc_decomposition(t)
                dec2 = arc_decomposition(twist(t))
            except NotRealGeneric:
                continue
            assert (dec2.n_plus, dec2.n_minus) == (dec.n_minus, dec.n_plus)
            seen += 1


class TestVerifyTwist:
    def test_discriminant_is_rebuilt_not_read(self):
        # a wrong q that carries the input's Delta, as twist hands it on;
        # both sides are circle bundles with one component, so only the
        # rebuilt discriminant can tell
        t = validate(1, BinForm.from_affine(4, []), U ** 6 + V ** 6)
        bad = WeierstrassTriple(t.k, t.p, 2 * t.q)
        bad.__dict__["delta"] = t.delta
        ver = verify_twist(t, bad)
        assert [c.name for c in ver.failures()] == ["discriminant_unchanged"]


class TestI0StarParams:
    def test_equal_centers_rejected(self, w1):
        with pytest.raises(InvalidI0StarParams):
            make_params(w1, 1, 1)

    def test_center_on_discriminant_zero_rejected(self, w1):
        with pytest.raises(InvalidI0StarParams):
            make_params(w1, 1, 7)  # u = 1 is a nodal fiber of w1

    def test_swapped_order_normalized(self, w1):
        params = make_params(w1, 5, 4)
        assert params.a == 4 and params.b == 5


class TestI0StarTransform:
    def test_discriminant_relation_and_k(self, w1):
        params = make_params(w1, 4, 5)
        y = i0star_transform(w1, params)
        assert y.k == 2
        r = BinForm.from_linear_roots([4, 5])
        assert y.delta == r ** 6 * w1.delta

    def test_j_preserved(self, w1):
        params = make_params(w1, 4, 5)
        y = i0star_transform(w1, params)
        # j is a function of p^3 : q^2, and the two ratios coincide
        assert w1.p ** 3 * y.q ** 2 == y.p ** 3 * w1.q ** 2

    def test_verify_no_flips_outside(self, w1):
        params = make_params(w1, 4, 5)
        y = i0star_transform(w1, params)
        ver = verify_i0star(w1, params, y)
        assert ver.ok, ver.failures()

    def test_other_fibers_compare_every_field(self, w1):
        # one report of Y away from a and b with the wrong v_p: its location
        # and Kodaira type still match X, the report as a whole does not
        params = make_params(w1, 4, 5)
        y = i0star_transform(w1, params)
        fibers = list(y.fibers)
        i = next(i for i, r in enumerate(fibers) if isinstance(r.location, AlgebraicPoint))
        fibers[i] = dataclasses.replace(fibers[i], v_p=fibers[i].v_p + 1)
        y.__dict__["fibers"] = tuple(fibers)
        failed = [c.name for c in verify_i0star(w1, params, y).failures()]
        assert failed == ["other_fibers_unchanged"]

    def test_verify_exact_flip_set(self, w1):
        # centers (0, 5/2): flips exactly the four nodal points in (0, 5/2),
        # namely r4 in (0,1), u = 1, u = 2 and r5 in (2, 5/2)
        params = make_params(w1, 0, Fraction(5, 2))
        y = i0star_transform(w1, params)
        ver = verify_i0star(w1, params, y)
        assert ver.ok, ver.failures()
        dec_x = arc_decomposition(w1)
        flipped = []
        for pt, ty in zip(dec_x.points, dec_x.types):
            # y has real I0* fibers, so its arc decomposition is refused;
            # the nodal type of y at pt is I1- iff q_y > 0 there
            if (I1_MINUS if sign_at(y.q, pt) > 0 else I1_PLUS) != ty:
                flipped.append(pt)
        assert len(flipped) == 4
        values = sorted(pt.value for pt in flipped if isinstance(pt, FinitePoint))
        assert values == [1, 2]
        irrational = [pt for pt in flipped if isinstance(pt, AlgebraicPoint)]
        assert len(irrational) == 2
        # r4 lies in (0, 1), r5 in (2, 5/2)
        mids = sorted((pt.lo + pt.hi) / 2 for pt in irrational)
        assert 0 < mids[0] < 1 and 2 < mids[1] < Fraction(5, 2)

    def test_verify_with_q_identically_zero(self):
        # r^3 * 0 = 0: the new I0* fibers have no valuation of q
        t = validate(1, U ** 4 - V ** 4, BinForm.from_affine(6, []))
        params = make_params(t, 4, 5)
        y = i0star_transform(t, params)
        ver = verify_i0star(t, params, y)
        assert ver.ok, ver.failures()
        reports = classify_fibers(y)
        at_centers = [
            r for r in reports if isinstance(r.location, FinitePoint) and r.location.value in (4, 5)
        ]
        assert [(r.v_p, r.v_q, r.v_delta, r.kodaira.symbol) for r in at_centers] == [
            (2, None, 6, "I0*")
        ] * 2

    def test_sum_euler_grows_by_12(self, w1):
        params = make_params(w1, 4, 5)
        y = i0star_transform(w1, params)
        def euler_sum(t):
            return sum(r.kodaira.euler_number * r.multiplicity_weight for r in classify_fibers(t))

        assert euler_sum(y) == euler_sum(w1) + 12

    def test_fuzzed_verification(self):
        rng = random.Random(9)
        done = 0
        while done < 6:
            t = random_valid_triple(rng, 1, height=5)
            pairs = [(Fraction(17), Fraction(19)), (Fraction(-23), Fraction(29, 2))]
            for a, b in pairs:
                try:
                    params = make_params(t, a, b)
                except InvalidI0StarParams:
                    continue
                y = i0star_transform(t, params)
                ver = verify_i0star(t, params, y)
                assert ver.ok, ver.failures()
                done += 1
                break


class TestIterate:
    def test_empty_is_identity(self, w1):
        assert iterate_i0star(w1, []) == w1

    def test_two_steps(self, w1):
        y = iterate_i0star(w1, [(4, 5), (6, 7)])
        assert y.k == 3
        reports = classify_fibers(y)
        istars = [r for r in reports if r.kodaira.symbol == "I0*"]
        assert len(istars) == 4


class TestSearch:
    def test_floor_log2_against_brute_force(self):
        def reference(x):
            e = 0
            while Fraction(2) ** e > x:
                e -= 1
            while Fraction(2) ** (e + 1) <= x:
                e += 1
            return e

        rng = random.Random(37)
        xs = [Fraction(2) ** e + d for e in range(-40, 41) for d in (0, Fraction(1, 2 ** 50), -Fraction(1, 2 ** 50))]
        xs += [
            Fraction(rng.randint(1, 2 ** rng.randint(1, 80)), rng.randint(1, 2 ** rng.randint(1, 80)))
            for _ in range(2000)
        ]
        for x in xs:
            assert _floor_log2(x) == reference(x), x

    def test_bound_rejected_immediately(self):
        res = search_extremal(1, 6, SearchBudget())
        assert not res.found and "bound" in res.reason

    def test_no_component_rejected_immediately(self):
        # the CLI refuses --components 0 before it calls search_extremal
        res = search_extremal(1, 0, SearchBudget())
        assert (res.found, res.candidates_tried, res.reason) == (False, 0, "h0 must be at least 1")

    @pytest.mark.parametrize("target", [1, 2, 3, 4, 5])
    def test_k1_targets(self, target):
        res = search_extremal(1, target, SearchBudget(max_candidates=128, rng_seed=0))
        assert res.found, res.reason
        rep = betti(res.triple)
        assert rep.h0 == target
        compare(res.triple)  # oracle agreement

    def test_twist_of_extremal_attains_betti_equality(self):
        res = search_extremal(1, 5, SearchBudget(max_candidates=128, rng_seed=0))
        assert res.found
        rep = betti(twist(res.triple))
        assert rep.h1 == 10  # h^{1,1} = 10k at k = 1
        compare(twist(res.triple))

    def test_failed_bound_check_raises(self, monkeypatch):
        import ellsurf.transforms

        real = ellsurf.transforms.check_bounds
        monkeypatch.setattr(
            ellsurf.transforms,
            "check_bounds",
            lambda report, k: Verification(tuple(
                CheckItem(c.name, False) if c.name == "h1_le_10k" else c for c in real(report, k).checks
            )),
        )
        with pytest.raises(AssertionError, match="bounds failed .*: h1_le_10k$"):
            search_extremal(1, 3, SearchBudget())

    def test_oracle_disagreement_raises(self, monkeypatch):
        import ellsurf.transforms

        def disagree(*args, **kwargs):
            raise OracleDisagreement("pipeline and oracle differ")

        monkeypatch.setattr(ellsurf.transforms, "compare", disagree)
        with pytest.raises(OracleDisagreement):
            search_extremal(1, 3, SearchBudget())

    def test_deterministic(self):
        a = search_extremal(1, 3, SearchBudget(max_candidates=64, rng_seed=5))
        b = search_extremal(1, 3, SearchBudget(max_candidates=64, rng_seed=5))
        assert a.triple == b.triple and a.candidates_tried == b.candidates_tried

    def test_k2_target(self):
        res = search_extremal(2, 7, SearchBudget(max_candidates=128, rng_seed=0))
        assert res.found, res.reason
        assert betti(res.triple).h0 == 7

    @pytest.mark.parametrize("k,target", [(2, 9), (3, 13)])
    def test_higher_k_with_sign_windows(self, k, target):
        # 4k + 1 components needs every h-root pair plus k dip windows
        res = search_extremal(k, target, SearchBudget(max_candidates=64, rng_seed=0))
        assert res.found, res.reason
        assert betti(res.triple).h0 == target

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_component_at_higher_k(self, k):
        # the padding of h used to make every candidate non-minimal here
        res = search_extremal(k, 1, SearchBudget(max_candidates=128, rng_seed=0))
        assert res.found, res.reason
        assert oracle_topology(res.triple).h0 == 1

    def test_unreachable_target_reports_reason(self):
        res = search_extremal(2, 10, SearchBudget(max_candidates=64, rng_seed=0))
        assert not res.found
        assert "windows" in res.reason

    def test_skipped_rungs_miss_h0(self, monkeypatch):
        # Reference for the skip in search_extremal: every rung it counts
        # but does not build, run through the whole pipeline, misses h0.
        import ellsurf.transforms as tr

        built = []
        build = tr._build_candidate

        def recording(k, p, two_g3, h, j):
            built.append(j)
            return build(k, p, two_g3, h, j)

        monkeypatch.setattr(tr, "_build_candidate", recording)
        skipped = 0
        for k in (1, 2, 3):
            for target in range(2, 3 * k + 2):  # dips == 0: pairs = target - 1
                built.clear()
                res = search_extremal(k, target, SearchBudget(max_candidates=128))
                assert res.found, res.reason
                g, h = tr._family_g_h(k, target - 1, 0, 0)
                ladder = tr._eps_ladder(g, h, k, 0, 0)[: res.candidates_tried]
                for j in (j for j in ladder if j not in built):
                    skipped += 1
                    q = 2 * g ** 3 - Fraction(1, 2) ** j * h
                    try:
                        h0 = twist(validate(k, -3 * g ** 2, q)).topology.h0
                    except (WeierstrassError, NotRealGeneric):
                        continue
                    assert h0 < target, (k, target, j)
        assert skipped == 36
