"""Validation, discriminant, normalization and Kodaira classification."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsurf import (
    BinForm,
    DeltaIdenticallyZero,
    FinitePoint,
    InfinityPoint,
    NonMinimal,
    SurfaceInvariants,
    WeierstrassError,
    WeierstrassTriple,
    classify_fibers,
    normalize,
    validate,
)
from ellsurf import _intpoly as ip
from ellsurf.fuzz import random_valid_triple
from ellsurf.transforms import _family_g_h
from ellsurf.weierstrass import kodaira_from_valuations

from conftest import (
    U,
    V,
    fraction_coeffs,
    interlace_sextic,
    monomial,
    nonminimal_witness_reference,
    poly_mul,
    rescale,
    time_limit,
)


def _sympy_normalize(t):
    """normalize with its scale found by sympy.factorint: the reference."""

    def primes_of(x):
        return set(sympy.factorint(x.numerator)) | set(sympy.factorint(x.denominator))

    def valuation(x, prime):
        return sympy.multiplicity(prime, x.numerator) - sympy.multiplicity(prime, x.denominator)

    def largest_nth_power_divisor(x, n):
        mu = Fraction(1)
        for prime in primes_of(x):
            mu *= Fraction(prime) ** (valuation(x, prime) // n)
        return mu

    if t.p.is_zero:
        mu = largest_nth_power_divisor(t.q.content, 3)
    elif t.q.is_zero:
        mu = largest_nth_power_divisor(t.p.content, 2)
    else:
        cp = t.p.content
        cq = t.q.content
        mu = Fraction(1)
        for prime in primes_of(cp) | primes_of(cq):
            mu *= Fraction(prime) ** min(valuation(cp, prime) // 2, valuation(cq, prime) // 3)
    return WeierstrassTriple(t.k, t.p * (1 / mu ** 2), t.q * (1 / mu ** 3))


def _contents_triple(cp, cq):
    """A k = 1 triple whose p and q have the contents cp and cq; None is a zero form."""
    p = BinForm.from_affine(4, []) if cp is None else cp * (U ** 4 - 2 * V ** 4)
    q = BinForm.from_affine(6, []) if cq is None else cq * (U ** 6 + 3 * U * V ** 5)
    return WeierstrassTriple(1, p, q)


def _product(factors):
    out = Fraction(1)
    for prime, e in factors:
        out *= Fraction(prime) ** e
    return out


# primes below 2^16, and primes in [2^16, 2^32) of every bit length, with
# exponents of both signs
_PRIMES = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13, 65521]),
    st.integers(17, 32)
    .flatmap(lambda bits: st.integers(2 ** (bits - 1) + 2, 2 ** bits - 1))
    .map(sympy.prevprime),
)
_CONTENTS = st.lists(st.tuples(_PRIMES, st.integers(-7, 7)), max_size=3).map(_product)


class TestValidate:
    def test_istar_pair_is_valid(self):
        t = validate(1, monomial(4, 2), monomial(6, 3))
        assert t.delta == monomial(12, 6, 31)

    def test_nonminimal_at_zero(self):
        with pytest.raises(NonMinimal) as err:
            validate(1, monomial(4, 4), monomial(6, 6))
        w = err.value.witness
        assert isinstance(w, FinitePoint) and w.value == 0

    def test_nonminimal_at_infinity(self):
        with pytest.raises(NonMinimal) as err:
            validate(1, V ** 4, V ** 6)
        assert isinstance(err.value.witness, InfinityPoint)

    def test_delta_zero(self):
        with pytest.raises(DeltaIdenticallyZero):
            validate(1, BinForm.from_affine(4, []), BinForm.from_affine(6, []))

    def test_shared_low_order_vanishing_at_infinity_is_fine(self):
        # p and q both vanish at infinity, but to orders (1, 1) only
        validate(1, monomial(4, 3), monomial(6, 5))

    def test_degree_mismatch(self):
        with pytest.raises(WeierstrassError):
            validate(2, BinForm.from_affine(4, []), BinForm.from_affine(6, []))

    def test_q_degree_mismatch(self):
        with pytest.raises(WeierstrassError, match="q must have container degree 6, got 4"):
            validate(1, V ** 4, U ** 4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(WeierstrassError, match="k must be a positive integer"):
            validate(k, BinForm.from_affine(0, []), V ** 6)

    def test_nonminimal_conjugate_pair_witnessed_by_factor(self):
        w = U * U + V * V
        with pytest.raises(NonMinimal) as err:
            validate(2, w ** 4, w ** 6)
        assert isinstance(err.value.witness, BinForm)

    def test_witness_matches_derivative_chain_reference(self):
        seen = {"minimal": 0, "non-minimal": 0}

        @given(_minimality_pairs())
        @settings(max_examples=600, deadline=None, database=None, derandomize=True)
        def check(pair):
            k, p, q = pair
            assume(not (4 * p ** 3 + 27 * q ** 2).is_zero)
            expected = nonminimal_witness_reference(p, q)
            try:
                validate(k, p, q)
                got = None
            except NonMinimal as exc:
                got = str(exc.witness)
            assert got == expected
            seen["minimal" if expected is None else "non-minimal"] += 1

        check()
        assert sum(seen.values()) >= 500
        assert seen["non-minimal"] >= sum(seen.values()) / 10


def _shared_factor(draw, k):
    """An r of degree <= k: rational, at infinity, conjugate pair, irrational, or a product."""
    kind = draw(st.sampled_from(["rational", "infinity", "conjugate-pair", "irrational"]))
    if kind == "rational":
        r = U - draw(st.fractions(-4, 4, max_denominator=3)) * V
    elif kind == "infinity":
        r = V
    else:
        b = draw(st.integers(-3, 3))
        if kind == "conjugate-pair":
            c = Fraction(b * b // 4 + draw(st.integers(1, 4)))
        else:
            c = Fraction(b * b - draw(st.sampled_from([2, 3, 5, 6, 7])), 4)
        r = U * U + b * U * V + c * V * V
    if r.degree < k and draw(st.booleans()):
        r = r * (U - draw(st.integers(-3, 3)) * V)
    return r if r.degree <= k else V


def _small_form(draw, degree, height):
    return BinForm.make(degree, draw(st.lists(st.integers(-height, height), min_size=degree + 1, max_size=degree + 1)))


@st.composite
def _minimality_pairs(draw):
    """(k, p, q) at k <= 3: random, search-family, (r^4 p0, r^6 q0) or (r^i p0, r^j q0)."""
    k = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["random", "search", "r^4, r^6", "r^i, r^j"]))
    if family == "random":
        return k, _small_form(draw, 4 * k, 2), _small_form(draw, 6 * k, 2)
    if family == "search":
        h0 = draw(st.integers(1, 4 * k + 1))
        pairs = min(h0 - 1, 3 * k)
        g, h = _family_g_h(k, pairs, h0 - 1 - pairs, 0)
        eps = -(Fraction(1, 2) ** draw(st.integers(0, 39)))
        return k, -3 * g ** 2, 2 * g ** 3 + eps * h
    r = _shared_factor(draw, k)
    i, j = (4, 6) if family == "r^4, r^6" else (draw(st.integers(0, 4)), draw(st.integers(0, 6)))
    p = r ** i * _small_form(draw, 4 * k - i * r.degree, 3)
    q = r ** j * _small_form(draw, 6 * k - j * r.degree, 3)
    return k, p, q


class TestDiscriminant:
    def test_q_only(self):
        t = WeierstrassTriple(1, BinForm.from_affine(4, []), V ** 6)
        assert t.delta == 27 * V ** 12

    def test_monomials(self):
        t = validate(1, monomial(4, 2), monomial(6, 3))
        assert t.delta == monomial(12, 6, 31)

    def test_built_once_per_triple(self, w1):
        assert w1.delta is w1.delta

    def test_w1_factorization(self, w1):
        h = interlace_sextic()
        expected = 27 * h * (h + 4 * V ** 6)
        assert w1.delta == expected

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_form_arithmetic_on_fractional_triples(self, data):
        k = data.draw(st.integers(1, 2))
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
        p = BinForm.make(4 * k, data.draw(st.lists(coeff, min_size=4 * k + 1, max_size=4 * k + 1)))
        q = BinForm.make(6 * k, data.draw(st.lists(coeff, min_size=6 * k + 1, max_size=6 * k + 1)))
        delta = WeierstrassTriple(k, p, q).delta
        assert delta == 4 * p ** 3 + 27 * q ** 2
        # and coefficient by coefficient over Q, with no library product
        p3 = poly_mul(poly_mul(fraction_coeffs(p), fraction_coeffs(p)), fraction_coeffs(p))
        q2 = poly_mul(fraction_coeffs(q), fraction_coeffs(q))
        p3 += [Fraction(0)] * (12 * k + 1 - len(p3))
        q2 += [Fraction(0)] * (12 * k + 1 - len(q2))
        assert fraction_coeffs(delta) == tuple(4 * a + 27 * b for a, b in zip(p3, q2))


class TestRescaleNormalize:
    def test_rescale_identity_cases(self, w1):
        assert rescale(w1, Fraction(1)) == w1
        assert rescale(w1, Fraction(-1)) == w1  # even powers of lambda

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
        assert all(c.denominator == 1 for c in fraction_coeffs(n.p))
        assert all(c.denominator == 1 for c in fraction_coeffs(n.q))
        assert normalize(n) == n

    def test_normalize_on_valid_triple(self):
        t = validate(1, 16 * monomial(4, 2), 64 * monomial(6, 3))
        n = normalize(t)
        assert n.p == monomial(4, 2) and n.q == monomial(6, 3)

    def test_normalize_postconditions_on_fuzzed(self):
        rng = random.Random(321)
        for _ in range(10):
            t = random_valid_triple(rng, 1, height=9)
            n = normalize(rescale(t, Fraction(6, 5)))
            coeffs = fraction_coeffs(n.p) + fraction_coeffs(n.q)
            assert all(c.denominator == 1 for c in coeffs)
            if n.p.is_zero or n.q.is_zero:
                continue
            cp = n.p.content
            cq = n.q.content
            for prime in set(sympy.factorint(int(cp)).keys()) & set(
                sympy.factorint(int(cq)).keys()
            ):
                assert not (int(cp) % prime ** 2 == 0 and int(cq) % prime ** 3 == 0)
            assert normalize(n) == n


    @settings(max_examples=150, deadline=None)
    @given(cp=_CONTENTS, cq=_CONTENTS, which=st.sampled_from(["both", "p", "q"]))
    def test_normalize_matches_sympy_reference_or_refuses(self, cp, cq, which):
        contents = [c for c, zero in ((cp, which == "q"), (cq, which == "p")) if not zero]
        t = _contents_triple(None if which == "q" else cp, None if which == "p" else cq)
        g = math.gcd(*(c.numerator for c in contents)) * math.prod(
            c.denominator for c in contents
        )
        large = [
            prime for prime, e in sympy.factorint(g).items() for _ in range(e) if prime >= 2 ** 16
        ]
        if len(large) >= 2 or any(prime >= 2 ** 32 for prime in large):
            with pytest.raises(ValueError):
                normalize(t)
        else:
            assert normalize(t) == _sympy_normalize(t)

    @pytest.mark.parametrize(
        "cp,cq,refused",
        [
            (Fraction(65537 ** 2), Fraction(65537 ** 3), True),
            (Fraction(2 ** 32 + 15), Fraction(2 ** 32 + 15), True),
            (Fraction(1, 65537 * 65539), Fraction(1), True),
            (Fraction(65521 ** 2 * 3), Fraction(65521 ** 3), False),
            (Fraction(4294967291 * 9), Fraction(4294967291 * 27, 2), False),
        ],
    )
    def test_normalize_refusal_boundary(self, cp, cq, refused):
        t = _contents_triple(cp, cq)
        if refused:
            with pytest.raises(ValueError):
                normalize(t)
        else:
            assert normalize(t) == _sympy_normalize(t)

    def test_shared_semiprime_content_is_refused_quickly(self):
        n = sympy.nextprime(10 ** 22) * sympy.nextprime(3 * 10 ** 22)
        assert len(str(n)) == 45
        t = _contents_triple(Fraction(n), Fraction(n))
        with time_limit(5):
            with pytest.raises(ValueError):
                normalize(t)


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


def _euler_sum(reports):
    return sum(r.kodaira.euler_number * r.multiplicity_weight for r in reports)


class TestClassify:
    def test_two_istar_fibers(self):
        t = validate(1, monomial(4, 2), monomial(6, 3))
        reports = classify_fibers(t)
        assert sorted(r.kodaira.symbol for r in reports) == ["I0*", "I0*"]
        assert all((r.v_p, r.v_q, r.v_delta) == (2, 3, 6) for r in reports)
        inv = SurfaceInvariants.for_k(t.k)
        assert inv.chi_top == 12 and inv.h11 == 10 and inv.b2 == 10

    def test_iistar_plus_nodal(self):
        t = validate(1, -3 * V ** 4, monomial(6, 1))
        reports = classify_fibers(t)
        by_symbol = sorted((r.kodaira.symbol, str(r.location)) for r in reports)
        assert by_symbol == [("I1", "-2"), ("I1", "2"), ("II*", "inf")]

    def test_conjugate_pairs_only(self):
        t = validate(1, BinForm.from_affine(4, []), monomial(6, 6) + monomial(6, 0))
        reports = classify_fibers(t)
        assert all(not r.is_real for r in reports)
        assert all(r.kodaira.symbol == "II" for r in reports)
        assert sum(r.multiplicity_weight for r in reports) == 6

    def test_w1_all_nodal(self, w1):
        reports = classify_fibers(w1)
        assert len(reports) == 12
        assert all(r.is_real and r.kodaira.symbol == "I1" for r in reports)
        assert _euler_sum(reports) == 12

    def test_classification_rescale_invariant(self, w1):
        def key(t):
            reports = classify_fibers(t)
            return sorted(
                (r.kodaira.symbol, r.v_delta, r.is_real, r.multiplicity_weight)
                for r in reports
            )

        assert key(rescale(w1, Fraction(3, 2))) == key(w1)
        assert key(rescale(w1, Fraction(-7))) == key(w1)

    def test_istar_n_fiber(self):
        # p = -3 u^2 v^2, q = u^3 v^2 (2v + u): orders (2, 3, 7) at 0 give I1*,
        # (2, 2, 4) at infinity give IV, and the leftover simple zero is I1
        p = -3 * monomial(4, 2)
        q = monomial(6, 3, 2) + monomial(6, 4)
        t = validate(1, p, q)
        reports = classify_fibers(t)
        table = {str(r.location): (r.kodaira.symbol, r.kodaira.euler_number) for r in reports}
        assert table["0"] == ("I1*", 7)
        assert table["inf"] == ("IV", 4)
        assert table["-4"] == ("I1", 1)
        assert _euler_sum(reports) == 12

    def test_euler_sum_holds_on_random_triples(self):
        rng = random.Random(123)
        for k in (1, 2):
            for _ in range(15):
                t = random_valid_triple(rng, k, height=7)
                # also asserted inside classify_fibers
                assert _euler_sum(classify_fibers(t)) == 12 * k
