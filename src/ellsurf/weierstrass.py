"""Weierstrass data for elliptic surfaces over P^1 and fiber classification.

A surface is given by a positive integer k together with forms p of
degree 4k and q of degree 6k, defining y^2 z = x^3 + p x z^2 + q z^3
fiberwise.  Admissible data must have a nonzero discriminant
Delta = 4 p^3 + 27 q^2 and must be minimal: no point of P^1 over the
complex numbers at which p vanishes to order >= 4 and q to order >= 6.

Singular fibers are classified by the standard short-Weierstrass
valuation table into Kodaira types; the sum of their Euler numbers must
come out to 12k exactly, which is asserted on every classification.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import _intpoly as ip
from .binform import BinForm, form_text
from .roots import INFINITY, CirclePoint, factor_order, rational_split


class WeierstrassError(ValueError):
    """Invalid Weierstrass data."""


class DeltaIdenticallyZero(WeierstrassError):
    def __init__(self):
        super().__init__("discriminant 4p^3 + 27q^2 vanishes identically")


class NonMinimal(WeierstrassError):
    """Some point carries p-order >= 4 and q-order >= 6.

    The witness is a circle point when some offending point is real,
    otherwise the squarefree form that cuts out the offending conjugate
    pairs.
    """

    def __init__(self, witness: Union[CirclePoint, BinForm]):
        self.witness = witness
        super().__init__(f"non-minimal Weierstrass data at {witness}")


@dataclass(frozen=True)
class WeierstrassTriple:
    """Validated Weierstrass data (k, p, q); build via validate()."""

    k: int
    p: BinForm
    q: BinForm

    @functools.cached_property
    def delta(self) -> BinForm:
        """The discriminant 4 p^3 + 27 q^2, built on first use and kept."""
        return 4 * self.p ** 3 + 27 * self.q ** 2

    @functools.cached_property
    def pq_gcd(self) -> list:
        """gcd(p, q) of the affine data (primitive, lc > 0), built on first use and kept.

        A zero form is the zero polynomial, so the gcd is then the other
        form's data.
        """
        return ip.gcd(self.p.num, self.q.num)

    @functools.cached_property
    def p_yun(self) -> Optional[list]:
        """Yun's decomposition of p's affine data, None for p = 0; built on first use and kept."""
        return None if self.p.is_zero else ip.yun_decomposition(self.p.num)

    @functools.cached_property
    def q_yun(self) -> Optional[list]:
        """Yun's decomposition of q's affine data, None for q = 0; built on first use and kept."""
        return None if self.q.is_zero else ip.yun_decomposition(self.q.num)

    @functools.cached_property
    def fibers(self) -> Tuple[FiberReport, ...]:
        """The fiber reports of classify_fibers, built on first use and kept."""
        return tuple(classify_fibers(self))

    @functools.cached_property
    def topology(self):
        """The RealTopologyReport of topology.betti, built on first use and kept.

        Raises NotRealGeneric, uncached, when some real singular fiber is
        not nodal.
        """
        from .topology import betti  # topology imports weierstrass

        return betti(self)


def validate(k: int, p: BinForm, q: BinForm) -> WeierstrassTriple:
    """Check degrees, nonzero discriminant and minimality; return the triple.

    Minimality is read from gcd(p, q) and the Yun decompositions of p
    and q, which the triple keeps for classification (_nonminimal_witness).
    """
    if k < 1:
        raise WeierstrassError("k must be a positive integer")
    if p.degree != 4 * k:
        raise WeierstrassError(f"p must have container degree {4 * k}, got {p.degree}")
    if q.degree != 6 * k:
        raise WeierstrassError(f"q must have container degree {6 * k}, got {q.degree}")
    t = WeierstrassTriple(k, p, q)
    if t.delta.is_zero:
        raise DeltaIdenticallyZero()
    witness = _nonminimal_witness(t)
    if witness is not None:
        raise NonMinimal(witness)
    return t


def _nonminimal_witness(t: WeierstrassTriple):
    """A witness of the minimality failure, or None when t is minimal.

    A point offends when p vanishes there to order >= 4 and q to order
    >= 6; a zero form imposes no condition.  Infinity is decided by the
    v-orders and comes first.  A finite offender is a root of gcd(p, q),
    so a constant gcd means minimal.  Otherwise, with P_i and Q_j the Yun
    components of p and q, the finite offenders are the roots of
    gcd(prod_{i>=4} P_i, prod_{j>=6} Q_j), which is squarefree; the
    witness is its first rational root, else its rest without rational
    roots (rational_split).
    """
    if all(f.is_zero or f.v_order_at_infinity() >= m for f, m in ((t.p, 4), (t.q, 6))):
        return INFINITY
    if ip.degree(t.pq_gcd) < 1:
        return None
    offenders = None
    for yun, m in ((t.p_yun, 4), (t.q_yun, 6)):
        if yun is None:
            continue
        high = [1]
        for comp, i in yun:
            if i >= m:
                high = ip.mul(high, comp)
        offenders = high if offenders is None else ip.gcd(offenders, high)
    if ip.degree(offenders) < 1:
        return None
    factor, pts = rational_split(offenders)[0]
    if pts:
        return pts[0]
    return BinForm.from_affine(ip.degree(factor), factor)


def normalize(t: WeierstrassTriple) -> WeierstrassTriple:
    """Canonical representative of the positive rescaling orbit.

    Coefficients become integers and no prime ro has ro^2 dividing the
    content of p together with ro^3 dividing the content of q.  Scaling
    factors are positive, so the sign of q is never absorbed: (p, -q)
    and (p, q) normalize to distinct triples.

    Nothing is factored.  A prime divides the scale mu only if it
    divides G = gcd(num cp, num cq) * den cp * den cq (num c * den c for
    the one nonzero content c): any other prime has valuation 0 in one
    content and >= 0 in the other.  G is trial-divided below 2^16, and
    what is left is 1 or, below 2^32, a prime.  A G with two prime
    factors >= 2^16 (counted with multiplicity) or one >= 2^32 is
    refused with ValueError.
    """
    contents = [(f.content, n) for f, n in ((t.p, 2), (t.q, 3)) if not f.is_zero]
    g = math.gcd(*(c.numerator for c, _ in contents)) * math.prod(
        c.denominator for c, _ in contents
    )
    mu = Fraction(1)
    for prime in _prime_divisors(g):
        mu *= Fraction(prime) ** min(_valuation(c, prime) // n for c, n in contents)
    return WeierstrassTriple(t.k, t.p * (1 / mu ** 2), t.q * (1 / mu ** 3))


_TRIAL_BOUND = 1 << 16


def _prime_divisors(g: int) -> List[int]:
    """The distinct primes of g >= 1, by trial division below 2^16.

    What the division leaves has no prime factor below 2^16, so it is 1
    or a prime when it is below 2^32; a larger rest raises ValueError.
    """
    primes = []
    d = 2
    while d < _TRIAL_BOUND and d * d <= g:
        if g % d == 0:
            primes.append(d)
            while g % d == 0:
                g //= d
        d += 1 if d == 2 else 2
    if g >= _TRIAL_BOUND ** 2:
        raise ValueError(
            f"content cofactor {g} has no prime factor below 2^16 and is not below 2^32"
        )
    if g > 1:
        primes.append(g)
    return primes


def _valuation(x: Fraction, prime: int) -> int:
    v = 0
    n = x.numerator
    while n % prime == 0:
        n //= prime
        v += 1
    d = x.denominator
    while d % prime == 0:
        d //= prime
        v -= 1
    return v


# ---------------------------------------------------------------------------
# Kodaira classification


@dataclass(frozen=True)
class KodairaType:
    """Kodaira symbol: kind in {I, II, III, IV, I*, IV*, III*, II*}.

    n is meaningful for kind I (n >= 1) and I* (n >= 0).
    """

    kind: str
    n: int = 0

    _EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}

    @property
    def euler_number(self) -> int:
        if self.kind == "I":
            return self.n
        if self.kind == "I*":
            return self.n + 6
        return self._EULER[self.kind]

    @property
    def symbol(self) -> str:
        if self.kind == "I":
            return f"I{self.n}"
        if self.kind == "I*":
            return f"I{self.n}*"
        return self.kind

    def __str__(self) -> str:
        return self.symbol


def kodaira_from_valuations(v_p: Optional[int], v_q: Optional[int], v_delta: int) -> KodairaType:
    """Standard short-Weierstrass table; None encodes an identically zero form.

    Assumes minimality at the point (min(3 v_p, 2 v_q) < 12), which holds
    for every validated triple.
    """
    INF = 10 ** 9
    vp = INF if v_p is None else v_p
    vq = INF if v_q is None else v_q
    if v_delta < 1:
        raise ValueError("not a singular fiber")
    if vp == 0:
        assert vq == 0, "v_q must vanish when v_p does at a discriminant zero"
        return KodairaType("I", v_delta)
    if vq == 1:
        assert v_delta == 2
        return KodairaType("II")
    if vp == 1 and vq >= 2:
        assert v_delta == 3
        return KodairaType("III")
    if vp >= 2 and vq == 2:
        assert v_delta == 4
        return KodairaType("IV")
    if vp == 2 and vq > 3:
        assert v_delta == 6
        return KodairaType("I*", 0)
    if vp >= 3 and vq == 3:
        assert v_delta == 6
        return KodairaType("I*", 0)
    if vp == 2 and vq == 3:
        assert v_delta >= 6
        return KodairaType("I*", v_delta - 6)
    if vp >= 3 and vq == 4:
        assert v_delta == 8
        return KodairaType("IV*")
    if vp == 3 and vq >= 5:
        assert v_delta == 9
        return KodairaType("III*")
    if vp >= 4 and vq == 5:
        assert v_delta == 10
        return KodairaType("II*")
    raise ValueError(f"valuations (v_p={v_p}, v_q={v_q}, v_delta={v_delta}) violate minimality")


@dataclass(frozen=True)
class ConjugatePairTag:
    """Non-real fibers grouped by the factor cutting them out.

    The factor is the part of one stratum of Delta (see classify_fibers)
    left after its rational roots are divided out, an integer tuple; it
    is squarefree and has no rational root, but need not be irreducible.
    """

    factor: Tuple[int, ...]
    pairs: int

    def __str__(self) -> str:
        return f"{self.pairs} conjugate pair(s) on {form_text(self.factor)}"


@dataclass(frozen=True)
class FiberReport:
    location: Union[CirclePoint, ConjugatePairTag]
    v_p: Optional[int]
    v_q: Optional[int]
    v_delta: int
    kodaira: KodairaType
    is_real: bool

    @property
    def multiplicity_weight(self) -> int:
        """Number of complex points this report stands for."""
        if isinstance(self.location, ConjugatePairTag):
            return 2 * self.location.pairs
        return 1


@dataclass(frozen=True)
class SurfaceInvariants:
    k: int
    chi_top: int
    h11: int
    b2: int

    @staticmethod
    def for_k(k: int) -> "SurfaceInvariants":
        return SurfaceInvariants(k=k, chi_top=12 * k, h11=10 * k, b2=12 * k - 2)


def classify_fibers(t: WeierstrassTriple) -> List[FiberReport]:
    """One report per singular fiber; conjugate pairs share a report.

    Delta is cut into strata with gcds only (_strata): squarefree pieces
    on whose roots (v_p, v_q, v_Delta) is constant, so no factoring and
    no arithmetic over extensions is needed.  Each piece is split into
    its rational linear factors and the rest (rational_split), and the
    reports follow those factors in factor_order, which is the order of
    the irreducible factors of Delta whenever every rest is irreducible.
    The Euler numbers are summed and checked against 12k.
    """
    units = []
    for piece, v_p, v_q, v_delta in _strata(t):
        kod = kodaira_from_valuations(v_p, v_q, v_delta)
        for factor, pts in rational_split(piece):
            units.append((factor, pts, v_p, v_q, v_delta, kod))
    units.sort(key=lambda unit: factor_order(unit[0]))

    reports: List[FiberReport] = []
    for factor, real_pts, v_p, v_q, v_delta, kod in units:
        for pt in real_pts:
            reports.append(FiberReport(pt, v_p, v_q, v_delta, kod, is_real=True))
        pairs = (ip.degree(factor) - len(real_pts)) // 2
        if pairs:
            tag = ConjugatePairTag(factor, pairs)
            reports.append(FiberReport(tag, v_p, v_q, v_delta, kod, is_real=False))

    v_delta_inf = t.delta.v_order_at_infinity()
    if v_delta_inf >= 1:
        v_p_inf = None if t.p.is_zero else t.p.v_order_at_infinity()
        v_q_inf = None if t.q.is_zero else t.q.v_order_at_infinity()
        kod = kodaira_from_valuations(v_p_inf, v_q_inf, v_delta_inf)
        reports.append(
            FiberReport(INFINITY, v_p_inf, v_q_inf, v_delta_inf, kod, is_real=True)
        )

    total_euler = sum(r.kodaira.euler_number * r.multiplicity_weight for r in reports)
    if total_euler != 12 * t.k:
        raise AssertionError(
            f"Euler numbers sum to {total_euler}, expected {12 * t.k}: "
            "fiber classification is inconsistent"
        )
    return reports


def _strata(t: WeierstrassTriple) -> list:
    """[(piece, v_p, v_q, v_Delta)]: squarefree pieces covering the finite roots of Delta.

    Every root of a piece has the same orders; None stands for a zero
    form.  v_Delta comes from Yun's decomposition of Delta.  Since
    Delta = 4p^3 + 27q^2, a root of Delta is a root of p exactly when it
    is one of q, i.e. a root of gcd(p, q); the rest of each component
    has v_p = v_q = 0.  The shared part is split by gcds with the Yun
    components of p and then of q, which the triple keeps and which are
    read only when some component shares a root with p and q.
    """
    shared = t.pq_gcd
    strata = []
    for g, v_delta in ip.yun_decomposition(t.delta.num):
        if ip.degree(shared) >= 1:
            common = ip.gcd(g, shared)
            if ip.degree(common) >= 1:
                g = ip.try_div_exact(g, common)
                for piece_p, v_p in _split_by_order(common, t.p_yun):
                    for piece, v_q in _split_by_order(piece_p, t.q_yun):
                        strata.append((piece, v_p, v_q, v_delta))
        if ip.degree(g) >= 1:
            strata.append((g, 0, 0, v_delta))
    return strata


def _split_by_order(s: list, yun: Optional[list]) -> list:
    """[(piece, m)]: squarefree s cut by the order m of f at its roots.

    Every root of s is a root of f; yun is f's Yun decomposition, or
    None for f = 0, which gives the single piece (s, None).
    """
    if yun is None:
        return [(s, None)]
    out = []
    left = ip.degree(s)
    for comp, m in yun:
        piece = ip.gcd(s, comp)
        if ip.degree(piece) >= 1:
            out.append((piece, m))
            left -= ip.degree(piece)
            if left == 0:
                break
    assert left == 0, "every root of s is a root of f"
    return out
