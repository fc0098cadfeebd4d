"""Dense univariate polynomial arithmetic over Z.

A polynomial is a list (or, as input, a tuple, which nothing here
mutates) of integer coefficients in ascending order of degree, with no
trailing zeros; the zero polynomial is empty.  A binary form hands over
its stored integer numerator, since only signs, root locations and
exact divisibility matter here.

This module is the exact kernel underneath the binary-form layer: gcd
and squarefree decomposition, rational roots by p-adic lifting,
continued-fraction real root isolation that returns the intervals of
dyadic bisection, Descartes' rule of signs on an interval, and Sturm
chains, which only the oracle's root counts use.  Nothing is ever
factored into irreducibles.  No floating point anywhere.

gcd is heuristic first (GCDHEU; Char, Geddes & Gonnet 1989): the
integer gcd of the values at a large integer xi is read back as a
polynomial from its symmetric xi-adic digits, and the candidate is
kept only when it divides both inputs exactly, which for xi above
2 min(|f|, |g|) + 2 proves it is the gcd.  After a few failed xi the
primitive pseudo-remainder sequence (prs_gcd) decides.  Division is
fraction-free: exact division is integer long division by the
primitive part of the divisor, which stops at the first inexact step,
and the remainder sequences and Sturm chains use integer
pseudo-remainders with a positive multiplier (Collins; Brown & Traub).
Every rescaling is by a positive integer, so the primitive remainders
and the quotients equal those of division over Q.

Rational roots are p-adic (Loos 1983): Newton lifting of the roots of
f mod a small prime p, then rational reconstruction.  A prime is
dropped at its first residue where f' vanishes too, since only
simple roots mod p lift uniquely.  Each lift stops at the first level
whose reconstructed candidate, seen at the level before as well,
divides f exactly; the height that proves every root, 2 C^2 for
C = max(|lc f|, |f(0)|), is reached only by lifts that meet no root
on the way.  The answer is the same as with every lift at full
height: exact division admits only roots, and a residue mod p holds
at most one root, since its roots are simple.

Isolation takes what rational_roots leaves: squarefree, primitive,
lc > 0 and without a rational root.  Every root it meets is therefore
irrational and comes back as an open interval; a rational root hit
on the way is a broken contract and raises ValueError.  The roots are
isolated by the continued-fraction method (integer Taylor shifts,
x -> 1 / (1 + x) and Descartes' rule), and the intervals handed out
are those that Sturm bisection of the Cauchy interval gives, rebuilt
from the continued-fraction ones with one evaluation per split at
most.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt
from typing import Optional, Sequence

IntPoly = list  # list[int] (a tuple as input), ascending, stripped


def strip(coeffs: Sequence[int]) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(f: IntPoly) -> int:
    """Degree of f, with the zero polynomial mapped to -1."""
    return len(f) - 1


def add(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return strip(out)


def neg(f: IntPoly) -> IntPoly:
    return [-c for c in f]


def sub(f: IntPoly, g: IntPoly) -> IntPoly:
    return add(f, neg(g))


def mul(f: IntPoly, g: IntPoly) -> IntPoly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def derivative(f: IntPoly) -> IntPoly:
    return strip([i * f[i] for i in range(1, len(f))])


def content(f: IntPoly) -> int:
    """Positive gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in f:
        g = int_gcd(g, c)
    return g


def primitive(f: IntPoly) -> IntPoly:
    """Divide out the content, keeping the sign of the leading coefficient."""
    c = content(f)
    if c <= 1:
        return list(f)
    return [a // c for a in f]


def monic_sign(f: IntPoly) -> IntPoly:
    """Primitive part normalized to positive leading coefficient."""
    g = primitive(f)
    if g and g[-1] < 0:
        g = neg(g)
    return g


def eval_hom(f: IntPoly, num: int, den: int) -> int:
    """den^deg(f) * f(num/den) = sum_i c_i num^i den^(d-i), an integer.

    Horner-style with one factor of den folded in per step; 0 for the
    zero polynomial.
    """
    if not f:
        return 0
    total = f[-1]
    dp = 1
    for c in reversed(f[:-1]):
        dp *= den
        total = total * num + c * dp
    return total


def eval_int_sign(f: IntPoly, num: int, den: int) -> int:
    """Sign of f(num/den) with den > 0, computed in integers."""
    total = eval_hom(f, num, den)
    return (total > 0) - (total < 0)


def eval_sign(f: IntPoly, x: Fraction) -> int:
    return eval_int_sign(f, x.numerator, x.denominator)


def _pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """R with c*f = Q*g + R, deg R < deg g, c = |lc g|^(deg f - deg g + 1).

    The multiplier c is a positive integer, so R is a positive multiple
    of the remainder over Q.  When deg f < deg g the result is f.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(f) - len(g) + 1
    if n <= 0:
        return list(f)
    a = abs(g[-1])
    dg = len(g) - 1
    # with lc g = sg * a, step k replaces r by a*r - t x^k g for
    # t = sg * lc r, which cancels the leading term
    sg = 1 if g[-1] > 0 else -1
    r = list(f)
    for k in range(n - 1, -1, -1):
        t = r.pop() * sg
        if a != 1:
            r = [a * x for x in r]
        if t:
            for i in range(dg):
                r[k + i] -= t * g[i]
    return strip(r)


def _div_exact(f: IntPoly, g: IntPoly) -> Optional[IntPoly]:
    """f / g in Z[x] for primitive g, or None when g does not divide f.

    By Gauss's lemma a primitive g divides f over Q exactly when the
    quotient is integral, so long division with integer quotients
    decides it and stops at the first leading coefficient that lc g
    does not divide.
    """
    n = len(f) - len(g) + 1
    if n <= 0:
        return None if f else []
    lc = g[-1]
    dg = len(g) - 1
    r = list(f)
    q = [0] * n
    for k in range(n - 1, -1, -1):
        t, m = divmod(r[k + dg], lc)
        if m:
            return None
        if t:
            q[k] = t
            for i in range(dg):
                r[k + i] -= t * g[i]
    if any(r[:dg]):
        return None
    return q


def try_div_exact(f: IntPoly, g: IntPoly) -> Optional[IntPoly]:
    """f / g when g divides f exactly over Q, with denominators cleared, else None.

    The result is the quotient over Q scaled by the least positive
    integer that makes it integral: with g = c g' and g' primitive,
    that is (f / g') / gcd(c, content(f / g')).
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return []
    c = content(g)
    q = _div_exact(f, [x // c for x in g])
    if q is None:
        return None
    d = int_gcd(c, content(q))
    return [x // d for x in q]


def gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient.

    GCDHEU decides it in all but rare cases; prs_gcd decides the rest.
    """
    a, b = monic_sign(f), monic_sign(g)
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        return [1]
    h = _heu_gcd(a, b)
    return prs_gcd(a, b) if h is None else h


# failed evaluation points before gcd falls back to prs_gcd
_HEU_GCD_TRIES = 6


def _heu_gcd(a: IntPoly, b: IntPoly) -> Optional[IntPoly]:
    """gcd of a and b (primitive, lc > 0, degree >= 1) from integer gcds, or None.

    The integer gcd of a(xi) and b(xi) is written in symmetric xi-adic
    digits, which are the coefficients of a candidate; its primitive
    part is the gcd exactly when it divides both a and b, provided
    xi >= 2 min(|a|, |b|) + 2 (max norms).  A failed xi grows by a
    factor of about 2.7 xi^(1/4), as in sympy's dup_zz_heu_gcd.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_GCD_TRIES):
        va, vb = eval_hom(a, xi, 1), eval_hom(b, xi, 1)
        if va and vb:
            gamma = int_gcd(va, vb)
            h = []
            while gamma:
                d = gamma % xi
                if d > xi // 2:
                    d -= xi
                h.append(d)
                gamma = (gamma - d) // xi
            h = monic_sign(h)
            if len(h) == 1 or (_div_exact(a, h) is not None and _div_exact(b, h) is not None):
                return h
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def prs_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd with lc > 0 by primitive pseudo-remainders; gcd's fallback."""
    a, b = monic_sign(f), monic_sign(g)
    while b:
        a, b = b, monic_sign(_pseudo_rem(a, b))
    return a


def squarefree_part(f: IntPoly) -> IntPoly:
    """Product of the distinct irreducible factors, primitive, lc > 0."""
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return [1]
    g = gcd(f, derivative(f))
    q = try_div_exact(monic_sign(f), g)
    assert q is not None
    return monic_sign(q)


def yun_decomposition(f: IntPoly) -> list:
    """Squarefree decomposition [(g_i, i)]: f = c * prod g_i^i, g_i squarefree.

    Yun's algorithm, characteristic 0.  Only components with positive
    degree are returned.
    """
    if not f:
        raise ValueError("zero polynomial")
    f = monic_sign(f)
    if len(f) == 1:
        return []
    fp = derivative(f)
    a = gcd(f, fp)
    b = try_div_exact(f, a)
    c = try_div_exact(fp, a)
    assert b is not None and c is not None
    d = sub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        a = gcd(b, d)
        if degree(a) > 0:
            out.append((monic_sign(a), i))
        b2 = try_div_exact(b, a)
        c2 = try_div_exact(d, a)
        assert b2 is not None and c2 is not None
        b = b2
        d = sub(c2, derivative(b))
        i += 1
    return out


def _eval_mod(f: IntPoly, x: int, m: int) -> int:
    total = 0
    for c in reversed(f):
        total = (total * x + c) % m
    return total


def _reconstruct(r: int, m: int, bound: int) -> tuple:
    """(a, b) with a = b r mod m, |a| <= bound and b > 0, by half-extended Euclid.

    When some fraction with |a|, b <= bound and 2 bound^2 < m is
    congruent to r, this is it; b > bound says that none is.
    """
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return (-r1, -t1) if t1 < 0 else (r1, t1)


def rational_roots(f: IntPoly) -> tuple:
    """(roots, rest): the rational roots of a squarefree integer f, ascending,
    and f divided by their linear factors, found without factoring.

    p-adic expansion (Loos 1983): take the least prime p not dividing
    lc f at which every root of f mod p is simple, dropping a prime at
    its first residue where f' vanishes too, and Newton-lift each
    residue mod m = p, p^2, p^4, ...  A root a/b in lowest terms has
    |a| <= |f(0)| and 0 < b <= |lc f|, so it reduces to one of the
    residues, and once m > 2 C^2, C = max(|lc f|, |f(0)|), it is the
    unique fraction with |a|, b <= C in the lifted class: half-extended
    Euclid rebuilds it there, and it is kept when b u - a divides f
    exactly.  Most roots are far smaller than C, so every level below
    that height rebuilds the fraction with |a|, b <= isqrt(m // 2) as
    well, and tries it by exact division once it came out at the level
    before too and b | lc f and a | f(0); a success ends the lift.  The
    result is that of lifting every residue to full height: only roots
    divide, a residue holds at most one root since the roots mod p are
    simple, and a residue whose root was not met early reaches the
    full-height test.
    rest is primitive with lc > 0 (constant when every root is rational).
    """
    rest = monic_sign(f)
    out = []
    if rest and rest[0] == 0:
        out.append(Fraction(0))
        rest = rest[1:]
    if degree(rest) < 1:
        return out, rest
    f, df = rest, derivative(rest)
    lc, f0 = f[-1], f[0]
    p = 1
    while True:
        p += 1
        if any(p % d == 0 for d in range(2, isqrt(p) + 1)) or lc % p == 0:
            continue
        residues = []
        for r in range(p):
            if _eval_mod(f, r, p) == 0:
                if _eval_mod(df, r, p) == 0:
                    break
                residues.append(r)
        else:
            break
    c = max(lc, abs(f0))
    for r in residues:
        m, seen = p, None
        while True:
            full = m > 2 * c * c
            bound = c if full else isqrt(m // 2)
            a, b = _reconstruct(r, m, bound)
            if b <= bound and (full or ((a, b) == seen and a and lc % b == 0 and f0 % a == 0)):
                quotient = try_div_exact(rest, [-a, b])
                if quotient is not None:
                    out.append(Fraction(a, b))
                    rest = quotient
                    break
            if full:
                break
            seen = (a, b)
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
    return sorted(out), rest


# ---------------------------------------------------------------------------
# Sturm chains: the oracle's root counts of its fiber cubics


def sturm_chain(f: IntPoly) -> list:
    """Sturm chain of the squarefree part of f, as primitive integer polys.

    Each remainder is negated and rescaled by a positive rational only,
    so the sign structure of the textbook chain is preserved exactly.
    """
    f0 = squarefree_part(f)
    chain = [f0, primitive(derivative(f0))]
    if not chain[-1]:
        chain.pop()
        return chain
    while True:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive(neg(r)))
    return chain


def _sign_variations(seq: Sequence[int]) -> int:
    """Sign changes along seq, zeros skipped (signs or coefficients alike)."""
    last = None
    changes = 0
    for c in seq:
        if c:
            negative = c < 0
            if last is not None and negative != last:
                changes += 1
            last = negative
    return changes


def variations_at(chain: Sequence[IntPoly], x: Fraction) -> int:
    """Sign variations of a Sturm chain at the rational x."""
    return _sign_variations([eval_sign(p, x) for p in chain])


def _variations_at_infinity(chain: Sequence[IntPoly], positive: bool) -> int:
    signs = []
    for p in chain:
        s = 1 if p[-1] > 0 else -1
        if not positive and (len(p) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _sign_variations(signs)


def sturm_count(chain: Sequence[IntPoly], lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
    """Distinct real roots of the chain's base polynomial in (lo, hi].

    lo=None means -infinity, hi=None means +infinity.  The chain comes
    from sturm_chain (squarefree base), so roots are counted without
    multiplicity.
    """
    va = _variations_at_infinity(chain, False) if lo is None else variations_at(chain, lo)
    vb = _variations_at_infinity(chain, True) if hi is None else variations_at(chain, hi)
    return va - vb


def count_real_roots(f: IntPoly) -> int:
    """Distinct real roots of f."""
    if degree(f) <= 0:
        return 0
    return sturm_count(sturm_chain(f), None, None)


# ---------------------------------------------------------------------------
# Descartes' rule: continued-fraction isolation and root exclusion
#
# The routines below work on coefficient lists in descending order of
# degree, so that a Taylor shift is one run of Horner steps per
# coefficient.


def _taylor_shift(d: IntPoly, a: int) -> IntPoly:
    """Descending coefficients of f(x + a), for f given by descending d."""
    d = list(d)
    for m in range(len(d) - 1, 0, -1):
        acc = d[0]
        if a == 1:
            for k in range(1, m + 1):
                acc += d[k]
                d[k] = acc
        else:
            for k in range(1, m + 1):
                acc = acc * a + d[k]
                d[k] = acc
    return d


def _positive_root_shift(d: IntPoly) -> int:
    """An integer A >= 0 below every positive root of f, f given by descending d.

    f must have a positive and a negative coefficient.

    A = floor(1 / U) for the LMQ upper bound U on the positive roots of
    x^n f(1/x), whose ascending coefficients are d (Akritas, Strzebonski
    & Vigklas 2008): U = max over negative a_i of the min over positive
    a_j, j > i, of (2^t_j |a_i| / a_j)^(1 / (j - i)), t_j counting the
    uses of a_j from 1.  It is taken as a power of 2 from bit lengths,
    rounded up, since a bound too small would lose roots: the ceiling of
    log2 |a_i|, the floor of log2 a_j and the ceiling of the quotient.
    """
    a = d if d[-1] > 0 else neg(d)
    positive = [(j, c.bit_length() - 1) for j, c in enumerate(a) if c > 0]
    uses = {j: 1 for j, _ in positive}
    worst = None
    for i, c in enumerate(a):
        if c >= 0:
            continue
        up = (-c - 1).bit_length()
        best = None
        for j, down in positive:
            if j > i:
                e = -((down - uses[j] - up) // (j - i))
                if best is None or e < best:
                    best, used = e, j
        uses[used] += 1
        if worst is None or best > worst:
            worst = best
    return 1 << -worst if worst <= 0 else 0


def _positive_roots_cf(d: IntPoly, sign: int = 1) -> list:
    """Isolating intervals of the positive roots of f, f given by descending d.

    f must be squarefree with f(0) != 0.  Continued-fraction method
    (Akritas & Strzebonski 2005), as in sympy's
    dup_inner_isolate_real_roots: a node is a Moebius map
    M(x) = (a x + b) / (c x + e) with the transformed f, whose positive
    roots are the roots of f between M(0) = b/e and M(inf) = a/c, and
    whose sign variations bound their number.  A node with one
    variation is output as (b/e, a/c), with None for a/c when c = 0; the
    others shift by the LMQ bound, then by doubled steps that keep their
    variations, and split into x + 1 and 1 / (1 + x).  A rational root
    met as the image of a shift raises ValueError, which names it as
    sign times that image: pass sign = -1 when d is s(-x).
    """
    out = []
    k = _sign_variations(d)
    stack = [(1, 0, 0, 1, d, k)] if k else []
    while stack:
        a, b, c, e, f, k = stack.pop()
        if k == 1:
            out.append((a, b, c, e))
            continue
        shift = _positive_root_shift(f)
        first = True
        while shift and k > 1:
            g = _taylor_shift(f, shift)
            if not g[-1]:
                root = sign * Fraction(a * shift + b, c * shift + e)
                raise ValueError(f"rational root {root}: divide the rational roots out first")
            variations = _sign_variations(g)
            # the first step is the bound; each doubled one must keep the k
            # variations, which proves that it passes no root (Budan), so
            # roots far from 0 are reached in few steps
            if variations < k and not first:
                break
            f, b, e, k, first = g, a * shift + b, c * shift + e, variations, False
            shift *= 2
        if k <= 1:
            if k:
                out.append((a, b, c, e))
            continue
        f1 = _taylor_shift(f, 1)
        if not f1[-1]:
            root = sign * Fraction(a + b, c + e)
            raise ValueError(f"rational root {root}: divide the rational roots out first")
        k1 = _sign_variations(f1)
        # the variations of f are at least those of its two halves, with even excess
        k2 = k - k1
        if k1:
            stack.append((a, a + b, c, c + e, f1, k1))
        if k2 > 1:
            f2 = _taylor_shift(f[::-1], 1)
            k2 = _sign_variations(f2)
        else:
            f2 = None
        if k2:
            stack.append((b, a + b, e, c + e, f2, k2))
    return [
        (Fraction(b, e), None) if c == 0 else tuple(sorted((Fraction(b, e), Fraction(a, c))))
        for a, b, c, e in out
    ]


def cauchy_bound(f: IntPoly) -> Fraction:
    """B such that every real root of f, of degree >= 1, lies in (-B, B)."""
    return Fraction(max(abs(c) for c in f[:-1]), abs(f[-1])) + 1


def isolate_real_roots(s: IntPoly) -> list:
    """Isolating intervals [(lo, hi)] of the real roots of s, ascending.

    s must be what rational_roots leaves: squarefree, primitive with
    lc > 0 and without a rational root.  Each open interval holds
    exactly one root and its rational endpoints are not roots; the sign
    of s at lo is (-1)^(n - i) for the i-th of n intervals, from 0.

    The intervals are those of dyadic bisection of (-B, B], B =
    cauchy_bound(s), which stops at a node holding one root.  The roots
    are isolated first by the continued-fraction method, for s(x) and
    s(-x), and the bisection tree is then walked from the top, left
    child first, on those intervals: a node with no root is dropped, one
    with one root is output, and one with more splits at its midpoint.
    At most one root's interval contains that midpoint, and one sign of
    s there says on which side the root lies.  A midpoint that is a
    root breaks the contract and raises ValueError.
    """
    n = degree(s)
    if n <= 0:
        return []
    b = cauchy_bound(s)
    d = s[::-1]
    mirrored = [c if (n - k) % 2 == 0 else -c for k, c in enumerate(d)]  # s(-x)
    roots = [[-b if hi is None else -hi, -lo] for lo, hi in _positive_roots_cf(mirrored, -1)]
    roots.sort()
    roots += sorted([lo, b if hi is None else hi] for lo, hi in _positive_roots_cf(d))
    count = len(roots)
    out: list = []
    stack = [(-b, b, 0, count)]
    while stack:
        lo, hi, i, j = stack.pop()
        if j - i <= 1:
            if j > i:
                out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        m = i
        while m < j and roots[m][1] <= mid:
            m += 1
        if m < j and roots[m][0] < mid:
            sign = eval_sign(s, mid)
            if sign == 0:
                raise ValueError(f"rational root {mid}: divide the rational roots out first")
            # s has the sign (-1)^(count - m) just left of root m
            if (sign > 0) == ((count - m) % 2 == 0):
                roots[m][0] = mid
            else:
                roots[m][1] = mid
                m += 1
        stack.append((mid, hi, m, j))
        stack.append((lo, mid, i, m))
    return out


def variations_in(f: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Descartes' bound on the roots of f (ascending, nonzero) in the open (lo, hi).

    The count is the sign variations of (1 + y)^n f((lo + hi y) / (1 + y)):
    at least the number of roots, of the same parity, and 0 once the
    disc with diameter (lo, hi) holds no complex root (the one-circle
    theorem).  With lo = p / D and hi = q / D the map is one scaling by
    D, a Taylor shift by q, the reversal with the factors (p - q)^m, and
    a Taylor shift by 1.  The zero polynomial, whose roots no count
    bounds, raises ValueError.
    """
    if not f:
        raise ValueError("zero polynomial")
    den = lo.denominator * hi.denominator // int_gcd(lo.denominator, hi.denominator)
    p, q = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    d = list(reversed(f))
    if den != 1:
        scale = 1
        for k in range(1, len(d)):
            scale *= den
            d[k] *= scale
    d = _taylor_shift(d, q)
    w, scale = p - q, 1
    for k in range(len(d) - 2, -1, -1):
        scale *= w
        d[k] *= scale
    return _sign_variations(_taylor_shift(d[::-1], 1))


def refine_interval(s: IntPoly, lo: Fraction, hi: Fraction, lo_sign: int) -> tuple:
    """One bisection step on an isolating interval of squarefree s.

    The interval must contain exactly one root of s, irrational, with
    non-root endpoints, and lo_sign must be the sign of s at lo; both
    properties are preserved, and so is the sign of s at the lower end,
    which stays left of the root.  A midpoint that is a root breaks the
    contract and raises ValueError, as in isolate_real_roots.
    """
    mid = (lo + hi) / 2
    sm = eval_sign(s, mid)
    if sm == 0:
        raise ValueError(f"rational root {mid} inside the isolating interval")
    if sm == lo_sign:
        return (mid, hi)
    return (lo, mid)
