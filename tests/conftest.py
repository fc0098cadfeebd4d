import contextlib
import fractions
import signal
import sys
import time
from fractions import Fraction

import pytest

from ellsurf import BinForm, WeierstrassTriple, i0star_transform, make_params, validate
from ellsurf import _intpoly as ip
from ellsurf.roots import INFINITY, AlgebraicPoint, circle_sort_key_refine, rational_split

U = BinForm.make(1, [0, 1])
V = BinForm.make(1, [1, 0])


def off_delta(c):
    """An irrational point c on its defining form times u^2 + 1: the same
    real root and interval, on a form that does not divide the
    discriminant the form came from.  Other points stay as they are."""
    if not isinstance(c, AlgebraicPoint):
        return c
    return AlgebraicPoint(tuple(ip.mul(c.defining, [1, 0, 1])), c.lo, c.hi, c.lo_sign)


def monomial(degree, i, c=1):
    """c * u^i v^(degree - i)."""
    coeffs = [0] * (degree + 1)
    coeffs[i] = c
    return BinForm.make(degree, coeffs)


def fraction_coeffs(f):
    """The degree + 1 coefficients of the form f as Fractions, zeros on top.

    Built here from (degree, num, den), apart from the formatter the
    documents use, as the tests' reference view of a form.
    """
    return tuple(Fraction(c, f.den) for c in f.num) + (Fraction(0),) * (f.degree + 1 - len(f.num))


def fraction_calls(fn):
    """fn's result and the names of the fractions.py functions it called, in order."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


def rescale(t, lam):
    """(p, q) -> (lam^4 p, lam^6 q): an isomorphic presentation of t."""
    return WeierstrassTriple(t.k, t.p * lam ** 4, t.q * lam ** 6)


def iterate_i0star(t, centers):
    """The I0* step folded over a list of center pairs (a, b); k grows by its length."""
    for a, b in centers:
        t = i0star_transform(t, make_params(t, a, b))
    return t


def poly_mul(f, g):
    """Product of two integer polynomials given as ascending coefficient lists."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def sturm_bisection(s):
    """Isolating intervals of s by Sturm bisection of (-B, B]: the reference for isolate_real_roots.

    s is squarefree, primitive with lc > 0 and without a rational root.
    A node whose Sturm count is one is output, one with more splits at
    its midpoint (left half first), and a midpoint that is a root
    raises ValueError.
    """
    if ip.degree(s) <= 0:
        return []
    chain = ip.sturm_chain(s)
    b = ip.cauchy_bound(s)
    out = []

    def bisect(lo, hi, v_lo, v_hi):
        if v_lo - v_hi == 1:
            out.append((lo, hi))
        if v_lo - v_hi <= 1:
            return
        mid = (lo + hi) / 2
        if ip.eval_sign(s, mid) == 0:
            raise ValueError(f"rational root {mid}")
        v_mid = ip.variations_at(chain, mid)
        bisect(lo, mid, v_lo, v_mid)
        bisect(mid, hi, v_mid, v_hi)

    bisect(-b, b, ip.variations_at(chain, -b), ip.variations_at(chain, b))
    return out


def circle_roots(f):
    """The distinct real roots of the form f in circle order.

    rational_split of the squarefree part gives the finite ones,
    circle_sort_key_refine orders them, and inf follows when v divides f.
    """
    pts = [pt for _, unit in rational_split(ip.squarefree_part(f.num)) for pt in unit]
    if f.v_order_at_infinity() >= 1:
        pts.append(INFINITY)
    return circle_sort_key_refine(pts)


def _d_du(f):
    c = fraction_coeffs(f)
    return BinForm.make(f.degree - 1, [c[i + 1] * (i + 1) for i in range(f.degree)])


def _d_dv(f):
    c = fraction_coeffs(f)
    return BinForm.make(f.degree - 1, [c[i] * (f.degree - i) for i in range(f.degree)])


def _pure_derivatives(f, order):
    """f and its nonzero pure u- and v-derivatives up to the given order."""
    out = [f]
    for partial in (_d_du, _d_dv):
        cur = f
        for _ in range(order):
            if cur.degree == 0:
                break
            cur = partial(cur)
            if cur.is_zero:
                break
            out.append(cur)
    return out


def nonminimal_witness_reference(p, q):
    """str of the non-minimality witness by gcds of pure derivatives, or None: the reference for validate.

    A point has p-order >= 4 and q-order >= 6 exactly when it is a
    common root of p with its pure u- and v-derivatives to order 3 and
    of q with its derivatives to order 5; a zero form imposes no
    condition.  The gcd of those forms counts infinity by the least
    v-order.  The witness is inf when that gcd vanishes there, else the
    first unit of rational_split of its squarefree part: its first
    rational point, else the first real point of the rest, else the
    rest as a form.
    """
    forms = [d for f, order in ((p, 3), (q, 5)) if not f.is_zero for d in _pure_derivatives(f, order)]
    g, m = forms[0].num, forms[0].v_order_at_infinity()
    for f in forms[1:]:
        g, m = ip.gcd(g, f.num), min(m, f.v_order_at_infinity())
    if m >= 1:
        return "inf"
    if ip.degree(g) < 1:
        return None
    factor, pts = rational_split(ip.squarefree_part(g))[0]
    return str(pts[0] if pts else BinForm.from_affine(ip.degree(factor), factor))


def interlace_sextic():
    """(u^2 - v^2)(u^2 - 4v^2)(u^2 - 9v^2): six rational roots +-1, +-2, +-3."""
    return (U * U - V * V) * (U * U - 4 * V * V) * (U * U - 9 * V * V)


class TimeLimitExceeded(BaseException):
    """A block ran past its time limit.

    A BaseException, not an Exception: hypothesis records an Exception
    raised in a test body as a failing example and replays and shrinks
    it, with no limit left, while a BaseException passes through.
    """


# seconds after which an expired limit fires again while its block still runs
REFIRE = 0.5


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeLimitExceeded in the block once it has run for `seconds`.

    The limit fires again every REFIRE seconds until the block ends, so
    that code which swallows it, or a long step that does not return
    to the interpreter, is interrupted as soon as it can be.  Limits
    nest: an enclosing limit that expires first still fires, and on
    exit it is re-armed with the time it has left.
    """

    def expire(signum, frame):
        signal.setitimer(signal.ITIMER_REAL, REFIRE)
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    if 0 < outer < seconds:
        signal.setitimer(signal.ITIMER_REAL, outer)
    start = time.monotonic()
    try:
        yield
    finally:
        # until the handler is restored, a repeat may fire in here too
        restored = False
        while not restored:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                restored = True
            except TimeLimitExceeded:
                pass
        if outer:
            # an outer limit that ran out meanwhile fires at once
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-6))


# no test takes more than a few seconds; one that hangs fails instead of
# holding up the suite
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def _per_test_time_limit():
    with time_limit(TEST_TIME_LIMIT):
        yield


@pytest.fixture(scope="session")
def uv():
    return U, V


@pytest.fixture(scope="session")
def w1():
    """The worked k=1 surface: p = -3v^4, q = 2v^6 + (u^2-v^2)(u^2-4v^2)(u^2-9v^2).

    Twelve real nodal fibers; h0 = 1, h1 = 2, Klein bottle.
    """
    return validate(1, -3 * V ** 4, 2 * V ** 6 + interlace_sextic())
