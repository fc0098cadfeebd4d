import contextlib
import signal

import pytest

from ellsurf import BinForm, WeierstrassTriple, i0star_transform, make_params, validate
from ellsurf import _intpoly as ip

U = BinForm.make(1, [0, 1])
V = BinForm.make(1, [1, 0])


def monomial(degree, i, c=1):
    """c * u^i v^(degree - i)."""
    coeffs = [0] * (degree + 1)
    coeffs[i] = c
    return BinForm.make(degree, coeffs)


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


def interlace_sextic():
    """(u^2 - v^2)(u^2 - 4v^2)(u^2 - 9v^2): six rational roots +-1, +-2, +-3."""
    return (U * U - V * V) * (U * U - 4 * V * V) * (U * U - 9 * V * V)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def uv():
    return U, V


@pytest.fixture(scope="session")
def w1():
    """The worked k=1 surface: p = -3v^4, q = 2v^6 + (u^2-v^2)(u^2-4v^2)(u^2-9v^2).

    Twelve real nodal fibers; h0 = 1, h1 = 2, Klein bottle.
    """
    return validate(1, -3 * V ** 4, 2 * V ** 6 + interlace_sextic())
