import contextlib
import signal

import pytest

from ellsurf import BinForm, validate

U = BinForm.make(1, [0, 1])
V = BinForm.make(1, [1, 0])


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
