"""First-principles computation of (h0, h1, chi) of the real locus.

The base circle is sliced at every real zero of the discriminant (the
cuts) and at one rational sample inside every arc.  Where the cuts lie
and which rational point samples each arc come from the pipeline
(t.topology.arcs.points and .samples); a circle bundle has no cuts
and is sliced at 0 and at infinity.  Every verdict below is computed
here from the fiber cubics, so the answer must not depend on which
rational point samples an arc.  At a sample the fiber is a smooth real
cubic whose real roots are counted exactly: one root gives a single
circle through the section point at infinity (the "branch"), three
roots give that branch plus a compact oval over the two lower roots.
At a nodal cut the fiber either keeps one circle with an extra isolated
point (the oval family collapses) or degenerates to a wedge of two
circles (the oval meets the branch).  At a rational cut the double
root x0 and the simple root b = -2 x0 of the degenerate cubic are
computed and compared exactly.  The irrational cuts lie on one defining
form, which is checked once per surface to divide the discriminant
4p^3 + 27q^2, so each of them is a zero of it; with q != 0 there (checked per cut) that forces p < 0.  The
sign of x0 = -3q / 2p then decides, which is the sign of q: the
pipeline's own rule and kernel (topology._nodal_type_unchecked), so
there the oracle is not independent.  When the pipeline has already
signed q at that point object, the sign is the point's recorded answer
(AlgebraicPoint.signs); at any other point it is computed there.

The pieces assemble into a cell complex: every fiber circle is a vertex
plus a loop edge, an isolated point a bare vertex, a wedge a vertex with
two loops; every tube between adjacent slices contributes one connecting
edge and one face per matched fiber component.  Matching across a tube
is by role (oval to oval, branch to branch), which is exact because root
branches cannot cross without the discriminant vanishing, and the role
split survives the chart swap at infinity since the transition rescales
the cubic roots by a positive factor.  Then h0 comes from union-find
over the 1-skeleton, chi = V - E + F, and h1 = 2 h0 - chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from . import _intpoly as ip
from .roots import (
    INFINITY,
    AlgebraicPoint,
    CirclePoint,
    FinitePoint,
    InfinityPoint,
    sign_at,
)
from .weierstrass import WeierstrassTriple


class OracleDisagreement(AssertionError):
    """The main pipeline and the oracle computed different topology, or
    the oracle refused a slice the pipeline handed it."""


@dataclass(frozen=True)
class FiberSlice:
    """Fiber data over one slice point.

    kind is 'sample' for smooth fibers (comps lists roles 'oval'/'branch')
    or 'cut' for nodal ones (comps lists 'cap'+'circle' or 'wedge').
    """

    point: CirclePoint
    kind: str
    comps: Tuple[str, ...]
    pattern: str = ""  # 'collapse' or 'join' for cuts


@dataclass(frozen=True)
class OracleResult:
    h0: int
    h1: int
    chi: int
    vertices: int
    edges: int
    faces: int
    slices: Tuple[FiberSlice, ...]

    def triple(self) -> Tuple[int, int, int]:
        return (self.h0, self.h1, self.chi)


class _UnionFind:
    def __init__(self):
        self.parent: Dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def count(self) -> int:
        return sum(1 for x in self.parent if self.find(x) == x)


def _fiber_cubic_at(t: WeierstrassTriple, pt: CirclePoint) -> Tuple[int, ...]:
    """Integer model of x^3 + p x + q over the point (chart 2 at infinity).

    With p = pn / pd and q = qn / qd there (pd, qd > 0) it is the
    primitive part of pd qd x^3 + pn qd x + qn pd.
    """
    vals = []
    for f in (t.p, t.q):
        if isinstance(pt, InfinityPoint):
            # chart 2: the value at (1:0) is the top coefficient
            vals += [f.num[-1] if len(f.num) > f.degree else 0, f.den]
        else:
            a, b = pt.value.numerator, pt.value.denominator
            vals += [ip.eval_hom(f.num, a, b), f.den * b ** max(len(f.num) - 1, 0)]
    pn, pd, qn, qd = vals
    return tuple(ip.monic_sign([qn * pd, pn * qd, 0, pd * qd]))


def _sample_slice(t: WeierstrassTriple, pt: CirclePoint, counts: Dict[tuple, int]) -> FiberSlice:
    """Smooth fiber at pt; counts keeps the real root count of each cubic met so far."""
    cubic = _fiber_cubic_at(t, pt)
    if cubic not in counts:
        counts[cubic] = ip.count_real_roots(cubic)
    roots = counts[cubic]
    if roots == 3:
        return FiberSlice(pt, "sample", ("oval", "branch"))
    if roots == 1:
        return FiberSlice(pt, "sample", ("branch",))
    raise OracleDisagreement(
        f"smooth real cubic with {roots} real roots at {pt}; "
        "the slice point must avoid the discriminant zeros"
    )


def _cut_slice(t: WeierstrassTriple, pt: CirclePoint) -> FiberSlice:
    """Nodal fiber: decide collapse/join from the double-root geometry."""
    if isinstance(pt, AlgebraicPoint):
        # pt is a zero of Delta (oracle_topology checks its defining form); q's sign
        # is pt's record if the pipeline asked it there, else computed: its kernel either way
        s_q = sign_at(t.q, pt)
        if s_q == 0:
            raise OracleDisagreement(f"q vanishes at the nodal cut {pt}")
        # x0 = -3q/2p has the sign of q (p < 0); the simple root is -2 x0,
        # so the double root sits below the simple root iff x0 < 0
        pattern = "collapse" if s_q < 0 else "join"
    else:
        cubic = _fiber_cubic_at(t, pt)
        dbl = ip.prs_gcd(cubic, ip.derivative(cubic))
        # a triple root (a cusp) gives a gcd of degree 2
        if ip.degree(dbl) != 1:
            raise OracleDisagreement(f"fiber at the cut {pt} is not nodal")
        x0 = Fraction(-dbl[0], dbl[1])
        rest = ip.try_div_exact(ip.try_div_exact(cubic, dbl), dbl)
        assert rest is not None and ip.degree(rest) == 1
        # the simple root differs from x0, or the gcd would have degree 2
        pattern = "collapse" if x0 < Fraction(-rest[0], rest[1]) else "join"
    comps = ("cap", "circle") if pattern == "collapse" else ("wedge",)
    return FiberSlice(pt, "cut", comps, pattern)


_LOOPS = {"oval": 1, "branch": 1, "circle": 1, "cap": 0, "wedge": 2}


def oracle_topology(t: WeierstrassTriple) -> OracleResult:
    """(h0, h1, chi) of the real locus from the glued slice complex.

    The ordered cuts and arc samples are t.topology.arcs.points and
    .samples (none for a circle bundle, which is sliced at 0 and
    infinity), the arc after cut i sampled at samples[i]; a cut without
    its sample raises ValueError, so the slices alternate cut and
    sample.  Every slice is computed here; the answer does not depend on
    which rational point of an arc the pipeline chose.
    """
    arcs = t.topology.arcs
    # samples where (p, q) repeats share one fiber cubic and one root count
    counts: Dict[tuple, int] = {}
    if arcs is None:
        slices = [
            _sample_slice(t, FinitePoint(Fraction(0)), counts),
            _sample_slice(t, INFINITY, counts),
        ]
    else:
        # circle order: each cut, then the sample of the arc after it
        slices = []
        on_delta = set()  # defining forms of cuts seen to divide Delta
        for cut, sample in zip(arcs.points, arcs.samples, strict=True):
            if isinstance(cut, AlgebraicPoint) and cut.defining not in on_delta:
                if ip.try_div_exact(t.delta.num, cut.defining) is None:
                    raise OracleDisagreement(f"the nodal cut {cut} is not a zero of the discriminant")
                on_delta.add(cut.defining)
            slices += [_cut_slice(t, cut), _sample_slice(t, sample, counts)]
        if isinstance(arcs.points[-1], InfinityPoint):
            # the arc after infinity is sampled below the first cut
            slices.insert(0, slices.pop())

    uf = _UnionFind()
    V = E = F = 0
    for i, s in enumerate(slices):
        for j, comp in enumerate(s.comps):
            uf.add((i, j))
            V += 1
            E += _LOOPS[comp]

    n = len(slices)
    for i in range(n):
        a = slices[i]
        b = slices[(i + 1) % n]
        for (ca, cb) in _tube_matches(a, b):
            uf.union((i, ca), ((i + 1) % n, cb))
            E += 1
            F += 1

    chi = V - E + F
    h0 = uf.count()
    h1 = 2 * h0 - chi
    if h1 < 0 or h1 % 2:
        raise OracleDisagreement(f"h1 = {h1} is not the first Betti number of a closed surface")
    # holds by construction: every tube adds one edge and one face, so
    # V - E + F sums the cut slices, +1 for a collapse and -1 for a join
    collapses = sum(1 for s in slices if s.kind == "cut" and s.pattern == "collapse")
    joins = sum(1 for s in slices if s.kind == "cut" and s.pattern == "join")
    if chi != collapses - joins:
        raise OracleDisagreement("cell count disagrees with nodal patterns")
    return OracleResult(h0, h1, chi, V, E, F, tuple(slices))


def _tube_matches(a: FiberSlice, b: FiberSlice) -> List[Tuple[int, int]]:
    """Index pairs of fiber components glued across the tube from a to b."""
    if a.kind == "sample" and b.kind == "sample":
        if len(a.comps) != len(b.comps):
            raise OracleDisagreement(
                "circle count changed over an arc without a discriminant zero"
            )
        return [(i, i) for i in range(len(a.comps))]
    if a.kind == "cut":
        rev = _tube_matches(b, a)
        return [(j, i) for (i, j) in rev]
    # a is the sample, b the cut
    assert b.kind == "cut"
    if b.pattern == "join":
        return [(i, 0) for i in range(len(a.comps))]
    # collapse: cap = comps[0], circle = comps[1]
    if len(a.comps) == 2:
        return [(0, 0), (1, 1)]
    return [(0, 1)]


@dataclass(frozen=True)
class Agreement:
    h0: int
    h1: int
    chi: int
    oracle: OracleResult


def compare(t: WeierstrassTriple) -> Agreement:
    """Assert the arc-formula topology equals the oracle topology exactly.

    Both sides read t.topology: the oracle takes its cuts and arc
    samples from it.
    """
    report = t.topology
    result = oracle_topology(t)
    mine = (report.h0, report.h1, report.chi_top)
    if mine != result.triple():
        trace = "; ".join(
            f"{s.kind}@{s.point}:{','.join(s.comps)}{':' + s.pattern if s.pattern else ''}"
            for s in result.slices
        )
        raise OracleDisagreement(
            f"pipeline (h0, h1, chi) = {mine} but oracle computed {result.triple()}\n"
            f"slices: {trace}"
        )
    return Agreement(*mine, oracle=result)
