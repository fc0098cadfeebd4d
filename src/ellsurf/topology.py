"""Topology of the real locus from the arc structure of the base circle.

The real points of the base P^1 form a circle; the real zeros of the
discriminant cut it into arcs.  Over each arc the fibers are smooth real
cubics with one or two circles, and the count flips across every simple
zero.  For a surface whose real singular fibers are all nodal the mod-2
Betti numbers of the real locus are read off from the arc bookkeeping:

    h0 = 1 + arc_plus        h1 = 2 + 2 * arc_minus

where arc_plus / arc_minus count two-circle arcs whose two boundary
fibers both have non-connected / connected real nodal locus.  The Euler
characteristic equals the signed count of nodal types; once the circle
counts alternate the two expressions agree by construction, and the
independent cell-complex oracle checks them in the test suite.

Nodal real types are decided by a sign rule derived from the double
root of the fiber cubic: writing the degenerate fiber as
y^2 = (x - a)^2 (x + 2a), the node has real tangents iff a > 0 iff
q > 0 at the point.  Likewise a smooth fiber has two circles iff the
cubic has three real roots iff the discriminant is negative there.
The oracle checks both, but at an irrational cut it reads the node type
by the same sign of q, the answer that the cut recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .roots import (
    CirclePoint,
    FinitePoint,
    circle_sort_key_refine,
    sample_between,
    sign_at,
)
from .weierstrass import FiberReport, WeierstrassTriple


class NotRealGeneric(Exception):
    """Some real singular fiber is not nodal; full topology is refused.

    Carries the offending fiber reports so callers can still present the
    per-fiber data.
    """

    def __init__(self, offenders: Sequence[FiberReport]):
        self.offenders = list(offenders)
        kinds = ", ".join(
            f"{r.kodaira.symbol} at {r.location}" for r in self.offenders
        )
        super().__init__(f"non-nodal real singular fibers: {kinds}")


@dataclass(frozen=True)
class RealFiberType:
    """Real type of a nodal fiber: 'I1+' or 'I1-'."""

    label: str

    def flipped(self) -> "RealFiberType":
        return I1_MINUS if self.label == "I1+" else I1_PLUS

    def __str__(self) -> str:
        return self.label


I1_PLUS = RealFiberType("I1+")
I1_MINUS = RealFiberType("I1-")


def _nodal_type_unchecked(t: WeierstrassTriple, c: CirclePoint) -> RealFiberType:
    """'I1-' iff q(c) > 0, 'I1+' iff q(c) < 0; c must be a simple real zero
    of the discriminant, which is not checked here."""
    s = sign_at(t.q, c)
    if s == 0:
        raise ValueError("q vanishes at c, so the fiber at c is not nodal")
    return I1_MINUS if s > 0 else I1_PLUS


def smooth_fiber_components(t: WeierstrassTriple, c: CirclePoint) -> int:
    """Circles in the real fiber at a non-singular point: 2 iff Delta(c) < 0."""
    s = sign_at(t.delta, c)
    if s == 0:
        raise ValueError("c is a zero of the discriminant")
    return 2 if s < 0 else 1


@dataclass(frozen=True)
class ArcDecomposition:
    """The cuts in circle order with their nodal types, and the arcs.

    Arc i runs from cut i to cut i + 1, cyclically; samples[i] is a
    rational point inside it and circles[i] the circle count over it.
    """

    points: Tuple[CirclePoint, ...]
    types: Tuple[RealFiberType, ...]
    samples: Tuple[FinitePoint, ...]
    circles: Tuple[int, ...]

    def _two_circle_arcs_between(self, ty: RealFiberType) -> int:
        ends = zip(self.circles, self.types, self.types[1:] + self.types[:1])
        return sum(1 for count, start, end in ends if count == 2 and start == ty == end)

    @property
    def arc_plus(self) -> int:
        return self._two_circle_arcs_between(I1_PLUS)

    @property
    def arc_minus(self) -> int:
        return self._two_circle_arcs_between(I1_MINUS)

    @property
    def n_plus(self) -> int:
        return self.types.count(I1_PLUS)

    @property
    def n_minus(self) -> int:
        return len(self.types) - self.n_plus


def arc_decomposition(t: WeierstrassTriple) -> ArcDecomposition:
    """Singular points in cyclic order with nodal types and arc data.

    Requires at least one real singular fiber with every real zero of
    the discriminant simple; otherwise NotRealGeneric is raised.
    """
    points = tuple(real_cuts(t.fibers))
    if not points:
        raise NotRealGeneric([])
    types = tuple(_nodal_type_unchecked(t, c) for c in points)
    samples = tuple(arc_samples(points))
    circles = tuple(smooth_fiber_components(t, x) for x in samples)
    if any(a == b for a, b in zip(circles, circles[1:] + circles[:1])):
        raise AssertionError(
            "circle count fails to alternate across a simple discriminant zero"
        )
    return ArcDecomposition(points, types, samples, circles)


def real_cuts(reports: Sequence[FiberReport]) -> List[CirclePoint]:
    """The real singular points in circle order; all must be nodal.

    Raises NotRealGeneric when some real singular fiber is not nodal.
    Otherwise every finite cut has v_Delta = 1, hence v_p = v_q = 0
    (v_p, v_q >= 1 would force v_Delta >= 2), so the cuts are the real
    roots of the one Yun component Delta_1 of Delta, as rational_split
    gives them, plus perhaps infinity: circle_sort_key_refine orders
    exactly such points.
    """
    real = [r for r in reports if r.is_real]
    offenders = [r for r in real if r.v_delta != 1]
    if offenders:
        raise NotRealGeneric(offenders)
    return circle_sort_key_refine([r.location for r in real])


def arc_samples(cuts: Sequence[CirclePoint]) -> List[FinitePoint]:
    """One rational point inside each arc, the i-th after cut i.

    The last arc runs from the last cut through infinity (or from
    infinity when that is the last cut) back to the first.
    """
    n = len(cuts)
    return [sample_between(cuts[i], cuts[(i + 1) % n], wraps=i == n - 1) for i in range(n)]


_SPHERE = "S0"


def _surface_label(orientable: bool, h1: int) -> str:
    """S_g for the orientable surface of genus g, V_q for chi = 2 - q."""
    if orientable:
        assert h1 % 2 == 0
        return f"S{h1 // 2}"
    return f"V{h1}"


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: Optional[bool]  # None when the check does not apply
    detail: str = ""


@dataclass(frozen=True)
class Verification:
    checks: Tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> List[CheckItem]:
        return [c for c in self.checks if c.ok is False]


@dataclass(frozen=True)
class RealTopologyReport:
    h0: int
    h1: int
    h2: int
    chi_top: int
    orientable: bool
    components: Tuple[str, ...]
    # None exactly when the surface has no real singular fiber
    arcs: Optional[ArcDecomposition]

    @property
    def no_real_singular_fibers(self) -> bool:
        return self.arcs is None

    @property
    def h_star(self) -> int:
        return self.h0 + self.h1 + self.h2


def betti(t: WeierstrassTriple) -> RealTopologyReport:
    """Mod-2 Betti numbers, Euler characteristic and component types.

    Real-generic surfaces with at least one real nodal fiber use the arc
    formulas; surfaces with no real singular fiber are circle bundles
    over the circle with one or two torus/Klein components by the sign
    of the discriminant.  Everything else raises NotRealGeneric.
    WeierstrassTriple.topology keeps the result on the triple.
    """
    orientable = t.k % 2 == 0
    if not any(r.is_real for r in t.fibers):
        # Delta has no real zero, so any real point samples the circle bundle
        h0 = smooth_fiber_components(t, FinitePoint(Fraction(0)))
        label = "S1" if orientable else "V2"
        return RealTopologyReport(
            h0=h0,
            h1=2 * h0,
            h2=h0,
            chi_top=0,
            orientable=orientable,
            components=tuple([label] * h0),
            arcs=None,
        )
    dec = arc_decomposition(t)
    h0 = 1 + dec.arc_plus
    h1 = 2 + 2 * dec.arc_minus
    chi = dec.n_plus - dec.n_minus
    # holds by construction: once the counts alternate, each cut ends
    # exactly one two-circle arc, so n+ - n- = 2 arc+ - 2 arc- = 2 h0 - h1
    if chi != 2 * h0 - h1:
        raise AssertionError(
            f"Euler characteristic mismatch: nodal count gives {chi}, "
            f"arc formulas give {2 * h0 - h1}"
        )
    components = tuple([_SPHERE] * (h0 - 1) + [_surface_label(orientable, h1)])
    return RealTopologyReport(
        h0=h0,
        h1=h1,
        h2=h0,
        chi_top=chi,
        orientable=orientable,
        components=components,
        arcs=dec,
    )


def check_bounds(report: RealTopologyReport, k: int) -> Verification:
    """Verdicts for the component and first-Betti bounds and parities.

    The last two hold by construction: betti sets h1 = 2 + 2 arc_minus
    (2 h0 for a circle bundle) and orientable = (k even).
    """
    return Verification((
        CheckItem("h0_le_5k", report.h0 <= 5 * k),
        CheckItem("h1_le_10k", report.h1 <= 10 * k),
        CheckItem("h1_even", report.h1 % 2 == 0),
        CheckItem("orientable_iff_k_even", report.orientable == (k % 2 == 0)),
    ))


def twist_duality(before: Tuple[int, int, int], after: Tuple[int, int, int]) -> bool:
    """(h0, h1, chi) of a surface and of its twist: h1' = 2 h0, 2 h0' = h1, chi' = -chi."""
    h0, h1, chi = before
    h0_t, h1_t, chi_t = after
    return h1_t == 2 * h0 and 2 * h0_t == h1 and chi_t == -chi
