"""JSON documents for triples and reports.

A triple document is {"k": int, "p": [str...], "q": [str...]} with
exact rationals written as "n" or "n/d" (denominators positive), entry
i holding the coefficient of u^i v^(d-i), and list lengths 4k+1 and
6k+1.  Reports mirror the fiber table, arc data, topology and bound
verdicts; every number in them is an exact rational string, never a
decimal.  Serialization is canonical, so equal data produces byte-equal
files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from .binform import BinForm, coefficient_strings
from .roots import AlgebraicPoint, CirclePoint, FinitePoint, InfinityPoint
from .topology import (
    ArcDecomposition,
    BoundChecks,
    NotRealGeneric,
    RealTopologyReport,
)
from .weierstrass import (
    ConjugatePairTag,
    FiberReport,
    SurfaceInvariants,
    WeierstrassTriple,
    validate,
)


class DocumentError(ValueError):
    """Malformed triple document."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational_pair(text: str) -> tuple:
    """(num, den) of "n" or "n/d", den > 0 and not reduced: what parse_rational accepts."""
    s = str(text).strip()
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise DocumentError(f"not an exact rational: {s!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError as exc:  # more digits than int() converts
        raise DocumentError(f"not an exact rational: {s!r}") from exc
    if den == 0:
        raise DocumentError(f"zero denominator in {s!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """Read "n" or "n/d": an optional sign, ASCII digits, a positive denominator."""
    return Fraction(*_rational_pair(text))


def _form_from_strings(degree: int, texts: list) -> BinForm:
    """The form with the given degree + 1 coefficient strings, read as integer pairs."""
    pairs = [_rational_pair(c) for c in texts]
    den = lcm(*(d for _, d in pairs))
    return BinForm._normal(degree, [n * (den // d) for n, d in pairs], den)


def format_rational(x: Fraction) -> str:
    """"n" or "n/d" for a Fraction or an int."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def triple_to_document(t: WeierstrassTriple) -> dict:
    return {
        "k": t.k,
        "p": coefficient_strings(t.p.num, t.p.den, t.p.degree),
        "q": coefficient_strings(t.q.num, t.q.den, t.q.degree),
    }


def triple_from_document(doc: dict) -> WeierstrassTriple:
    """Parse and validate; raises DocumentError or WeierstrassError."""
    if not isinstance(doc, dict):
        raise DocumentError("triple document must be a JSON object")
    for key in ("k", "p", "q"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
    k = doc["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DocumentError("k must be a positive integer")
    p_list = doc["p"]
    q_list = doc["q"]
    if not isinstance(p_list, list) or len(p_list) != 4 * k + 1:
        raise DocumentError(f"p must be a list of {4 * k + 1} rationals")
    if not isinstance(q_list, list) or len(q_list) != 6 * k + 1:
        raise DocumentError(f"q must be a list of {6 * k + 1} rationals")
    p = _form_from_strings(4 * k, p_list)
    q = _form_from_strings(6 * k, q_list)
    return validate(k, p, q)


def load_triple(path: str) -> WeierstrassTriple:
    """Read and validate a triple document; raises DocumentError or WeierstrassError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8, json's integer digit limit, deep nesting
            raise DocumentError(f"invalid JSON: {exc}") from exc
    return triple_from_document(doc)


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# report documents


def point_to_document(pt: CirclePoint) -> dict:
    if isinstance(pt, FinitePoint):
        return {"type": "rational", "value": format_rational(pt.value)}
    if isinstance(pt, InfinityPoint):
        return {"type": "infinity"}
    assert isinstance(pt, AlgebraicPoint)
    return {
        "type": "algebraic",
        "defining": [str(c) for c in pt.defining],
        "lo": format_rational(pt.lo),
        "hi": format_rational(pt.hi),
    }


def fiber_to_document(rep: FiberReport) -> dict:
    loc = rep.location
    if isinstance(loc, ConjugatePairTag):
        location = {
            "type": "conjugate-pairs",
            "factor": [str(c) for c in loc.factor],
            "pairs": loc.pairs,
        }
    else:
        location = point_to_document(loc)
    return {
        "location": location,
        "v_p": rep.v_p,
        "v_q": rep.v_q,
        "v_delta": rep.v_delta,
        "kodaira": rep.kodaira.symbol,
        "euler": rep.kodaira.euler_number,
        "is_real": rep.is_real,
    }


def invariants_to_document(inv: SurfaceInvariants) -> dict:
    return {"k": inv.k, "chi_top": inv.chi_top, "h11": inv.h11, "b2": inv.b2}


def arcs_to_document(dec: ArcDecomposition) -> dict:
    return {
        "singular_points": [
            {"point": point_to_document(p), "real_type": str(ty)}
            for p, ty in zip(dec.points, dec.types)
        ],
        "arcs": [
            {
                "sample": format_rational(a.sample.value),
                "components": a.component_count,
                "endpoint_types": [str(a.start_type), str(a.end_type)],
            }
            for a in dec.arcs
        ],
        "arc_plus": dec.arc_plus,
        "arc_minus": dec.arc_minus,
        "n_I1_plus": dec.n_plus,
        "n_I1_minus": dec.n_minus,
    }


def topology_to_document(rep: RealTopologyReport) -> dict:
    return {
        "h0": rep.h0,
        "h1": rep.h1,
        "h2": rep.h2,
        "h_star": rep.h_star,
        "chi_top": rep.chi_top,
        "orientable": rep.orientable,
        "components": list(rep.components),
        "no_real_singular_fibers": rep.no_real_singular_fibers,
    }


def bounds_to_document(bc: BoundChecks) -> dict:
    return {
        "h0_le_5k": bc.component_bound_ok,
        "h1_le_10k": bc.betti_bound_ok,
        "h1_even": bc.h1_even_ok,
        "orientable_iff_k_even": bc.orientability_ok,
        "all_ok": bc.all_ok,
    }


def not_real_generic_to_document(exc: NotRealGeneric) -> dict:
    return {
        "refused": "non-nodal real singular fibers",
        "offenders": [fiber_to_document(r) for r in exc.offenders],
    }
