"""Correctness checks for the benchmark's operations, made apart from ellsurf.

Every fact a check relies on is either recomputed here with sympy from
the input forms p and q, or is a property the method must have (the
Euler sum 12k, Ogg's formula, the bounds h0 <= 5k and h1 <= 10k, twist
duality).  Nothing is compared against a stored copy of earlier output.

Each checker returns a list of failure strings of the form
"<check>: <detail>"; an empty list means the operation passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from sympy import QQ, ZZ, Poly, Rational, gcd, symbols

_U = symbols("u")
_X = symbols("x")

# Euler number of each Kodaira fiber type, written out independently of ellsurf.
_EULER_FIXED = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


def _rational(text: str) -> Rational:
    x = Fraction(text)
    return Rational(x.numerator, x.denominator)


def affine_poly(coeffs: Sequence[str]) -> Poly:
    """The form sum c_i u^i v^(d-i) at v = 1, as a sympy polynomial in u."""
    values = [Fraction(c) for c in reversed(coeffs)]
    if all(x.denominator == 1 for x in values):
        return Poly([x.numerator for x in values], _U, domain=ZZ)
    return Poly([Rational(x.numerator, x.denominator) for x in values], _U, domain=QQ)


def order_at_infinity(coeffs: Sequence[str], degree: int) -> int:
    """Order of vanishing of the form at u:v = 1:0 (the power of v dividing it)."""
    order = 0
    for c in reversed(coeffs):
        if Fraction(c) != 0:
            return order
        order += 1
    return degree + 1  # the zero form vanishes to every order


def _discriminant(doc: dict) -> Poly:
    p = affine_poly(doc["p"])
    q = affine_poly(doc["q"])
    return 4 * p ** 3 + 27 * q ** 2


def _distinct_real_roots(poly: Poly) -> int:
    if poly.degree() < 1:
        return 0
    return len(poly.sqf_part().intervals())


def discriminant_facts(doc: dict) -> Dict[str, int]:
    """Real zeros of Delta = 4p^3 + 27q^2 on P^1(R), counted with sympy.

    real_roots counts distinct real zeros, infinity included;
    multiple_real_roots counts those of multiplicity at least 2.
    """
    k = doc["k"]
    delta = _discriminant(doc)
    if delta.is_zero:
        raise ValueError("discriminant vanishes identically")
    v_inf = 12 * k - delta.degree()
    repeated = gcd(delta, delta.diff(_U))
    return {
        "real_roots": _distinct_real_roots(delta) + (1 if v_inf >= 1 else 0),
        "multiple_real_roots": _distinct_real_roots(repeated) + (1 if v_inf >= 2 else 0),
    }


def is_minimal(doc: dict) -> bool:
    """No point of P^1(C) where p vanishes to order >= 4 and q to order >= 6."""
    k = doc["k"]
    if (
        order_at_infinity(doc["p"], 4 * k) >= 4
        and order_at_infinity(doc["q"], 6 * k) >= 6
    ):
        return False
    common: Optional[Poly] = None
    for form, orders in ((affine_poly(doc["p"]), 4), (affine_poly(doc["q"]), 6)):
        for _ in range(orders):
            if not form.is_zero:
                common = form if common is None else gcd(common, form)
                if common.degree() < 1:
                    return True
            form = form.diff(_U)
    return common is None or common.degree() < 1


def is_valid(doc: dict) -> bool:
    """Nonzero discriminant and minimal, the conditions ellsurf validates."""
    return not _discriminant(doc).is_zero and is_minimal(doc)


def has_squarefree_discriminant(doc: dict) -> bool:
    """Delta has no repeated zero on P^1(C), so every singular fiber is nodal."""
    delta = _discriminant(doc)
    if delta.is_zero or 12 * doc["k"] - delta.degree() >= 2:
        return False
    return gcd(delta, delta.diff(_U)).degree() < 1


def fiber_cubic_real_roots(doc: dict, point: str) -> int:
    """Distinct real roots of x^3 + p(s) x + q(s) at s = point ('inf' or a rational)."""
    k = doc["k"]
    if point == "inf":
        a = _rational(doc["p"][4 * k])
        b = _rational(doc["q"][6 * k])
    else:
        s = _rational(point)
        a = affine_poly(doc["p"]).eval(s)
        b = affine_poly(doc["q"]).eval(s)
    return _distinct_real_roots(Poly(_X ** 3 + a * _X + b, _X, domain=QQ))


def _kodaira_euler(symbol: str) -> Optional[int]:
    if symbol in _EULER_FIXED:
        return _EULER_FIXED[symbol]
    if symbol.startswith("I") and symbol.endswith("*") and symbol[1:-1].isdigit():
        return int(symbol[1:-1]) + 6
    if symbol.startswith("I") and symbol[1:].isdigit():
        return int(symbol[1:])
    return None


def _betti_checks(k: int, h0: int, h1: int, chi: int) -> List[str]:
    out = []
    if chi != 2 * h0 - h1:
        out.append(f"chi: chi = {chi} but 2h0 - h1 = {2 * h0 - h1}")
    if not 1 <= h0 <= 5 * k:
        out.append(f"h0_bound: h0 = {h0} outside 1..5k = 1..{5 * k}")
    if not 0 <= h1 <= 10 * k:
        out.append(f"h1_bound: h1 = {h1} outside 0..10k = 0..{10 * k}")
    if h1 % 2:
        out.append(f"h1_even: h1 = {h1} is odd")
    return out


def check_report(doc: dict, text: str) -> List[str]:
    """Checks on the output of `ellsurf report --json` for the triple doc."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"json: {exc}"]
    k = doc["k"]
    out: List[str] = []
    if rep.get("triple") != doc:
        out.append("triple: the report does not echo its input")
    fibers = rep.get("fibers", [])
    euler_sum = 0
    real = 0
    for f in fibers:
        loc = f["location"]
        weight = 2 * loc["pairs"] if loc["type"] == "conjugate-pairs" else 1
        euler_sum += f["euler"] * weight
        real += 1 if f["is_real"] else 0
        if f["is_real"] != (loc["type"] != "conjugate-pairs"):
            out.append(f"real_flag: {loc['type']} fiber marked is_real={f['is_real']}")
        if _kodaira_euler(f["kodaira"]) != f["euler"]:
            out.append(f"euler_type: {f['kodaira']} listed with Euler number {f['euler']}")
        if f["euler"] != f["v_delta"]:
            out.append(f"ogg: Euler number {f['euler']} but v_delta = {f['v_delta']}")
    if euler_sum != 12 * k:
        out.append(f"euler_sum: Euler numbers sum to {euler_sum}, not 12k = {12 * k}")
    facts = discriminant_facts(doc)
    if real != facts["real_roots"]:
        out.append(
            f"real_fibers: {real} real singular fibers but Delta has "
            f"{facts['real_roots']} distinct real zeros"
        )
    refused = "real_topology" in rep
    if refused != (facts["multiple_real_roots"] > 0):
        out.append(
            f"refusal: topology refused={refused} but Delta has "
            f"{facts['multiple_real_roots']} multiple real zeros"
        )
    if refused:
        return out
    topo = rep["topology"]
    h0, h1, chi = topo["h0"], topo["h1"], topo["chi_top"]
    out.extend(_betti_checks(k, h0, h1, chi))
    if topo["h2"] != h0:
        out.append(f"h2: h2 = {topo['h2']} but h0 = {h0}")
    arcs = rep.get("arcs", {"n_I1_plus": 0, "n_I1_minus": 0})
    if chi != arcs["n_I1_plus"] - arcs["n_I1_minus"]:
        out.append(
            f"chi_nodal: chi = {chi} but n_I1+ - n_I1- = "
            f"{arcs['n_I1_plus'] - arcs['n_I1_minus']}"
        )
    if topo["orientable"] != (k % 2 == 0):
        out.append(f"orientable: orientable={topo['orientable']} at k = {k}")
    if not rep["bounds"]["all_ok"]:
        out.append(f"bounds: the report flags a bound: {rep['bounds']}")
    return out


def check_crosscheck(doc: dict, res: dict) -> List[str]:
    """Checks on compare(t): the agreed (h0, h1, chi) and the oracle's slices."""
    k = doc["k"]
    out = _betti_checks(k, res["h0"], res["h1"], res["chi"])
    if res["V"] - res["E"] + res["F"] != res["chi"]:
        out.append(f"cells: V - E + F = {res['V'] - res['E'] + res['F']} but chi = {res['chi']}")
    facts = discriminant_facts(doc)
    if res["cuts"] != facts["real_roots"]:
        out.append(
            f"real_fibers: {res['cuts']} cut slices but Delta has "
            f"{facts['real_roots']} distinct real zeros"
        )
    for point, comps in res["samples"]:
        roots = fiber_cubic_real_roots(doc, point)
        if (comps == 2) != (roots == 3):
            out.append(f"sample: {comps} component(s) at u = {point} but the cubic has {roots} real roots")
    return out


def check_search(k: int, h0: int, res: dict) -> List[str]:
    """Checks on search_extremal(k, h0): a valid surface with the target h0."""
    if not res["found"]:
        return [f"found: no surface for (k, h0) = ({k}, {h0}): {res['reason']}"]
    doc = res["triple"]
    out = []
    if doc["k"] != k or len(doc["p"]) != 4 * k + 1 or len(doc["q"]) != 6 * k + 1:
        return [f"degrees: result is not a k = {k} triple of degrees 4k and 6k"]
    if _discriminant(doc).is_zero:
        out.append("discriminant: Delta vanishes identically")
    elif not is_minimal(doc):
        out.append("minimal: p and q share a root of orders >= 4 and >= 6")
    if res["oracle_h0"] != h0:
        out.append(f"oracle_h0: the oracle gives h0 = {res['oracle_h0']}, target {h0}")
    if res["twist_h1"] != 2 * h0:
        out.append(f"twist_h1: the twist has h1 = {res['twist_h1']}, not 2 * {h0}")
    return out
