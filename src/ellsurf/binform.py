"""Homogeneous binary forms with rational coefficients, stored as integers.

A form f of degree d in (u, v) has d+1 coefficients, entry i being the
coefficient of u^i v^(d-i).  The degree is part of the data: a form may
have vanishing top or bottom entries, which is how roots at infinity
(1:0) and at 0 are encoded.  f is stored as f(u, 1) = num(u) / den: the
dehomogenization at v=1 (which keeps every finite root) as an integer
polynomial over one positive denominator, in lowest terms.  The order
of vanishing at infinity is the degree minus the degree of num.  The
exact kernels of _intpoly read num as it is stored, the arithmetic here
stays in integers, and coefficient_strings writes the coefficients from
(num, den) for documents and printing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import _intpoly as ip

Scalar = Union[int, Fraction]


class FormDegreeError(ValueError):
    """Raised when an operation mixes forms of incompatible degrees."""


@dataclass(frozen=True)
class BinForm:
    """Binary form of fixed degree: f(u, 1) = num(u) / den.

    num is the ascending integer tuple without trailing zeros (empty for
    the zero form), den > 0, and den is coprime to the content of num.
    That normal form makes equality and hashing by value; build forms
    with make or from_affine, which normalize.
    """

    degree: int
    num: Tuple[int, ...]
    den: int

    def __post_init__(self):
        # the cheap half of the normal form; the content is reduced by _normal
        n = self.num
        if self.degree < 0 or self.den < 1 or len(n) > self.degree + 1 or (n and not n[-1]):
            raise ValueError(f"not a form in normal form: {self!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(degree: int, coeffs: Iterable[Scalar]) -> "BinForm":
        """The form with the given degree + 1 coefficients, u^i v^(degree-i) at entry i."""
        coeffs = list(coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError(
                f"degree {degree} form needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        return BinForm.from_affine(degree, coeffs)

    @staticmethod
    def from_affine(degree: int, affine: Sequence[Scalar]) -> "BinForm":
        """Homogenize an affine polynomial in u (ascending) to the given degree."""
        if len(affine) > degree + 1:
            raise FormDegreeError("affine degree exceeds container degree")
        den = lcm(*(c.denominator for c in affine))
        return BinForm._normal(degree, [c.numerator * (den // c.denominator) for c in affine], den)

    @staticmethod
    def _normal(degree: int, num: Sequence[int], den: int) -> "BinForm":
        """num(u) / den homogenized to degree, for den > 0: stripped and in lowest terms."""
        num = ip.strip(num)
        g = gcd(den, *num) if den > 1 else 1
        if g > 1:
            num, den = [c // g for c in num], den // g
        return BinForm(degree, tuple(num), den)

    @staticmethod
    def from_linear_roots(roots: Sequence[Scalar]) -> "BinForm":
        """prod (u - r v) over the given rational roots."""
        form = BinForm.make(0, [1])
        for r in roots:
            form = form * BinForm.make(1, [-r, 1])
        return form

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def content(self) -> Fraction:
        """The c > 0 with f = c g, g primitive integral with the sign of f.

        Raises on the zero form.
        """
        if not self.num:
            raise ValueError("zero form has no content")
        return Fraction(ip.content(self.num), self.den)

    def v_order_at_infinity(self) -> int:
        """Multiplicity of (1:0) as a root, i.e. degree minus affine degree."""
        if not self.num:
            raise ValueError("zero form has no well-defined vanishing order")
        return self.degree + 1 - len(self.num)

    def evaluate(self, u: Scalar) -> Fraction:
        """f(u, 1)."""
        # f(n / m, 1) = eval_hom(num, n, m) / (den * m^deg num)
        n, m = u.numerator, u.denominator
        return Fraction(ip.eval_hom(self.num, n, m), self.den * m ** max(len(self.num) - 1, 0))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BinForm") -> "BinForm":
        if not isinstance(other, BinForm):
            return NotImplemented
        if self.degree != other.degree:
            raise FormDegreeError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            g = gcd(den, other.den)
            a = [c * (other.den // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * other.den
        return BinForm._normal(self.degree, ip.add(a, b), den)

    def __sub__(self, other: "BinForm") -> "BinForm":
        return self + (-other)

    def __neg__(self) -> "BinForm":
        return BinForm(self.degree, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, BinForm):
            return BinForm._normal(
                self.degree + other.degree, ip.mul(self.num, other.num), self.den * other.den
            )
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator  # an int is n / 1
            return BinForm._normal(self.degree, [c * n for c in self.num], self.den * d)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BinForm":
        if n < 0:
            raise ValueError("negative power of a form")
        out = [1]
        for _ in range(n):
            out = ip.mul(out, self.num)
        # content(num^n) = content(num)^n is coprime to den^n: already normal
        return BinForm(n * self.degree, tuple(out), self.den ** n)

    def __str__(self) -> str:
        return form_text(self.num, self.den, self.degree)


def coefficient_strings(num: Sequence[int], den: int, degree: int) -> List[str]:
    """The degree + 1 coefficients of num(u) / den as "n" or "n/d" in lowest terms, zeros on top."""
    out = []
    for c in num:
        g = gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out + ["0"] * (degree + 1 - len(num))


def form_text(num: Sequence[int], den: int = 1, degree: Optional[int] = None) -> str:
    """num(u) / den printed as a form, of degree len(num) - 1 unless given: "-2*v^2 + u^2"."""
    degree = len(num) - 1 if degree is None else degree
    terms = []
    for i, c in enumerate(coefficient_strings(num, den, degree)):
        if c == "0":
            continue
        body = "*".join(x if e == 1 else f"{x}^{e}" for x, e in (("u", i), ("v", degree - i)) if e)
        if not body:
            terms.append(c)
        elif c in ("1", "-1"):
            terms.append(body if c == "1" else f"-{body}")
        else:
            terms.append(f"{c}*{body}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"
