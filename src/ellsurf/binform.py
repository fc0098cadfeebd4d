"""Homogeneous binary forms with exact rational coefficients.

A form of degree d in (u, v) is stored as d+1 coefficients, entry i
being the coefficient of u^i v^(d-i).  The degree is part of the data:
a form may have vanishing top or bottom entries, which is how roots at
infinity (1:0) and at 0 are encoded.  Working affine data is obtained
by dehomogenizing at v=1 (which keeps every finite root) together with
the order of vanishing at infinity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Tuple, Union

from . import _intpoly as ip

Scalar = Union[int, Fraction]


class FormDegreeError(ValueError):
    """Raised when an operation mixes forms of incompatible degrees."""


@dataclass(frozen=True)
class BinForm:
    """Binary form of fixed degree with Fraction coefficients."""

    degree: int
    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} form needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(degree: int, coeffs: Iterable[Scalar]) -> "BinForm":
        return BinForm(degree, tuple(Fraction(c) for c in coeffs))

    @staticmethod
    def zero(degree: int) -> "BinForm":
        return BinForm(degree, tuple([Fraction(0)] * (degree + 1)))

    @staticmethod
    def from_affine(degree: int, affine: Sequence[Scalar]) -> "BinForm":
        """Homogenize an affine polynomial in u to the given degree."""
        a = [Fraction(c) for c in affine]
        if len(a) > degree + 1:
            raise FormDegreeError("affine degree exceeds container degree")
        a += [Fraction(0)] * (degree + 1 - len(a))
        return BinForm(degree, tuple(a))

    @staticmethod
    def from_linear_roots(roots: Sequence[Scalar]) -> "BinForm":
        """prod (u - r v) over the given rational roots."""
        form = BinForm.make(0, [1])
        for r in roots:
            form = form * BinForm.make(1, [-Fraction(r), 1])
        return form

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @functools.cached_property
    def scaled(self) -> Tuple[list, int]:
        """(a, den) with f(u, 1) = a(u) / den, a integer and stripped.

        den is the lcm of the coefficient denominators.
        """
        den = lcm(*(c.denominator for c in self.coeffs))
        return ip.strip([c.numerator * (den // c.denominator) for c in self.coeffs]), den

    def affine_int(self) -> list:
        """f(u, 1) with denominators cleared by their lcm; signs preserved.

        Built once per form and shared by every caller: do not mutate it.
        """
        return self.scaled[0]

    def v_order_at_infinity(self) -> int:
        """Multiplicity of (1:0) as a root, i.e. degree minus affine degree."""
        if self.is_zero:
            raise ValueError("zero form has no well-defined vanishing order")
        return self.degree - ip.degree(self.affine_int())

    def evaluate(self, u: Scalar) -> Fraction:
        """f(u, 1)."""
        u = Fraction(u)
        a, den = self.scaled
        # f(u, 1) = a(n / m) / den = eval_hom(a, n, m) / (den * m^deg a), u = n / m
        m = u.denominator
        return Fraction(ip.eval_hom(a, u.numerator, m), den * m ** max(ip.degree(a), 0))

    def value_at_infinity(self) -> Fraction:
        """f(1, 0), the chart-2 value at the point at infinity."""
        return self.coeffs[self.degree]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BinForm") -> "BinForm":
        if not isinstance(other, BinForm):
            return NotImplemented
        if self.degree != other.degree:
            raise FormDegreeError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return BinForm(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BinForm") -> "BinForm":
        return self + (-other)

    def __neg__(self) -> "BinForm":
        return BinForm(self.degree, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BinForm):
            a, da = self.scaled
            b, db = other.scaled
            den = da * db
            return BinForm.from_affine(
                self.degree + other.degree, [Fraction(c, den) for c in ip.mul(a, b)]
            )
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return BinForm(self.degree, tuple(a * c for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BinForm":
        if n < 0:
            raise ValueError("negative power of a form")
        a, den = self.scaled
        out = [1]
        for _ in range(n):
            out = ip.mul(out, a)
        den = den ** n
        return BinForm.from_affine(n * self.degree, [Fraction(c, den) for c in out])

    # -- normalization -------------------------------------------------------

    def content_and_primitive(self) -> Tuple[Fraction, "BinForm"]:
        """Write f = c * g with c > 0 rational and g primitive integral.

        g keeps the sign of f.  Raises on the zero form.
        """
        if self.is_zero:
            raise ValueError("zero form has no content")
        a, den = self.scaled
        g = ip.content(a)
        return Fraction(g, den), BinForm.from_affine(self.degree, [c // g for c in a])

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = []
            if i:
                mono.append("u" if i == 1 else f"u^{i}")
            j = self.degree - i
            if j:
                mono.append("v" if j == 1 else f"v^{j}")
            body = "*".join(mono)
            if not body:
                terms.append(str(c))
            elif c == 1:
                terms.append(body)
            elif c == -1:
                terms.append(f"-{body}")
            else:
                terms.append(f"{c}*{body}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

