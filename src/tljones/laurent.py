"""Exact Laurent polynomials in one variable with integer coefficients.

Coefficients are arbitrary-precision Python ints and the zero polynomial is
the empty map, so all arithmetic is exact. The variable is anonymous; by
convention the rest of the package uses the Kauffman variable A, with the
Jones variable obtained through the substitution t = A^-4.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Mapping


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


@dataclasses.dataclass(frozen=True, eq=False)
class LaurentPoly:
    """Immutable Laurent polynomial: map from exponent to nonzero int coefficient.

    Arithmetic and equality take polynomials only; an integer constant c is
    LaurentPoly.monomial(0, c). Polynomials are unhashable.
    """

    coeffs: Mapping[int, int]

    def __init__(self, coeffs: Mapping[int, int]):
        filtered = {operator.index(e): operator.index(c) for e, c in coeffs.items() if c}  # refuses floats
        object.__setattr__(self, "coeffs", filtered)

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls({})

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return cls({exponent: coefficient})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return LaurentPoly(out)

    def substitute_inverse(self) -> LaurentPoly:
        """The image under x -> x^-1 (mirror of all exponents)."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def div_exact(self, divisor: LaurentPoly) -> LaurentPoly:
        """Exact division; raises ExactDivisionError if a remainder survives.

        Long division over Z from the top exponent down, in Z[x, x^-1].
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        den = divisor.coeffs
        offset = min(self.coeffs) - min(den)  # the lowest exponent the quotient may have
        den_deg = max(den)
        num = dict(self.coeffs)
        quotient: dict[int, int] = {}
        while num:
            deg = max(num)
            q, rem = divmod(num[deg], den[den_deg])
            if deg - den_deg < offset or rem:
                raise ExactDivisionError("polynomial division leaves a remainder")
            quotient[deg - den_deg] = q
            for e, c in den.items():
                e2 = e + deg - den_deg
                c2 = num.get(e2, 0) - q * c
                if c2:
                    num[e2] = c2
                else:
                    num.pop(e2, None)
        return LaurentPoly(quotient)

    def evaluate(self, x: complex) -> complex:
        """Numeric evaluation at a nonzero complex point, summed in ascending exponent order."""
        total = 0j
        for e, c in sorted(self.coeffs.items()):
            total += c * x**e
        return total

    def to_json_dict(self, variable: str) -> dict:
        """JSON form {"variable": ..., "terms": [[exp, "coeff"], ...]}, coefficients as decimal strings."""
        return {
            "variable": variable,
            "terms": [[e, str(c)] for e, c in sorted(self.coeffs.items())],
        }

    def format(self, variable: str = "A") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                power = variable if e == 1 else f"{variable}^{e}"
                term = f"{mag}{power}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"LaurentPoly({self.format()})"


def convert_to_t(poly_a: LaurentPoly) -> LaurentPoly:
    """Substitute t = A^-4 into a polynomial in A.

    Every A-exponent must be divisible by 4; links with an even number of
    components produce half-integer t-powers and are rejected here.
    """
    out: dict[int, int] = {}
    for e, c in sorted(poly_a.coeffs.items()):
        if e % 4 != 0:
            raise ValueError(f"A-exponent {e} is not divisible by 4; no integer t-form exists")
        out[-e // 4] = c
    return LaurentPoly(out)
