"""Dense univariate polynomials over the rationals, exact throughout."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable

from .projline import Rat, clear_denominators, format_rat


@dataclass(frozen=True)
class RatPoly:
    """Coefficients low-to-high with trailing zeros trimmed; () is zero."""

    coeffs: tuple

    def __post_init__(self):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @staticmethod
    def one() -> "RatPoly":
        return RatPoly((Fraction(1),))

    @staticmethod
    def constant(c) -> "RatPoly":
        return RatPoly((Fraction(c),))

    @staticmethod
    def x() -> "RatPoly":
        return RatPoly((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree as an int, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Rat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(tuple(self.coefficient(i) + other.coefficient(i) for i in range(n)))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(tuple(out))

    __rmul__ = __mul__

    @cached_property
    def _cleared(self) -> tuple:
        """(L, the integers L * coeffs, high to low) for L the lcm of the
        denominators; computed once per polynomial, outside __eq__ and hash."""
        return (lcm(*(c.denominator for c in self.coeffs)),
                clear_denominators(reversed(self.coeffs)))

    def evaluate(self, x) -> Rat:
        """Homogeneous Horner at x = p/q in integers: with a_i = L * c_i,
        P(x) = (sum a_i p^i q^(d - i)) / (L q^d), reduced once."""
        if not self.coeffs:
            return Fraction(0)
        den, ints = self._cleared
        p, q = Fraction(x).as_integer_ratio()
        acc, qk = 0, 1
        for a in ints:
            acc = acc * p + a * qk
            qk *= q
        return Fraction(acc, den * qk // q)

    __call__ = evaluate

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k > 0))

    @staticmethod
    def from_roots(roots: Iterable, scale=1) -> "RatPoly":
        """scale * prod (x - r) over the given roots."""
        poly = RatPoly.constant(scale)
        for r in roots:
            poly = poly * RatPoly((-Fraction(r), Fraction(1)))
        return poly

    def as_json(self) -> list:
        return [format_rat(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "RatPoly(0)"
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "RatPoly(" + " + ".join(terms) + ")"


def solve_linear(rows: list, rhs: list) -> list:
    """Solve a square rational linear system by fraction-free elimination.

    Each row is cleared to integers by its own lcm, and the scaled right-hand
    side is put over one denominator D.  One-step Bareiss elimination (Math.
    Comp. 22, 1968) follows.  Its division by the previous pivot is exact by
    Sylvester's identity, as every entry is a minor of the row-permuted
    matrix.  The last pivot det is that matrix's determinant, so by Cramer's
    rule det * D * x_i is an integer and back-substitution divides exactly.
    """
    n = len(rows)
    rows = [[v if isinstance(v, Fraction) else Fraction(v) for v in row] for row in rows]
    aug = [list(clear_denominators(row)) for row in rows]
    scaled = [Fraction(b) * lcm(*(v.denominator for v in row)) for row, b in zip(rows, rhs)]
    den = lcm(*(b.denominator for b in scaled))
    for row, b in zip(aug, clear_denominators(scaled)):
        row.append(b)
    det = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        head, tail = aug[k][k], aug[k][k + 1:]
        for row in aug[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(head * v - lead * w) // det for v, w in zip(row[k + 1:], tail)]
        det = head
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        known = sum(a * y for a, y in zip(aug[i][i + 1:n], nums[i + 1:]))
        nums[i], rem = divmod(det * aug[i][n] - known, aug[i][i])
        if rem:
            raise AssertionError("inexact back-substitution")
    return [Fraction(num, det * den) for num in nums]
