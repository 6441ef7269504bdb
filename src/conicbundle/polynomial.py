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
        cs = [Fraction(c) for c in self.coeffs]
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
    """Solve a square rational linear system by Gaussian elimination."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
