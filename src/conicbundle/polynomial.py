"""Dense univariate polynomials over the rationals, exact throughout."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import Value
from .projline import Rat, as_rat, as_ratio, clear_denominators, format_rat


class RatPoly(Value):
    """Coefficients low-to-high with trailing zeros trimmed; () is zero.

    _cleared is (L, the integers L * coeffs, high to low) for L the lcm of
    the denominators, which ratio_at evaluates."""

    __slots__ = ("coeffs", "_cleared")

    def __init__(self, coeffs: tuple):
        cs = list(map(as_rat, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        super().__init__(tuple(cs), (lcm(*(c.denominator for c in cs)),
                                     clear_denominators(reversed(cs))))

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @staticmethod
    def one() -> "RatPoly":
        return RatPoly((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Rat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else as_rat(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(tuple(self.coefficient(i) + other.coefficient(i) for i in range(n)))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, RatPoly):
            return RatPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(tuple(out))

    __rmul__ = __mul__

    def evaluate(self, x) -> Rat:
        return Fraction(*self.ratio_at(x))

    def ratio_at(self, x, derivative: bool = False) -> tuple:
        """P(x), or P'(x) with derivative, as integers (num, den), den > 0, not
        reduced: homogeneous Horner at x = p/q with a_i = L * c_i gives
        (sum a_i p^i q^(d - i)) / (L q^d), and on the i a_i for i >= 1, P'(x)."""
        p, q = as_ratio(x)
        den, ints = self._cleared
        if derivative:
            ints = [i * a for i, a in zip(range(len(ints) - 1, 0, -1), ints)]
        if not ints:
            return 0, 1
        acc, qk = 0, 1
        for a in ints:
            acc = acc * p + a * qk
            qk *= q
        return acc, den * qk // q

    def as_json(self) -> list:
        return [format_rat(c) for c in self.coeffs]


def solve_linear(rows: list, rhs: list) -> list:
    """Solve a square rational linear system by fraction-free elimination.

    Each row, with its right-hand side, is cleared to integers by its own
    lcm.  One-step Bareiss elimination (Math. Comp. 22, 1968) follows.  Its
    division by the previous pivot is exact by Sylvester's identity, as every
    entry is a minor of the row-permuted matrix.  The last pivot det is that
    matrix's determinant, so by Cramer's rule det * x_i is an integer and
    back-substitution divides exactly.
    """
    n = len(rows)
    aug = [list(clear_denominators([*row, b])) for row, b in zip(rows, rhs)]
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
    return [Fraction(num, det) for num in nums]
