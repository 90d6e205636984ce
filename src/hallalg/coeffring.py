"""Exact scalar arithmetic for Hall-algebra coefficients.

Three coefficient domains live here:

  * QPolynomial: polynomials in q with rational coefficients, for the
    counting formulas (automorphism orders, irreducible counts, Hall
    polynomials) and their interpolation.
  * SqrtExt: the quadratic extension Q(sqrt(q0)) for a fixed prime
    power q0, where the twist variable v is specialised to sqrt(q0).
    Odd powers of v only ever occur as such values (v_power,
    quantum_factorial), never symbolically.
  * CycloSqrt: Q(zeta_p)(sqrt(q0)), used for additive-character values.

Everything is immutable and exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .report import UsageError

__all__ = [
    "QPolynomial",
    "SqrtExt",
    "CycloSqrt",
    "interpolate_q",
    "quantum_factorial",
    "v_power",
]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Polynomials in q (integer exponents >= 0)
# ---------------------------------------------------------------------------

class QPolynomial:
    """Polynomial in q with rational coefficients (for counting formulas).

    Stored as integer numerators {exponent: int} over one positive
    denominator, in lowest terms (the gcd of the denominator and every
    numerator is 1), so equal polynomials have equal fields and a product
    of integer polynomials is a plain integer convolution.  The property
    coeffs gives a read-only {exponent: int | Fraction} view.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=None):
        fracs = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _frac(c)
                if c:
                    if k < 0:
                        raise ValueError("QPolynomial does not allow negative exponents")
                    fracs[int(k)] = c
        den = lcm(*(c.denominator for c in fracs.values()))
        self._num = {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}
        self._den = den

    @property
    def coeffs(self):
        if self._den == 1:
            return MappingProxyType(self._num)
        den = self._den
        return MappingProxyType({k: Fraction(c, den) for k, c in self._num.items()})

    @staticmethod
    def zero():
        return _qp({}, 1)

    @staticmethod
    def one():
        return _qp({0: 1}, 1)

    @staticmethod
    def const(c):
        return QPolynomial({0: c})

    @staticmethod
    def q(k: int = 1):
        return QPolynomial({k: 1})

    def is_zero(self):
        return not self._num

    def degree(self):
        return max(self._num) if self._num else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.const(other)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes like it
        if self.degree() <= 0:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = _as_qp(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            out = dict(self._num)
            items = other._num.items()
        else:
            out = {k: c * d2 for k, c in self._num.items()}
            items = ((k, c * d1) for k, c in other._num.items())
        for k, c in items:
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _qp(out, d1 if d1 == d2 else d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _qp({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-_as_qp(other))

    def __rsub__(self, other):
        return _as_qp(other) + (-self)

    def __mul__(self, other):
        other = _as_qp(other)
        out = {}
        get = out.get
        for k2, c2 in other._num.items():
            for k1, c1 in self._num.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return _qp({k: c for k, c in out.items() if c}, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a QPolynomial")
        result = QPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, q0) -> Fraction:
        x = Fraction(q0)
        if x.denominator == 1:
            x = x.numerator
            return Fraction(sum(c * x ** k for k, c in self._num.items()), self._den)
        return sum((c * x ** k for k, c in self._num.items()), Fraction(0)) / self._den

    def render(self) -> str:
        """Terms by descending exponent, e.g. '1/4*q^4-1/4*q^2' or '-q+1'."""
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in sorted(coeffs, reverse=True):
            c = coeffs[k]
            if k == 0:
                term = str(c) if c > 0 else f"-{-c}"
            else:
                mono = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    term = mono
                elif c == -1:
                    term = f"-{mono}"
                elif c > 0:
                    term = f"{c}*{mono}"
                else:
                    term = f"-{-c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def __repr__(self):
        return f"QPolynomial({self.render()})"


def _qp(num: dict, den: int) -> QPolynomial:
    """The polynomial num/den from nonzero integer numerators and den > 0.

    One gcd over den and the numerators brings it to lowest terms; an
    integer polynomial (den == 1) skips it.
    """
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    x = object.__new__(QPolynomial)
    x._num = num
    x._den = den
    return x


def _as_qp(x) -> QPolynomial:
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QPolynomial")


def interpolate_q(points, degree_bound: int) -> QPolynomial:
    """Lagrange interpolation through (q_i, value_i) pairs.

    Requires at least degree_bound + 1 points with distinct q_i.  Extra
    points must be consistent with the interpolant, otherwise a
    ValueError naming the violating point is raised.
    """
    points = [(int(qi), _frac(vi)) for qi, vi in points]
    seen = {}
    for qi, vi in points:
        if qi in seen and seen[qi] != vi:
            raise ValueError(f"conflicting values at q={qi}")
        seen[qi] = vi
    distinct = sorted(seen.items())
    if len(distinct) < degree_bound + 1:
        raise ValueError(
            f"need {degree_bound + 1} distinct sample points, got {len(distinct)}")
    base = distinct[: degree_bound + 1]
    poly = QPolynomial.zero()
    for i, (qi, vi) in enumerate(base):
        term = QPolynomial.const(vi)
        for j, (qj, _) in enumerate(base):
            if i == j:
                continue
            term = term * QPolynomial({1: Fraction(1, qi - qj), 0: Fraction(-qj, qi - qj)})
        poly = poly + term
    for qi, vi in distinct[degree_bound + 1:]:
        if poly.evaluate(qi) != vi:
            raise ValueError(
                f"inconsistent sample at q={qi}: interpolant gives "
                f"{poly.evaluate(qi)}, data says {vi}")
    return poly


# ---------------------------------------------------------------------------
# Quadratic extension Q(sqrt(q0))
# ---------------------------------------------------------------------------

@cache
def _square_root(base: int) -> int:
    """isqrt(base) if base is a perfect square, else 0; computed once per base."""
    root = isqrt(base)
    return root if root * root == base else 0


def _reduced(base: int, a: int, b: int, den: int) -> "SqrtExt":
    """The element (a + b*sqrt(base))/den for integers with den != 0.

    One gcd brings (a, b, den) to lowest terms with den > 0.  The caller
    keeps b = 0 when base is a perfect square; sums, products and
    quotients of such elements do so by themselves.
    """
    g = gcd(a, b, den)
    if den < 0:
        g = -g
    x = object.__new__(SqrtExt)
    x.base = base
    if g == 1:
        x._a, x._b, x._den = a, b, den
    else:
        x._a, x._b, x._den = a // g, b // g, den // g
    return x


class SqrtExt:
    """Exact element a + b*sqrt(base) of Q(sqrt(base)) for a prime power base.

    Stored as integers (a + b*sqrt(base))/den in lowest terms with den > 0,
    so equal values have equal fields.  If base is a perfect square the
    root is folded into the rational part, so b is always 0 in that case.
    The properties a and b give the two coordinates as Fractions.
    """

    __slots__ = ("base", "_a", "_b", "_den")

    def __init__(self, base: int, a=0, b=0):
        a = _frac(a)
        b = _frac(b)
        base = int(base)
        na = a.numerator * b.denominator
        nb = b.numerator * a.denominator
        root = _square_root(base)
        if root and nb:
            na += nb * root
            nb = 0
        den = a.denominator * b.denominator
        g = gcd(na, nb, den)
        self.base, self._a, self._b, self._den = base, na // g, nb // g, den // g

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._den)

    @staticmethod
    def zero(base: int) -> "SqrtExt":
        return _reduced(int(base), 0, 0, 1)

    @staticmethod
    def one(base: int) -> "SqrtExt":
        return _reduced(int(base), 1, 0, 1)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self):
        return not self.is_zero()

    def _parts(self, other):
        """(a, b, den) of other as an element of this field, or None."""
        if isinstance(other, SqrtExt):
            if other.base != self.base:
                raise TypeError(
                    f"mixed sqrt bases {self.base} and {other.base}")
            return other._a, other._b, other._den
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._a == other.numerator
                    and self._den == other.denominator)
        if not isinstance(other, SqrtExt):
            return NotImplemented
        return (self.base == other.base and self._a == other._a
                and self._b == other._b and self._den == other._den)

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes like it
        if not self._b:
            return hash(self.a)
        return hash((self.base, self._a, self._b, self._den))

    def _plus(self, a, b, den):
        """self + (a + b*sqrt(base))/den."""
        d = self._den
        if d == den:
            return _reduced(self.base, self._a + a, self._b + b, d)
        return _reduced(self.base, self._a * den + a * d, self._b * den + b * d, d * den)

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return self._plus(*parts)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.base, -self._a, -self._b, self._den)

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, den = parts
        return self._plus(-a, -b, den)

    def __rsub__(self, other):
        return (-self) + other

    def _times(self, a, b, den):
        """self * (a + b*sqrt(base))/den."""
        s = self.base
        return _reduced(s, self._a * a + self._b * b * s, self._a * b + self._b * a,
                        self._den * den)

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return self._times(*parts)

    __rmul__ = __mul__

    def _inverse_parts(self, a, b, den):
        """1/((a + b*sqrt(base))/den) = den*(a - b*sqrt(base))/(a^2 - b^2*base)."""
        norm = a * a - b * b * self.base
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(q0))")
        return den * a, -den * b, norm

    def inverse(self) -> "SqrtExt":
        return _reduced(self.base, *self._inverse_parts(self._a, self._b, self._den))

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return self._times(*self._inverse_parts(*parts))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = SqrtExt.one(self.base)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def render(self) -> str:
        a, b = self.a, self.b
        if not b:
            return str(a)
        if not a:
            return f"{b}*sqrt({self.base})"
        s = f"{a}+{b}*sqrt({self.base})" if b > 0 else \
            f"{a}-{-b}*sqrt({self.base})"
        return s

    def __repr__(self):
        return f"SqrtExt({self.render()})"


def v_power(k: int, q0: int) -> SqrtExt:
    """Exact value of v^k at v = sqrt(q0)."""
    if k % 2 == 0:
        return SqrtExt(q0, Fraction(q0) ** (k // 2), 0)
    return SqrtExt(q0, 0, Fraction(q0) ** ((k - 1) // 2))


def quantum_factorial(n: int, q0: int) -> SqrtExt:
    """[n]! = [1][2]...[n] at v = sqrt(q0), with [0]! = 1 and the quantum
    integer [s] = (v^s - v^-s)/(v - v^-1) = v^(s-1) + v^(s-3) + ... + v^(1-s)."""
    if n < 0:
        raise ValueError("quantum factorial of a negative argument")
    out = SqrtExt.one(q0)
    for s in range(1, n + 1):
        qint = SqrtExt.zero(q0)
        for i in range(s):
            qint = qint + v_power(s - 1 - 2 * i, q0)
        out = out * qint
    return out


# ---------------------------------------------------------------------------
# Cyclotomic-quadratic composite Q(zeta_p)(sqrt(q0))
# ---------------------------------------------------------------------------

_CYCLO_PRIME_CAP = 7


@cache
def _gauss_root(p: int, base: int):
    """sqrt(base) with rational coordinates when it lies in Q(zeta_p), else
    None.  It does when p = 1 (mod 4) and base = p^(2m+1): sqrt(p) is then
    the Gauss sum sum_{a=1}^{p-1} (a/p) zeta^a."""
    m = next(m for m in range(base) if p ** (2 * m + 1) >= base)
    if p % 4 != 1 or p ** (2 * m + 1) != base:
        return None
    return sum((CycloSqrt.zeta(p, base, a) * (1 if pow(a, p // 2, p) == 1 else -1)
                for a in range(1, p)), CycloSqrt.zero(p, base)) * p ** m


class CycloSqrt:
    """Element of Q(zeta_p)(sqrt(q0)) in the power basis 1, zeta, ..., zeta^(p-2).

    Arithmetic reduces modulo 1 + zeta + ... + zeta^(p-1) = 0.  The
    prime p is the field characteristic of the additive characters that
    produce these values; only p <= 7 is supported.  Where sqrt(q0) lies
    in Q(zeta_p) the stored coordinates are not unique, so comparisons
    read _canonical().
    """

    __slots__ = ("p", "base", "coords")

    def __init__(self, p: int, base: int, coords=None):
        if p < 2 or p > _CYCLO_PRIME_CAP:
            raise UsageError(f"cyclotomic prime {p} is outside 2..{_CYCLO_PRIME_CAP}, "
                             "the cyclotomic prime cap")
        if coords is None:
            coords = [SqrtExt.zero(base)] * (p - 1)
        coords = tuple(
            c if isinstance(c, SqrtExt) else SqrtExt(base, c, 0) for c in coords)
        if len(coords) != p - 1:
            raise ValueError("coordinate vector must have length p-1")
        for c in coords:
            if c.base != base:
                raise TypeError("coordinate base mismatch")
        self.p = p
        self.base = base
        self.coords = coords

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(p: int, base: int) -> "CycloSqrt":
        return CycloSqrt(p, base)

    @staticmethod
    def one(p: int, base: int) -> "CycloSqrt":
        return CycloSqrt.from_scalar(p, base, 1)

    @staticmethod
    def from_scalar(p: int, base: int, x) -> "CycloSqrt":
        return CycloSqrt(p, base, [x] + [0] * (p - 2))

    @staticmethod
    def zeta(p: int, base: int, k: int = 1) -> "CycloSqrt":
        """The root of unity zeta_p^k."""
        k %= p
        if k == p - 1:  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            return CycloSqrt(p, base, [-1] * (p - 1))
        return CycloSqrt(p, base, [int(j == k) for j in range(p - 1)])

    # -- predicates ---------------------------------------------------------

    def _canonical(self):
        """Coordinates equal exactly when the values are: where sqrt(base) lies
        in Q(zeta_p), each b*sqrt(base) becomes b*root, and the t*root that
        clears root's first nonzero zeta coordinate goes back as t*sqrt(base)."""
        root = _gauss_root(self.p, self.base)
        if root is None:
            return self.coords
        a, b = (CycloSqrt(self.p, self.base, [getattr(c, part) for c in self.coords])
                for part in "ab")
        x = a + b * root
        k = next(k for k, c in enumerate(root.coords) if k and c)
        t = x.coords[k] / root.coords[k]
        return (x - root * t + t * SqrtExt(self.base, 0, 1)).coords

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._canonical())

    def is_sqrtext(self) -> bool:
        """True when the value lies in Q(sqrt(base)), i.e. has no zeta part."""
        return all(c.is_zero() for c in self._canonical()[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SqrtExt)):
            return self.is_sqrtext() and self._canonical()[0] == other
        if not isinstance(other, CycloSqrt):
            return NotImplemented
        return (self.p == other.p and self.base == other.base
                and self._canonical() == other._canonical())

    def __hash__(self):
        # a value of Q(sqrt(base)) equals its SqrtExt, so it hashes like it
        if self.is_sqrtext():
            return hash(self._canonical()[0])
        return hash((self.p, self.base, self._canonical()))

    def _coerce(self, other):
        if isinstance(other, CycloSqrt):
            if other.p != self.p or other.base != self.base:
                raise TypeError("mixed cyclotomic contexts")
            return other
        if isinstance(other, (int, Fraction, SqrtExt)):
            return CycloSqrt.from_scalar(self.p, self.base, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloSqrt(self.p, self.base,
                         [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CycloSqrt(self.p, self.base, [-c for c in self.coords])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloSqrt(self.p, self.base,
                         [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SqrtExt)):  # scales each coordinate
            return CycloSqrt(self.p, self.base, [c * other for c in self.coords])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        n = p - 1
        raw = [SqrtExt.zero(self.base) for _ in range(2 * n - 1)]
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coords):
                if b.is_zero():
                    continue
                raw[i + j] = raw[i + j] + a * b
        # fold exponents >= p-1 back into the power basis
        for e in range(2 * n - 2, n - 1, -1):
            c = raw[e]
            if c.is_zero():
                continue
            raw[e] = SqrtExt.zero(self.base)
            if e >= p:
                raw[e - p] = raw[e - p] + c
            else:  # e == p-1: zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
                for j in range(n):
                    raw[j] = raw[j] - c
        return CycloSqrt(p, self.base, raw[:n])

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar division only; full cyclotomic inversion is not needed
        if isinstance(other, (int, Fraction)):
            other = SqrtExt(self.base, other, 0)
        if isinstance(other, SqrtExt):
            inv = other.inverse()
            return CycloSqrt(self.p, self.base, [c * inv for c in self.coords])
        return NotImplemented

    def to_json(self):
        return {"a": [str(c.a) for c in self.coords],
                "b": [str(c.b) for c in self.coords]}

    def render(self) -> str:
        if all(c.is_zero() for c in self.coords[1:]):
            return self.coords[0].render()
        parts = []
        for k, c in enumerate(self.coords):
            if c.is_zero():
                continue
            mono = "1" if k == 0 else (f"z{self.p}" if k == 1 else f"z{self.p}^{k}")
            parts.append(f"({c.render()})*{mono}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycloSqrt({self.render()})"
