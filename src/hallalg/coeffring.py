"""Exact scalar arithmetic for Hall-algebra coefficients.

Three coefficient domains live here:

  * QPolynomial: polynomials in q with rational coefficients, for the
    counting formulas (automorphism orders, irreducible counts, Hall
    polynomials) and their interpolation.
  * SqrtExt: the quadratic extension Q(sqrt(q0)) for a fixed prime
    power q0, where the twist variable v is specialised to sqrt(q0).
    Odd powers of v only ever occur as such values (v_power,
    quantum_factorial), never symbolically.  A value is a rational
    times sqrt(q0)^0 or sqrt(q0)^1, as every twisted Hall scalar is, and
    a sum of an even and an odd power of v raises InternalCheckError.
  * CycloSqrt: Q(zeta_p)(sqrt(q0)), used for additive-character values,
    with rational coordinates times one power of sqrt(q0).

Everything is immutable and exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .report import InternalCheckError, UsageError

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
# Quadratic extension Q(sqrt(q0)), graded by the parity of the power of v
# ---------------------------------------------------------------------------

@cache
def _square_root(base: int) -> int:
    """isqrt(base) if base is a perfect square, else 0; computed once per base."""
    root = isqrt(base)
    return root if root * root == base else 0


def _monomial(base: int, num: int, den: int, eps: int) -> "SqrtExt":
    """num/den * sqrt(base)^eps for integers with den != 0, brought to lowest
    terms with den > 0 by one gcd; zero gets eps = 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    x = object.__new__(SqrtExt)
    x.base, x._eps = base, eps if num else 0
    x._num, x._den = (num, den) if g == 1 else (num // g, den // g)
    return x


def _parts(base: int, x):
    """(num, den, eps) of a rational or SqrtExt x in Q(sqrt(base)), or None."""
    if isinstance(x, SqrtExt):
        if x.base != base:
            raise TypeError(f"mixed sqrt bases {base} and {x.base}")
        return x._num, x._den, x._eps
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator, 0
    return None


class SqrtExt:
    """Exact num/den * sqrt(base)^eps in Q(sqrt(base)) for a prime power base,
    the form of every Hall scalar: a twist v^k times a rational, eps = k mod 2.

    Stored as integers in lowest terms with den > 0, so equal values have
    equal fields.  Zero, and every value when base is a perfect square, has
    eps = 0.  Building or summing to a value with both a rational and a
    sqrt(base) part raises InternalCheckError: a twist is wrong.
    """

    __slots__ = ("base", "_num", "_den", "_eps")

    def __init__(self, base: int, a=0, b=0):
        base = int(base)
        if not all(isinstance(x, (int, Fraction)) for x in (a, b)):
            raise TypeError(f"expected rational scalars, got {a!r} and {b!r}")
        if b and _square_root(base):
            a, b = a + b * _square_root(base), 0
        if a and b:
            raise InternalCheckError(f"{a}+{b}*sqrt({base}) mixes even and odd powers of v")
        c = b or a
        self.base, self._eps = base, 1 if b else 0
        self._num, self._den = c.numerator, c.denominator

    @property
    def a(self) -> Fraction:
        return Fraction(0) if self._eps else Fraction(self._num, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._num, self._den) if self._eps else Fraction(0)

    @staticmethod
    def zero(base: int) -> "SqrtExt":
        return _monomial(int(base), 0, 1, 0)

    @staticmethod
    def one(base: int) -> "SqrtExt":
        return _monomial(int(base), 1, 1, 0)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self._eps and (self._num, self._den) == (other.numerator, other.denominator)
        if not isinstance(other, SqrtExt):
            return NotImplemented
        return (self.base == other.base and self._num == other._num
                and self._den == other._den and self._eps == other._eps)

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes like it
        return hash((self.base, self._num, self._den) if self._eps else self.a)

    def _plus(self, num, den, eps):
        """self + num/den * sqrt(base)^eps, unless both are nonzero with unequal eps."""
        if not num:
            return self
        if not self._num:
            return _monomial(self.base, num, den, eps)
        if eps != self._eps:
            other = _monomial(self.base, num, den, eps).render()
            raise InternalCheckError(f"{self.render()} + {other} mixes even and odd powers of v")
        d = self._den
        if d == den:
            return _monomial(self.base, self._num + num, d, eps)
        return _monomial(self.base, self._num * den + num * d, d * den, eps)

    def __add__(self, other):
        parts = _parts(self.base, other)
        if parts is None:
            return NotImplemented
        return self._plus(*parts)

    __radd__ = __add__

    def __neg__(self):
        return _monomial(self.base, -self._num, self._den, self._eps)

    def __sub__(self, other):
        parts = _parts(self.base, other)
        if parts is None:
            return NotImplemented
        num, den, eps = parts
        return self._plus(-num, den, eps)

    def __rsub__(self, other):
        return (-self) + other

    def _times(self, num, den, eps):
        """self * num/den * sqrt(base)^eps; sqrt(base)^2 = base goes into num."""
        num *= self._num
        eps += self._eps
        if eps == 2:
            num, eps = num * self.base, 0
        return _monomial(self.base, num, self._den * den, eps)

    def __mul__(self, other):
        parts = _parts(self.base, other)
        if parts is None:
            return NotImplemented
        return self._times(*parts)

    __rmul__ = __mul__

    def _inverse_parts(self, num, den, eps):
        """1/(num/den * sqrt(base)^eps) = den/(num * base^eps) * sqrt(base)^eps."""
        if not num:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(q0))")
        return den, num * self.base if eps else num, eps

    def inverse(self) -> "SqrtExt":
        return _monomial(self.base, *self._inverse_parts(self._num, self._den, self._eps))

    def __truediv__(self, other):
        parts = _parts(self.base, other)
        if parts is None:
            return NotImplemented
        return self._times(*self._inverse_parts(*parts))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        x = self if n >= 0 else self.inverse()
        n = abs(n)
        num = x._num ** n * (x.base ** (n // 2) if x._eps else 1)
        return _monomial(x.base, num, x._den ** n, x._eps * (n % 2))

    def render(self) -> str:
        """The rational times sqrt(base)^eps, e.g. '-3/2' or '1/2*sqrt(5)'."""
        c = Fraction(self._num, self._den)
        return f"{c}*sqrt({self.base})" if self._eps else str(c)

    def __repr__(self):
        return f"SqrtExt({self.render()})"


def v_power(k: int, q0: int) -> SqrtExt:
    """Exact value of v^k at v = sqrt(q0)."""
    return SqrtExt(q0, 0, 1) ** k


def quantum_factorial(n: int, q0: int) -> SqrtExt:
    """[n]! = [1][2]...[n] at v = sqrt(q0), with [0]! = 1 and the quantum
    integer [s] = (v^s - v^-s)/(v - v^-1) = v^(s-1) + v^(s-3) + ... + v^(1-s)."""
    if n < 0:
        raise ValueError("quantum factorial of a negative argument")
    out = SqrtExt.one(q0)
    for s in range(1, n + 1):
        out = out * sum((v_power(s - 1 - 2 * i, q0) for i in range(s)), SqrtExt.zero(q0))
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


def _convolve(p: int, x, y) -> list:
    """Power-basis coordinates of (sum_i x_i zeta^i)(sum_j y_j zeta^j) in Q(zeta_p)."""
    n = p - 1
    raw = [0] * (2 * n)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    raw[i + j] += a * b
    # zeta^p = 1, and zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    for e in range(p, 2 * n):
        raw[e - p] += raw[e]
    top = raw[n]
    return [c - top for c in raw[:n]]


def _cyclo_sqrt(p: int, base: int, num, den: int, eps: int) -> "CycloSqrt":
    """sqrt(base)^eps sum_k num[k]/den zeta^k for integers with den != 0,
    brought to lowest terms with den > 0 by one gcd; zero gets eps = 0."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    x = object.__new__(CycloSqrt)
    x.p, x.base, x.eps = p, base, eps if any(num) else 0
    x._num, x._den = (tuple(num), den) if g == 1 else (tuple(c // g for c in num), den // g)
    return x


class CycloSqrt:
    """sqrt(q0)^eps sum_k coords[k] zeta^k in Q(zeta_p)(sqrt(q0)) for a prime p <= 7,
    stored as integer numerators over one denominator in lowest terms.

    Arithmetic reduces modulo 1 + zeta + ... + zeta^(p-1) = 0; a product is
    an integer convolution that adds the eps values.  Where sqrt(q0) lies in
    Q(zeta_p), comparisons and sums of unequal eps fold eps = 1 into the
    coordinates through _gauss_root; elsewhere such a sum raises
    InternalCheckError."""

    __slots__ = ("p", "base", "eps", "_num", "_den")

    def __init__(self, p: int, base: int, coords=None):
        if p < 2 or p > _CYCLO_PRIME_CAP:
            raise UsageError(f"cyclotomic prime {p} is outside 2..{_CYCLO_PRIME_CAP}, "
                             "the cyclotomic prime cap")
        coords = [0] * (p - 1) if coords is None else coords
        if len(coords) != p - 1:
            raise ValueError("coordinate vector must have length p-1")
        parts = [_parts(base, c) for c in coords]
        if None in parts:
            raise TypeError("coordinates must be rational or SqrtExt")
        eps = {e for n, d, e in parts if n}
        if len(eps) > 1:
            raise InternalCheckError("coordinates mix even and odd powers of v")
        den = lcm(*(d for n, d, e in parts))
        self.p, self.base, self.eps = p, base, max(eps, default=0)
        self._num, self._den = tuple(n * (den // d) for n, d, e in parts), den

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(c, self._den) for c in self._num)

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

    def _folded(self) -> "CycloSqrt":
        """This value with equal fields exactly when values are equal: where
        sqrt(base) lies in Q(zeta_p), eps = 1 is folded in by one convolution."""
        root = _gauss_root(self.p, self.base) if self.eps else None
        if root is None:
            return self
        return _cyclo_sqrt(self.p, self.base, _convolve(self.p, self._num, root._num),
                           self._den * root._den, 0)

    def _as_sqrtext(self):
        """The value as a SqrtExt, or None when it has a zeta part."""
        x = self._folded()
        num = x._num
        if not any(num[1:]):
            return _monomial(self.base, num[0], x._den, x.eps)
        root = _gauss_root(self.p, self.base)
        if root is not None:  # t*sqrt(base) has the coordinates t*root
            r = root._num
            k = next(k for k, c in enumerate(r) if k and c)
            if all(c * r[k] == num[k] * rc for c, rc in zip(num, r)):
                return _monomial(self.base, num[k] * root._den, x._den * r[k], 1)
        return None

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_sqrtext(self) -> bool:
        """True when the value lies in Q(sqrt(base)), i.e. has no zeta part."""
        return self._as_sqrtext() is not None

    def __bool__(self):
        return any(self._num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SqrtExt)):
            return self._as_sqrtext() == other  # None, for a zeta part, equals no scalar
        if not isinstance(other, CycloSqrt):
            return NotImplemented
        x, y = self._folded(), other._folded()
        return (x.p, x.base, x.eps, x._num, x._den) == (y.p, y.base, y.eps, y._num, y._den)

    def __hash__(self):
        # a value of Q(sqrt(base)) equals its SqrtExt, so it hashes like it
        value = self._as_sqrtext()
        x = self._folded()
        return hash((x.p, x.base, x.eps, x._num, x._den) if value is None else value)

    def _coerce(self, other):
        if isinstance(other, CycloSqrt):
            if other.p != self.p or other.base != self.base:
                raise TypeError("mixed cyclotomic contexts")
            return other
        parts = _parts(self.base, other)
        if parts is None:
            return None
        num, den, eps = parts
        return _cyclo_sqrt(self.p, self.base, (num,) + (0,) * (self.p - 2), den, eps)

    def _plus(self, other, sign: int):
        """self + sign*other, at the eps of the nonzero terms."""
        x, y = self, self._coerce(other)
        if y is None:
            return NotImplemented
        if x and y and x.eps != y.eps:
            x, y = x._folded(), y._folded()
            if x.eps or y.eps:
                raise InternalCheckError(
                    f"{x.render()} + {y.render()} mixes even and odd powers of v")
        d, e = x._den, y._den
        num = [a * e + sign * b * d for a, b in zip(x._num, y._num)]
        return _cyclo_sqrt(self.p, self.base, num, d * e, x.eps or y.eps)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyclo_sqrt(self.p, self.base, [-c for c in self._num], self._den, self.eps)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num, eps = _convolve(self.p, self._num, o._num), self.eps + o.eps
        if eps == 2:
            num, eps = [c * self.base for c in num], 0
        return _cyclo_sqrt(self.p, self.base, num, self._den * o._den, eps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar division only; full cyclotomic inversion is not needed
        return self * (SqrtExt.one(self.base) / other)

    def to_json(self):
        coords = [str(c) for c in self.coords]
        zeros = ["0"] * len(coords)
        return {"a": zeros if self.eps else coords, "b": coords if self.eps else zeros}

    def render(self) -> str:
        coords = [_monomial(self.base, c, self._den, self.eps).render() for c in self._num]
        if not any(self._num[1:]):
            return coords[0]
        parts = []
        for k, (c, text) in enumerate(zip(self._num, coords)):
            if c:
                mono = "1" if k == 0 else (f"z{self.p}" if k == 1 else f"z{self.p}^{k}")
                parts.append(f"({text})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CycloSqrt({self.render()})"
