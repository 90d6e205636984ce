"""Exact scalar arithmetic for Hall-algebra coefficients.

Three coefficient domains live here:

  * Laurent polynomials and rational functions in the variable v, with
    q available as the alias v^2.  The symbolic variable is v rather
    than q because the multiplication twist can carry odd powers of v.
  * SqrtExt: the quadratic extension Q(sqrt(q0)) for a fixed prime
    power q0, used when v is specialised to sqrt(q0).
  * CycloSqrt: Q(zeta_p)(sqrt(q0)), used for additive-character values.

Everything is immutable and exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "LaurentPolyV",
    "RationalFunctionV",
    "QPolynomial",
    "SqrtExt",
    "CycloSqrt",
    "rf_arith",
    "eval_v",
    "interpolate_q",
    "quantum_integer",
    "quantum_factorial",
    "v_power",
    "parse_rf",
    "render_rf",
]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Laurent polynomials in v
# ---------------------------------------------------------------------------

class LaurentPolyV:
    """Laurent polynomial in v with rational coefficients.

    Stored as a map exponent -> nonzero Fraction; the empty map is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _frac(c)
                if c:
                    clean[int(k)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPolyV":
        return LaurentPolyV()

    @staticmethod
    def one() -> "LaurentPolyV":
        return LaurentPolyV({0: 1})

    @staticmethod
    def const(c) -> "LaurentPolyV":
        return LaurentPolyV({0: _frac(c)})

    @staticmethod
    def v(k: int = 1) -> "LaurentPolyV":
        """The monomial v^k."""
        return LaurentPolyV({k: 1})

    @staticmethod
    def q(k: int = 1) -> "LaurentPolyV":
        """The monomial q^k = v^(2k)."""
        return LaurentPolyV({2 * k: 1})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def low(self) -> int:
        return min(self.coeffs)

    def high(self) -> int:
        return max(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolyV):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_lp(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = LaurentPolyV.__new__(LaurentPolyV)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPolyV.__new__(LaurentPolyV)
        res.coeffs = {k: -c for k, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-_as_lp(other))

    def __rsub__(self, other):
        return _as_lp(other) + (-self)

    def __mul__(self, other):
        other = _as_lp(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = LaurentPolyV.__new__(LaurentPolyV)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial; use RationalFunctionV")
        result = LaurentPolyV.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPolyV":
        """Multiply by v^k."""
        res = LaurentPolyV.__new__(LaurentPolyV)
        res.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return res

    # -- evaluation ---------------------------------------------------------

    def eval_sqrt(self, q0: int) -> "SqrtExt":
        """Evaluate at v = sqrt(q0), exactly."""
        a = Fraction(0)
        b = Fraction(0)
        for k, c in self.coeffs.items():
            if k % 2 == 0:
                a += c * Fraction(q0) ** (k // 2)
            else:
                b += c * Fraction(q0) ** ((k - 1) // 2)
        return SqrtExt(q0, a, b)

    # -- rendering ----------------------------------------------------------

    def render(self, var: str = "v") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            if k == 0:
                term = str(c) if c > 0 else f"-{-c}"
            else:
                mono = var if k == 1 else f"{var}^{k}"
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
        return f"LaurentPolyV({self.render()})"


def _as_lp(x) -> LaurentPolyV:
    if isinstance(x, LaurentPolyV):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPolyV.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPolyV")


# -- dense polynomial helpers (internal, used for gcd and division) ---------

def _to_dense(p: LaurentPolyV):
    """Return (shift, dense Fraction list) with nonzero constant term."""
    if p.is_zero():
        return 0, []
    lo, hi = p.low(), p.high()
    dense = [p.coeffs.get(k, Fraction(0)) for k in range(lo, hi + 1)]
    return lo, dense

def _from_dense(shift: int, dense) -> LaurentPolyV:
    return LaurentPolyV({shift + i: c for i, c in enumerate(dense) if c})

def _dense_trim(a):
    while a and not a[-1]:
        a.pop()
    return a

def _dense_mul_scalar(a, s):
    return [c * s for c in a]

def _int_primitive(a):
    """Clear denominators and divide by integer content; a is a Fraction list."""
    from math import gcd, lcm
    if not a:
        return []
    denom = 1
    for c in a:
        denom = lcm(denom, c.denominator)
    ints = [int(c * denom) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        return []
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]

def _int_pseudo_rem(a, b):
    """Pseudo-remainder of integer polynomial a by b (deg a >= deg b)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1]
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[da - db + i] -= la * b[i]
        _dense_trim(a)
    return a

def _poly_gcd_dense(a, b):
    """gcd of two Fraction coefficient lists via the primitive PRS."""
    a = _int_primitive(a)
    b = _int_primitive(b)
    if not a:
        return [Fraction(c) for c in b]
    if not b:
        return [Fraction(c) for c in a]
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_pseudo_rem(a, b)
        r = _int_primitive([Fraction(c) for c in r])
        a, b = b, r
    return [Fraction(c) for c in a]

def _poly_divmod_dense(a, b):
    """Exact division helpers over Q; returns (quotient, remainder)."""
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lb = b[-1]
    quot = [Fraction(0)] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        f = a[-1] / lb
        quot[da - db] = f
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
        _dense_trim(a)
    return quot, a


# ---------------------------------------------------------------------------
# Rational functions in v
# ---------------------------------------------------------------------------

class RationalFunctionV:
    """Quotient of Laurent polynomials in v, kept in a canonical form.

    Canonical form: the denominator is an honest polynomial in v with
    nonzero constant term equal to 1, and gcd(numerator, denominator)
    is a unit.  Equality of canonical forms is therefore structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_lp(num)
        den = LaurentPolyV.one() if den is None else _as_lp(den)
        self.num, self.den = _rf_canon(num, den)

    @staticmethod
    def zero():
        return RationalFunctionV(LaurentPolyV.zero())

    @staticmethod
    def one():
        return RationalFunctionV(LaurentPolyV.one())

    @staticmethod
    def v(k: int = 1):
        return RationalFunctionV(LaurentPolyV.v(k))

    @staticmethod
    def q(k: int = 1):
        return RationalFunctionV(LaurentPolyV.q(k))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunctionV(LaurentPolyV.const(other))
        if not isinstance(other, RationalFunctionV):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def cross_equal(self, other: "RationalFunctionV") -> bool:
        """Equality by cross multiplication, independent of canonical form."""
        return (self.num * other.den) == (other.num * self.den)

    def __add__(self, other):
        other = _as_rf(other)
        return RationalFunctionV(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        res = RationalFunctionV.__new__(RationalFunctionV)
        res.num, res.den = -self.num, self.den
        return res

    def __sub__(self, other):
        return self + (-_as_rf(other))

    def __rsub__(self, other):
        return _as_rf(other) + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        return RationalFunctionV(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunctionV(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunctionV.one() / (self ** (-n))
        result = RationalFunctionV.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval_sqrt(self, q0: int) -> "SqrtExt":
        den = self.den.eval_sqrt(q0)
        if den.is_zero():
            raise ZeroDivisionError(f"pole at v = sqrt({q0})")
        return self.num.eval_sqrt(q0) / den

    def render(self) -> str:
        return render_rf(self)

    def __repr__(self):
        return f"RationalFunctionV({self.render()})"


def _as_rf(x) -> RationalFunctionV:
    if isinstance(x, RationalFunctionV):
        return x
    if isinstance(x, (int, Fraction, LaurentPolyV)):
        return RationalFunctionV(_as_lp(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunctionV")


def _rf_canon(num: LaurentPolyV, den: LaurentPolyV):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return LaurentPolyV.zero(), LaurentPolyV.one()
    nshift, ndense = _to_dense(num)
    dshift, ddense = _to_dense(den)
    g = _poly_gcd_dense(ndense, ddense)
    if len(g) > 1:
        ndense, _ = _poly_divmod_dense(ndense, g)
        ddense, _ = _poly_divmod_dense(ddense, g)
    # scale so the denominator is monic (leading coefficient 1); it keeps a
    # nonzero constant term, so equality of canonical forms is structural
    c = ddense[-1]
    ndense = _dense_mul_scalar(ndense, 1 / c)
    ddense = _dense_mul_scalar(ddense, 1 / c)
    return _from_dense(nshift - dshift, ndense), _from_dense(0, ddense)


def rf_arith(a: RationalFunctionV, b: RationalFunctionV, op: str) -> RationalFunctionV:
    """Apply one of {add, sub, mul, div} to two rational functions."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def eval_v(f: RationalFunctionV, q0: int) -> "SqrtExt":
    """Specialise v to sqrt(q0); raises ZeroDivisionError at a pole."""
    return _as_rf(f).eval_sqrt(q0)


# ---------------------------------------------------------------------------
# Polynomials in q (integer exponents >= 0)
# ---------------------------------------------------------------------------

class QPolynomial:
    """Polynomial in q with rational coefficients (for counting formulas)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _frac(c)
                if c:
                    if k < 0:
                        raise ValueError("QPolynomial does not allow negative exponents")
                    clean[int(k)] = c
        self.coeffs = clean

    @staticmethod
    def zero():
        return QPolynomial()

    @staticmethod
    def one():
        return QPolynomial({0: 1})

    @staticmethod
    def const(c):
        return QPolynomial({0: _frac(c)})

    @staticmethod
    def q(k: int = 1):
        return QPolynomial({k: 1})

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.const(other)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = _as_qp(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = QPolynomial.__new__(QPolynomial)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = QPolynomial.__new__(QPolynomial)
        res.coeffs = {k: -c for k, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-_as_qp(other))

    def __rsub__(self, other):
        return _as_qp(other) + (-self)

    def __mul__(self, other):
        other = _as_qp(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = QPolynomial.__new__(QPolynomial)
        res.coeffs = out
        return res

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
        total = Fraction(0)
        x = Fraction(q0)
        for k, c in self.coeffs.items():
            total += c * x ** k
        return total

    def to_laurent_v(self) -> LaurentPolyV:
        """Substitute q = v^2."""
        return LaurentPolyV({2 * k: c for k, c in self.coeffs.items()})

    def render(self) -> str:
        return LaurentPolyV({k: c for k, c in self.coeffs.items()}).render(var="q")

    def __repr__(self):
        return f"QPolynomial({self.render()})"


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
# Quantum integers
# ---------------------------------------------------------------------------

def quantum_integer(s: int) -> LaurentPolyV:
    """[s] = (v^s - v^-s)/(v - v^-1) = v^(s-1) + v^(s-3) + ... + v^(1-s)."""
    if s < 0:
        raise ValueError("quantum integer of a negative argument")
    return LaurentPolyV({s - 1 - 2 * i: 1 for i in range(s)})


def quantum_factorial(n: int) -> LaurentPolyV:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("quantum factorial of a negative argument")
    out = LaurentPolyV.one()
    for s in range(1, n + 1):
        out = out * quantum_integer(s)
    return out


# ---------------------------------------------------------------------------
# Quadratic extension Q(sqrt(q0))
# ---------------------------------------------------------------------------

class SqrtExt:
    """Exact element a + b*sqrt(base) of Q(sqrt(base)) for a prime power base.

    If base is a perfect square the root is folded into the rational
    part, so b is always 0 in that case.
    """

    __slots__ = ("base", "a", "b")

    def __init__(self, base: int, a=0, b=0):
        a = _frac(a)
        b = _frac(b)
        root = isqrt(base)
        if root * root == base and b:
            a += b * root
            b = Fraction(0)
        self.base = int(base)
        self.a = a
        self.b = b

    @staticmethod
    def from_fraction(base: int, x) -> "SqrtExt":
        return SqrtExt(base, _frac(x), 0)

    @staticmethod
    def zero(base: int) -> "SqrtExt":
        return SqrtExt(base, 0, 0)

    @staticmethod
    def one(base: int) -> "SqrtExt":
        return SqrtExt(base, 1, 0)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, SqrtExt):
            if other.base != self.base:
                raise TypeError(
                    f"mixed sqrt bases {self.base} and {other.base}")
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtExt(self.base, other, 0)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, SqrtExt):
            return NotImplemented
        return (self.base == other.base and self.a == other.a
                and self.b == other.b)

    def __hash__(self):
        return hash((self.base, self.a, self.b))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(self.base, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return SqrtExt(self.base, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(self.base, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtExt(self.base,
                       self.a * o.a + self.b * o.b * self.base,
                       self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "SqrtExt":
        norm = self.a * self.a - self.b * self.b * self.base
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(q0))")
        return SqrtExt(self.base, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

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
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*sqrt({self.base})"
        s = f"{self.a}+{self.b}*sqrt({self.base})" if self.b > 0 else \
            f"{self.a}-{-self.b}*sqrt({self.base})"
        return s

    def __repr__(self):
        return f"SqrtExt({self.render()})"


def v_power(k: int, q0: int) -> SqrtExt:
    """Exact value of v^k at v = sqrt(q0)."""
    if k % 2 == 0:
        return SqrtExt(q0, Fraction(q0) ** (k // 2), 0)
    return SqrtExt(q0, 0, Fraction(q0) ** ((k - 1) // 2))


# ---------------------------------------------------------------------------
# Cyclotomic-quadratic composite Q(zeta_p)(sqrt(q0))
# ---------------------------------------------------------------------------

_CYCLO_PRIME_CAP = 7


class CycloSqrt:
    """Element of Q(zeta_p)(sqrt(q0)) in the power basis 1, zeta, ..., zeta^(p-2).

    Arithmetic reduces modulo 1 + zeta + ... + zeta^(p-1) = 0.  The
    prime p is the field characteristic of the additive characters that
    produce these values; only p <= 7 is supported.
    """

    __slots__ = ("p", "base", "coords")

    def __init__(self, p: int, base: int, coords=None):
        if p < 2 or p > _CYCLO_PRIME_CAP:
            raise ValueError(f"cyclotomic prime {p} out of supported range")
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
        coords = [SqrtExt.zero(base)] * (p - 1)
        coords[0] = x if isinstance(x, SqrtExt) else SqrtExt(base, x, 0)
        return CycloSqrt(p, base, coords)

    @staticmethod
    def zeta(p: int, base: int, k: int = 1) -> "CycloSqrt":
        """The root of unity zeta_p^k."""
        k %= p
        coords = [SqrtExt.zero(base)] * (p - 1)
        if k < p - 1:
            coords[k] = SqrtExt.one(base)
        else:
            minus_one = SqrtExt(base, -1, 0)
            coords = [minus_one] * (p - 1)
        return CycloSqrt(p, base, coords)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def is_sqrtext(self) -> bool:
        """True when the value lies in Q(sqrt(base)), i.e. has no zeta part."""
        return all(c.is_zero() for c in self.coords[1:])

    def as_sqrtext(self) -> SqrtExt:
        if not self.is_sqrtext():
            raise ValueError("value has a nontrivial cyclotomic part")
        return self.coords[0]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SqrtExt)):
            return self.is_sqrtext() and self.coords[0] == other
        if not isinstance(other, CycloSqrt):
            return NotImplemented
        return (self.p == other.p and self.base == other.base
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.p, self.base, self.coords))

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
        if self.is_sqrtext():
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


# ---------------------------------------------------------------------------
# Canonical text rendering and parsing of symbolic values
# ---------------------------------------------------------------------------

def render_rf(f: RationalFunctionV) -> str:
    """Canonical text form, e.g. '(v^2-1)^-1 * v^4'."""
    if f.num.is_zero():
        return "0"
    num_str = f.num.render()
    if f.den == LaurentPolyV.one():
        return num_str
    if len(f.num.coeffs) > 1:
        num_str = f"({num_str})"
    return f"({f.den.render()})^-1 * {num_str}"


class _Tok:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/()^":
                self.toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch == "v" or ch == "q":
                self.toks.append(ch)
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in symbolic value")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t


def parse_rf(text: str) -> RationalFunctionV:
    """Parse the canonical rendering back into a rational function."""
    toks = _Tok(text)
    value = _parse_sum(toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input {toks.peek()!r} in symbolic value")
    return value


def _parse_sum(toks):
    sign = 1
    if toks.peek() in ("+", "-"):
        sign = -1 if toks.next() == "-" else 1
    value = _parse_product(toks) * sign
    while toks.peek() in ("+", "-"):
        op = toks.next()
        term = _parse_product(toks)
        value = value + term if op == "+" else value - term
    return value


def _parse_product(toks):
    value = _parse_power(toks)
    while toks.peek() in ("*", "/"):
        op = toks.next()
        rhs = _parse_power(toks)
        value = value * rhs if op == "*" else value / rhs
    return value


def _parse_power(toks):
    base = _parse_atom(toks)
    while toks.peek() == "^":
        toks.next()
        neg = False
        if toks.peek() == "-":
            toks.next()
            neg = True
        exp_tok = toks.next()
        if exp_tok is None or not exp_tok.isdigit():
            raise ValueError("expected integer exponent")
        e = int(exp_tok)
        base = base ** (-e if neg else e)
    return base


def _parse_atom(toks):
    t = toks.next()
    if t == "(":
        value = _parse_sum(toks)
        if toks.next() != ")":
            raise ValueError("unbalanced parenthesis in symbolic value")
        return value
    if t == "v":
        return RationalFunctionV.v()
    if t == "q":
        return RationalFunctionV.q()
    if t is not None and t[0].isdigit():
        if "/" in t:
            a, b = t.split("/")
            return RationalFunctionV(LaurentPolyV.const(Fraction(int(a), int(b))))
        return RationalFunctionV(LaurentPolyV.const(int(t)))
    raise ValueError(f"unexpected token {t!r} in symbolic value")
