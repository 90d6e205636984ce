"""Finite fields GF(p^e) with exact arithmetic and traces.

Elements are coded as integers 0 .. p^e - 1: the code of an element with
coefficient vector (c_0, ..., c_{e-1}) over GF(p) is c_0 + c_1*p + ...
(low-to-high base-p digits).  The modulus is the lexicographically
smallest monic irreducible polynomial of the right degree under that
same digit order, so field construction is fully deterministic.

Dense matrices over a field are tuples of row tuples of codes; the
helpers at the bottom cover the small-dimension linear algebra the
representation engines need.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt

from .report import UsageError

__all__ = [
    "FIELD_ORDER_CAP",
    "FieldSpec",
    "trace_to_prime",
]

# The largest field whose q x q tables are built, 2^20 entries each: GF(1024)
# is the largest field tests and CI use, and its tables take about 18 s and
# 62 MB, so past it a run would spend minutes before a point cap refused it.
FIELD_ORDER_CAP = 1024


def _factor_prime_power(q: int):
    """(p, e) with q = p^e.  The least divisor of q above 1 is prime, and
    q has one at most isqrt(q) unless q itself is prime."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((p for p in range(2, isqrt(q) + 1) if q % p == 0), q)
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_mod_mul(a, b, modulus, p):
    """Multiply coefficient tuples over GF(p) modulo a monic modulus."""
    e = len(modulus) - 1
    raw = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            raw[i + j] = (raw[i + j] + x * y) % p
    for k in range(len(raw) - 1, e - 1, -1):
        c = raw[k]
        if not c:
            continue
        raw[k] = 0
        for j in range(e):
            raw[k - e + j] = (raw[k - e + j] - c * modulus[j]) % p
    out = raw[:e]
    out += [0] * (e - len(out))
    return tuple(out)


def _is_irreducible(poly, p):
    """Check irreducibility of a monic polynomial over GF(p) by trial division."""
    e = len(poly) - 1
    if e == 1:
        return True
    # root search covers degrees 2 and 3 completely
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if e <= 3:
        return True
    # degree 4+: divide by all monic polynomials of degree 2 .. e//2
    for d in range(2, e // 2 + 1):
        for code in range(p ** d):
            div = _decode_poly(code, d, p) + (1,)
            if _poly_divides(div, poly, p):
                return False
    return True


def _decode_poly(code, length, p):
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return tuple(out)


def _poly_divides(div, poly, p):
    rem = list(poly)
    dd = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    while len(rem) - 1 >= dd:
        if rem[-1] == 0:
            rem.pop()
            continue
        f = rem[-1] * inv_lead % p
        off = len(rem) - 1 - dd
        for i in range(dd + 1):
            rem[off + i] = (rem[off + i] - f * div[i]) % p
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return not rem


class FieldSpec:
    """Immutable description of GF(p^e); its arithmetic is read from
    `tables`, built on first use."""

    _cache: dict = {}

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = self._find_modulus(p, e)

    @staticmethod
    def from_order(q: int) -> "FieldSpec":
        if q in FieldSpec._cache:
            return FieldSpec._cache[q]
        p, e = _factor_prime_power(q)
        spec = FieldSpec(p, e)
        FieldSpec._cache[q] = spec
        return spec

    @staticmethod
    def _find_modulus(p, e):
        """The least monic irreducible of degree e; x for the prime field."""
        for code in range(p ** e):
            poly = _decode_poly(code, e, p) + (1,)
            if _is_irreducible(poly, p):
                return poly
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    @cached_property
    def tables(self):
        """(add, sub, mul, inv): a + b, a - b and a * b on field codes as
        q x q tables indexed [a][b], and a^(-1) indexed [a] (0 at 0).

        Built on the first read, so a field whose order only gets checked
        against a cap never pays q^2 work or memory; past FIELD_ORDER_CAP
        the first read is refused.
        """
        if self.q > FIELD_ORDER_CAP:
            raise UsageError(f"field order {self.q} exceeds the field order cap {FIELD_ORDER_CAP}")
        p = self.p
        digits = [self.decode(a) for a in range(self.q)]
        code = {v: a for a, v in enumerate(digits)}.__getitem__

        def table(op):
            return tuple(tuple(code(op(u, v)) for v in digits) for u in digits)

        add = table(lambda u, v: tuple((x + y) % p for x, y in zip(u, v)))
        sub = table(lambda u, v: tuple((x - y) % p for x, y in zip(u, v)))
        mul = table(lambda u, v: _poly_mod_mul(u, v, self.modulus, p))
        inv = (0,) + tuple(row.index(1) for row in mul[1:])
        return add, sub, mul, inv

    @cached_property
    def traces(self):
        """tr(x) in GF(p) of every element x, indexed by its code (see
        trace_to_prime); built on first read."""
        return tuple(trace_to_prime(self, code) for code in range(self.q))

    def decode(self, code: int):
        return _decode_poly(code, self.e, self.p)

    # -- arithmetic on codes -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.tables[0][a][b]

    def sub(self, a: int, b: int) -> int:
        return self.tables[1][a][b]

    def mul(self, a: int, b: int) -> int:
        return self.tables[2][a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.tables[3][a]

    def power(self, a: int, n: int) -> int:
        """a^n for n >= 0, by repeated squaring."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        mul = self.tables[2]
        result = 1
        while n:
            if n & 1:
                result = mul[result][a]
            a = mul[a][a]
            n >>= 1
        return result

    def multiplicative_generator(self) -> int:
        """A generator of the cyclic group GF(q)^*."""
        mul = self.tables[2]
        order = self.q - 1
        for g in range(1, self.q):
            acc = g
            k = 1
            while acc != 1:
                acc = mul[acc][g]
                k += 1
            if k == order:
                return g
        raise RuntimeError("no multiplicative generator found")  # unreachable

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.q == other.q

    def __hash__(self):
        return hash(("FieldSpec", self.q))

    def __repr__(self):
        return f"FieldSpec(GF({self.q}))"


def trace_to_prime(spec: FieldSpec, code: int) -> int:
    """Tr(x) = x + x^p + ... + x^(p^(e-1)) of the element x with this code,
    returned as an element of GF(p)."""
    add = spec.tables[0]
    total = 0
    acc = code
    for _ in range(spec.e):
        total = add[total][acc]
        acc = spec.power(acc, spec.p)
    vec = spec.decode(total)
    if any(vec[1:]):
        raise RuntimeError("trace landed outside the prime subfield")  # unreachable
    return vec[0]


# ---------------------------------------------------------------------------
# Dense matrices over a FieldSpec (tuples of row tuples of codes)
# ---------------------------------------------------------------------------

def mat_zero(rows: int, cols: int):
    return tuple((0,) * cols for _ in range(rows))


def mat_identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def rref(rows, ncols, inv, mul, sub):
    """Reduced row echelon form over any exact field; the one elimination
    routine of the package.

    `inv`, `mul` and `sub` are the field's inverse, product and difference,
    and an entry is zero when it is falsy, so field codes, SqrtExt and
    CycloSqrt entries all go through here.  Only the first `ncols` columns
    are pivoted on; columns past them (an augmented block) are carried
    along and never inverted.  Each column's pivot is the first remaining
    row that is nonzero there, so the output depends on the input alone.

    Returns (rows, pivots): the nonzero input rows, reduced, as lists.  The
    first len(pivots) rows are the RREF; the others are zero in the first
    `ncols` columns.
    """
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    rank = 0
    for col in range(ncols):
        for piv in range(rank, len(rows)):
            if rows[piv][col]:
                break
        else:
            continue
        prow, rows[piv] = rows[piv], rows[rank]
        s = inv(prow[col])
        prow = rows[rank] = [mul(s, x) if x else x for x in prow]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                rows[r] = [sub(x, mul(f, y)) if y else x for x, y in zip(row, prow)]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def kernel_from_rref(rows, pivots, ncols, zero, one, sub):
    """Basis of the right kernel {x : A x = 0} from rref(A): one vector per
    non-pivot column, 1 there and minus that column's entries at the pivots."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for row, pc in zip(rows, pivots):
            vec[pc] = sub(zero, row[fc])
        basis.append(tuple(vec))
    return basis


def mat_rank(F: FieldSpec, A) -> int:
    return len(rref(A, len(A[0]), F.inv, F.mul, F.sub)[1]) if A else 0


def mat_is_invertible(F: FieldSpec, A) -> bool:
    n = len(A)
    return n == 0 or (len(A[0]) == n and mat_rank(F, A) == n)


def mat_kernel_basis(F: FieldSpec, A):
    """Basis (list of tuples) of the right kernel {x : A x = 0}."""
    if not A:
        return []
    cols = len(A[0])
    rows, pivots = rref(A, cols, F.inv, F.mul, F.sub)
    return kernel_from_rref(rows, pivots, cols, 0, 1, F.sub)


def mat_trace(F: FieldSpec, A) -> int:
    add = F.tables[0]
    t = 0
    for i, row in enumerate(A):
        t = add[t][row[i]]
    return t


def gl_order(q: int, n: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i), integer arithmetic alone."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def gl_generators(F: FieldSpec, n: int):
    """At most three generators of GL_n(F_q), q = p^e.

    For n >= 2 they are the transvection I + E_01 and the signed n-cycle C
    (e_j -> e_{j+1}, e_{n-1} -> (-1)^(n-1) e_0), which generate SL_n(Z)
    and so, reduced mod p, SL_n(F_p).  For q > 2 the torus element t =
    diag(g, 1, ..., 1), g a generator of F_q^*, follows.  t^k (I + E_01)
    t^-k = I + g^k E_01, and products of these give I + a E_01 for every
    a in F_q.  The signed permutation matrices of SL_n(F_p) conjugate
    those onto every position, so all the transvections, which generate
    SL_n(F_q), are reached, and t adds the determinant.  For n = 1 only t
    is left (none for q = 2); for n = 0 there is none.
    """
    gens = []
    if n >= 2:
        transvection = [list(row) for row in mat_identity(n)]
        transvection[0][1] = 1
        cycle = [[int(i == j + 1) for j in range(n)] for i in range(n)]
        cycle[0][n - 1] = 1 if n % 2 else F.sub(0, 1)
        gens += [transvection, cycle]
    if n and F.q > 2:
        torus = [list(row) for row in mat_identity(n)]
        torus[0][0] = F.multiplicative_generator()
        gens.append(torus)
    return [tuple(map(tuple, g)) for g in gens]

