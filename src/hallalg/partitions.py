"""Partition combinatorics and the closed-form counting functions.

Covers partition enumeration, the automorphism-group order a_lambda(q)
of the nilpotent module attached to a partition, and the count of monic
irreducible polynomials of a given degree over GF(q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeffring import QPolynomial
from .report import UsageError

__all__ = [
    "Partition",
    "partitions_of",
    "a_lambda",
    "a_lambda_factored",
    "phi_irreducible_count",
    "partition_str",
    "parse_partition",
]

_PARTITION_CAP = 30


class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        self.parts = parts

    def size(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def n_weight(self) -> int:
        """n(lambda) = sum_i (i-1) * lambda_i."""
        return sum(i * p for i, p in enumerate(self.parts))

    def exponential(self):
        """Multiplicity map part-size -> count."""
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Partition{self.parts}"


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int):
    """All partitions of n in decreasing lexicographic order."""
    if not 0 <= n <= _PARTITION_CAP:
        raise UsageError(f"partition size {n} is outside 0..{_PARTITION_CAP}, the partition cap")
    return [Partition(t) for t in _partition_tuples(n, n if n else 1)]


def a_lambda_factored(lam: Partition):
    """a_lambda(q) as (E, {j: c_j}) meaning q^E * prod_j (q^j - 1)^c_j.

    Derived from |Aut(I_lambda)| = q^(|lambda| + 2 n(lambda))
    * prod_i prod_{j=1}^{t_i} (1 - q^-j) by clearing the negative powers.
    """
    exp = lam.exponential()
    e = lam.size() + 2 * lam.n_weight()
    factors = {}
    for t in exp.values():
        e -= t * (t + 1) // 2
        for j in range(1, t + 1):
            factors[j] = factors.get(j, 0) + 1
    if e < 0:
        raise RuntimeError("negative q-power in a_lambda")  # unreachable
    return e, factors


def a_lambda(lam: Partition, q0=None):
    """|Aut(I_lambda)| as a polynomial in q, or its integer value at q0.

    The empty partition gives 1 (the zero module has a trivial
    automorphism group).
    """
    e, factors = a_lambda_factored(lam)
    if q0 is not None:
        out = q0 ** e
        for j, c in factors.items():
            out *= (q0 ** j - 1) ** c
        return out
    poly = QPolynomial.q(1) ** e if e else QPolynomial.one()
    for j, c in factors.items():
        factor = QPolynomial({j: 1, 0: -1})
        for _ in range(c):
            poly = poly * factor
    return poly


def _moebius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def phi_irreducible_count(s: int, q0=None):
    """Number of monic irreducible polynomials of degree s over GF(q).

    Returned as the exact polynomial (1/s) sum_{d | s} mu(d) q^(s/d),
    or its integer value at q0.
    """
    if s < 1:
        raise ValueError("degree must be positive")
    terms = {}
    for d in range(1, s + 1):
        if s % d == 0:
            mu = _moebius(d)
            if mu:
                terms[s // d] = terms.get(s // d, 0) + Fraction(mu, s)
    poly = QPolynomial(terms)
    if q0 is not None:
        value = poly.evaluate(q0)
        if value.denominator != 1:
            raise RuntimeError("irreducible count is not an integer")  # unreachable
        return int(value)
    return poly


def partition_str(lam: Partition) -> str:
    return "(" + ",".join(str(p) for p in lam.parts) + ")"


def parse_partition(text: str) -> Partition:
    """Parse '(3,1,1)' or the exponential form '(1^2,3^1)'."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    text = text.strip()
    if not text:
        return Partition()
    parts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "^" in chunk:
            base, mult = chunk.split("^")
            parts.extend([int(base)] * int(mult))
        else:
            parts.append(int(chunk))
    parts.sort(reverse=True)
    return Partition(parts)
