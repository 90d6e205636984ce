"""The twisted Hall bialgebra over a representation engine.

Multiplication counts extensions with a v-power twist by the Euler form,
comultiplication is its adjoint for the Green form { [M], [N] } =
delta_{MN} / |Aut M|, and primitivity means Delta(x) = x ox 1 + 1 ox x.
The primitive-subspace solver runs exact Gaussian elimination over
Q(sqrt(q0)).  Every structure constant and Green form value is a rational
times v^k with k fixed by the grades, so a sum of terms of unequal parity
of k, which a wrong twist makes, raises InternalCheckError.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import cache
from itertools import product

from . import gf, repengine
from .coeffring import CycloSqrt, SqrtExt, v_power
from .repengine import IsoClass, add_dim, euler_form, kronecker_regular_classes
from .report import timed_report

__all__ = [
    "HallElement",
    "TensorElement",
    "multiply",
    "comultiply",
    "green_form",
    "tensor_green_form",
    "one_d",
    "one_reg",
    "is_primitive",
    "primitive_subspace",
    "adjointness_check",
    "associativity_check",
    "coassociativity_check",
    "in_span",
    "rank_of_elements",
]


def _coerce_coeff(engine, c):
    if isinstance(c, (int, Fraction)):
        return SqrtExt(engine.q0, c)
    if isinstance(c, (SqrtExt, CycloSqrt)):
        if c.base != engine.q0:
            raise TypeError("coefficient base does not match the engine's field")
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class _Combination:
    """Finite formal linear combination over one engine: a dict from keys
    to nonzero coefficients in the engine's scalars."""

    __slots__ = ("engine", "terms")

    def __init__(self, engine, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = _coerce_coeff(engine, coeff)
                if not coeff.is_zero():
                    clean[key] = coeff
        self.engine = engine
        self.terms = clean

    def _with_terms(self, terms):
        """An element of the same type and engine with already clean terms."""
        res = object.__new__(type(self))
        res.engine = self.engine
        res.terms = terms
        return res

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(key, SqrtExt.zero(self.engine.q0))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.engine.engine_id == other.engine.engine_id and self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _acc(out, key, coeff)
        return self._with_terms(out)

    def __neg__(self):
        return self._with_terms({k: -x for k, x in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)


class HallElement(_Combination):
    """Finite formal linear combination of isoclasses of one engine."""

    __slots__ = ()

    def __init__(self, engine, terms=None):
        super().__init__(engine, terms)
        if any(cls.engine_id != engine.engine_id for cls in self.terms):
            raise ValueError("isoclass belongs to a different engine")

    @staticmethod
    def zero(engine):
        return HallElement(engine)

    @staticmethod
    def basis(engine, cls: IsoClass, coeff=1):
        return HallElement(engine, {cls: coeff})

    @staticmethod
    def unit(engine):
        return HallElement.basis(engine, engine.zero_class())

    def grades(self):
        return sorted({c.grade for c in self.terms})

    def grade(self):
        gs = self.grades()
        if len(gs) != 1:
            raise ValueError("element is not homogeneous")
        return gs[0]

    def scale(self, c):
        c = _coerce_coeff(self.engine, c) if not isinstance(c, (int, Fraction)) else c
        out = {}
        for cls, coeff in self.terms.items():
            s = coeff * c
            if not s.is_zero():
                out[cls] = s
        return self._with_terms(out)

    def __mul__(self, other):
        if isinstance(other, HallElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def restrict(self, predicate) -> "HallElement":
        """Keep only the terms whose class satisfies the predicate."""
        return HallElement(self.engine,
                           {c: x for c, x in self.terms.items() if predicate(c)})

    def support(self):
        return sorted(self.terms, key=lambda c: c.sort_key())

    def to_json_dict(self):
        gs = self.grades()
        out = {"grade": list(gs[0]) if len(gs) == 1 else [list(g) for g in gs],
               "terms": [{"class": c.render(), "coeff": x.render()}
                         for c, x in sorted(self.terms.items(),
                                            key=lambda kv: kv[0].sort_key())]}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for c in self.support():
            bits.append(f"({self.terms[c].render()})*[{c.render()}]")
        return " + ".join(bits)

    def __repr__(self):
        return f"HallElement({self.render()})"


class TensorElement(_Combination):
    """Sparse element of H ox H: map (class, class) -> coefficient."""

    __slots__ = ()

    def __repr__(self):
        bits = [f"({x.render()})*[{a.render()}]ox[{b.render()}]"
                for (a, b), x in sorted(self.terms.items(),
                                        key=lambda kv: (kv[0][0].sort_key(),
                                                        kv[0][1].sort_key()))]
        return "TensorElement(" + (" + ".join(bits) if bits else "0") + ")"


# ---------------------------------------------------------------------------
# Structure maps
# ---------------------------------------------------------------------------

def _basis_product(engine, A: IsoClass, B: IsoClass) -> dict:
    """L -> v^<dim A, dim B> F^L_{A,B} for basis classes A and B.

    Memoized on the engine per POINT_CAP and read from engine.sub_table
    only, at the pair of A's and B's table keys.
    """
    key = (A, B, repengine.POINT_CAP)
    table = engine._products.get(key)
    if table is None:
        twist = v_power(euler_form(engine.quiver, A.grade, B.grade), engine.q0)
        pair = (engine._table_key(A), engine._table_key(B))
        table = {}
        for L in engine.classes(add_dim(A.grade, B.grade)):
            count = engine.sub_table(L).get(pair)
            if count:
                table[L] = twist * count
        engine._products[key] = table
    return table


def _basis_coproduct(engine, M: IsoClass) -> dict:
    """(X, Y) -> v^<dim X, dim Y> F^M_{X,Y} a_X a_Y / a_M for a basis class M.

    Memoized on the engine per POINT_CAP and read from engine.sub_table
    and aut_order only, never from _basis_product, so adjointness stays
    a check.
    """
    key = (M, repengine.POINT_CAP)
    table = engine._coproducts.get(key)
    if table is None:
        quiver, q0 = engine.quiver, engine.q0
        aM = engine.aut_order(M)
        table = {}
        for (quot_key, sub_key), count in engine.sub_table(M).items():
            X = engine.class_from_key(quot_key)
            Y = engine.class_from_key(sub_key)
            twist = v_power(euler_form(quiver, X.grade, Y.grade), q0)
            table[(X, Y)] = twist * Fraction(
                count * engine.aut_order(X) * engine.aut_order(Y), aM)
        engine._coproducts[key] = table
    return table


def multiply(a: HallElement, b: HallElement) -> HallElement:
    """[M] . [N] = sum_L v^<dim M, dim N> F^L_{M,N} [L], extended bilinearly."""
    if a.engine.engine_id != b.engine.engine_id:
        raise ValueError("cannot multiply elements of different engines")
    engine = a.engine
    out = {}
    for Ma, ca in a.terms.items():
        for Mb, cb in b.terms.items():
            c = ca * cb
            for L, coeff in _basis_product(engine, Ma, Mb).items():
                _acc(out, L, c * coeff)
    res = HallElement.__new__(HallElement)
    res.engine = engine
    res.terms = out
    return res


def comultiply(x: HallElement, predicate=None) -> TensorElement:
    """Delta([M]) = sum v^<dim X, dim Y> (a_X a_Y / a_M) F^M_{X,Y} [X] ox [Y].

    With a predicate, the sum is restricted to pairs (X, Y) of classes
    satisfying it (the zero class always qualifies); this is the
    comultiplication of the subcategory spanned by those classes, which
    is a coalgebra whenever the predicate cuts out an extension-closed
    subcategory.
    """
    engine = x.engine
    out = {}
    for M, c in x.terms.items():
        for pair, coeff in _basis_coproduct(engine, M).items():
            if predicate is not None:
                X, Y = pair
                if sum(X.grade) and not predicate(X):
                    continue
                if sum(Y.grade) and not predicate(Y):
                    continue
            _acc(out, pair, c * coeff)
    res = TensorElement.__new__(TensorElement)
    res.engine = engine
    res.terms = out
    return res


def green_form(x: HallElement, y: HallElement):
    """{x, y} = sum over common support of x_M y_M / a_M.

    The smaller support is scanned and the other looked up.
    """
    if x.engine.engine_id != y.engine.engine_id:
        raise ValueError("cannot pair elements of different engines")
    engine = x.engine
    small, large = x.terms, y.terms
    if len(large) < len(small):
        small, large = large, small
    total = SqrtExt.zero(engine.q0)
    for cls, c in small.items():
        other = large.get(cls)
        if other is not None:
            total = total + c * other / Fraction(engine.aut_order(cls))
    return total


def tensor_green_form(x: HallElement, y: HallElement, t: TensorElement):
    """{x ox y, t} with {a ox b, c ox d} = {a, c}{b, d}.

    supp x times supp y is scanned and t looked up.
    """
    if not (x.engine.engine_id == y.engine.engine_id == t.engine.engine_id):
        raise ValueError("cannot pair elements of different engines")
    engine = x.engine
    t_terms = t.terms
    total = SqrtExt.zero(engine.q0)
    for A, cx in x.terms.items():
        for B, cy in y.terms.items():
            ct = t_terms.get((A, B))
            if ct is not None:
                denom = Fraction(engine.aut_order(A)) * Fraction(engine.aut_order(B))
                total = total + cx * cy * ct / denom
    return total


def one_d(engine, d) -> HallElement:
    """Sum of all classes of dimension vector d with coefficient 1."""
    return HallElement(engine, {c: 1 for c in engine.classes(d)})


def one_reg(engine, n: int) -> HallElement:
    """Sum of the regular Kronecker classes at dimension vector (n, n)."""
    return HallElement(engine, {c: 1 for c in kronecker_regular_classes(engine, n)})


def is_primitive(x: HallElement, predicate=None) -> bool:
    """Exact test of Delta(x) = x ox 1 + 1 ox x for homogeneous nonzero x."""
    if x.is_zero():
        raise ValueError("primitivity is tested on nonzero homogeneous elements")
    x.grade()  # raises when inhomogeneous
    engine = x.engine
    zero_cls = engine.zero_class()
    delta = comultiply(x, predicate=predicate)
    expected = {}
    for cls, c in x.terms.items():
        # at grade 0 the two terms share the key (1, 1) and add up
        _acc(expected, (cls, zero_cls), c)
        _acc(expected, (zero_cls, cls), c)
    return delta == TensorElement(engine, expected)


# ---------------------------------------------------------------------------
# Exact linear algebra over Q(sqrt(q0)) and the primitive-subspace solver
# ---------------------------------------------------------------------------

def sqrtext_rref(rows, ncols):
    """gf.rref over Q(sqrt(q0)); entries past `ncols` may also be CycloSqrt."""
    return gf.rref(rows, ncols, SqrtExt.inverse, operator.mul, operator.sub)


def primitive_subspace(engine, d, predicate=None) -> list:
    """Echelon-normalized basis of the primitive elements at grade d.

    The kernel of x -> Delta(x) - x ox 1 - 1 ox x is computed by exact
    Gaussian elimination over Q(sqrt(q0)); with a predicate both the
    ambient span and the comultiplication are restricted to classes
    satisfying it.  Grade 0 has none: Delta(c 1) = c 1 ox 1 equals
    2c 1 ox 1 only for c = 0.
    """
    d = tuple(d)
    if not any(d):
        return []
    classes = engine.classes(d)
    if predicate is not None:
        classes = [c for c in classes if predicate(c)]
    if not classes:
        return []
    q0 = engine.q0
    row_map = {}
    for j, M in enumerate(classes):
        for (X, Y), coeff in _basis_coproduct(engine, M).items():
            if not sum(X.grade) or not sum(Y.grade):
                continue
            if predicate is not None and not (predicate(X) and predicate(Y)):
                continue
            key = (X.sort_key(), Y.sort_key())
            row = row_map.setdefault(key, [SqrtExt.zero(q0)] * len(classes))
            row[j] = row[j] + coeff
    rows = [row_map[k] for k in sorted(row_map)]
    n = len(classes)
    rref, pivots = sqrtext_rref(rows, n)
    kernel = gf.kernel_from_rref(rref, pivots, n, SqrtExt.zero(q0), SqrtExt.one(q0),
                                 operator.sub)
    if kernel:
        kernel, _ = sqrtext_rref(kernel, n)
    out = []
    for vec in kernel:
        out.append(HallElement(engine, {c: x for c, x in zip(classes, vec)
                                        if not x.is_zero()}))
    return out


def _coefficient_columns(elements, zero):
    """Matrix with column j holding the coefficients of elements[j], one row
    per class of their joint support."""
    support = sorted({c for e in elements for c in e.terms}, key=lambda c: c.sort_key())
    return [[e.terms.get(c, zero) for e in elements] for c in support]


def in_span(basis, x: HallElement) -> bool:
    """Exact membership of x in the span of the given Hall elements.

    x is the augmented last column of the system sum_j c_j basis[j] = x, so
    it is never pivoted on and may have CycloSqrt coefficients over a
    SqrtExt basis; x is in the span iff that column vanishes in every row
    the elimination leaves without a pivot.
    """
    zero = SqrtExt.zero(x.engine.q0)
    rows, pivots = sqrtext_rref(_coefficient_columns([*basis, x], zero), len(basis))
    return not any(row[-1] for row in rows[len(pivots):])


def rank_of_elements(elements) -> int:
    """Rank of a family of Hall elements over Q(sqrt(q0))."""
    if not elements:
        return 0
    zero = SqrtExt.zero(elements[0].engine.q0)
    return len(sqrtext_rref(_coefficient_columns(elements, zero), len(elements))[1])


def _classes_up_to(engine, bound):
    """Every class of total dimension at most bound, by total dimension."""
    grades = sorted((d for d in product(range(bound + 1), repeat=engine.quiver.nv)
                     if sum(d) <= bound), key=sum)
    return [c for d in grades for c in engine.classes(d)]


def _coproduct_per_class(engine):
    """Delta([M]) for a class M, computed on the first request for M.

    Each structure check's run() makes its own, so nothing outlives it.
    """
    return cache(lambda M: comultiply(HallElement.basis(engine, M)))


def adjointness_check(engine, total_dim_bound: int):
    """Verify {xy, z} = {x ox y, Delta z} on all basis triples in range.

    This checks the twists and the automorphism factors, not the Hall
    numbers: both sides read the same F^L_{M,N}, so a wrong submodule
    table entry passes.  Associativity and coassociativity catch that.
    """

    def run():
        checked = 0
        classes = _classes_up_to(engine, total_dim_bound)
        basis = {M: HallElement.basis(engine, M) for M in classes}
        delta = _coproduct_per_class(engine)
        for M in classes:
            xM = basis[M]
            for N in classes:
                if sum(M.grade) + sum(N.grade) > total_dim_bound:
                    break
                xN = basis[N]
                prod = multiply(xM, xN)
                for L in engine.classes(add_dim(M.grade, N.grade)):
                    lhs = green_form(prod, basis[L])
                    rhs = tensor_green_form(xM, xN, delta(L))
                    if lhs != rhs:
                        return (False, lhs.render(), rhs.render(),
                                f"triple {M.render()},{N.render()},{L.render()}")
                    checked += 1
        return True, f"{checked} triples", f"{checked} triples", ""

    return timed_report("adjointness", {"engine": engine.engine_id,
                                        "bound": total_dim_bound}, run)


def associativity_check(engine, total_dim_bound: int):
    """(a.b).c = a.(b.c) on all basis triples with total dimension in range."""

    def run():
        checked = 0
        classes = _classes_up_to(engine, total_dim_bound)
        for A in classes:
            xa = HallElement.basis(engine, A)
            for B in classes:
                t2 = sum(A.grade) + sum(B.grade)
                if t2 > total_dim_bound:
                    break
                xb = HallElement.basis(engine, B)
                ab = multiply(xa, xb)
                for C in classes:
                    if t2 + sum(C.grade) > total_dim_bound:
                        break
                    xc = HallElement.basis(engine, C)
                    lhs = multiply(ab, xc)
                    rhs = multiply(xa, multiply(xb, xc))
                    if lhs != rhs:
                        return (False, lhs.render(), rhs.render(),
                                f"{A.render()},{B.render()},{C.render()}")
                    checked += 1
        return True, f"{checked} triples", f"{checked} triples", ""

    return timed_report("associativity",
                        {"engine": engine.engine_id, "bound": total_dim_bound}, run)


def coassociativity_check(engine, total_dim_bound: int):
    """(Delta ox id)Delta = (id ox Delta)Delta on basis classes in range."""

    def run():
        checked = 0
        delta = _coproduct_per_class(engine)
        for L in _classes_up_to(engine, total_dim_bound):
            left = {}
            right = {}
            for (X, Y), c in delta(L).terms.items():
                for (A, B), c2 in delta(X).terms.items():
                    _acc(left, (A, B, Y), c * c2)
                for (A, B), c2 in delta(Y).terms.items():
                    _acc(right, (X, A, B), c * c2)
            if left != right:
                return False, "(Delta ox id)Delta", "(id ox Delta)Delta", L.render()
            checked += 1
        return True, f"{checked} classes", f"{checked} classes", ""

    return timed_report("coassociativity",
                        {"engine": engine.engine_id, "bound": total_dim_bound}, run)


def _acc(store, key, value):
    cur = store.get(key)
    s = value if cur is None else cur + value
    if s.is_zero():
        store.pop(key, None)
    else:
        store[key] = s
