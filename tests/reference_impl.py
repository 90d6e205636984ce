"""Reference implementations that the tests compare the engines against.

Each recomputes, by plain linear algebra or by the defining sum, what
hallalg reads off a closed formula, a table or a shorter scan, so none
of them is needed by the package itself.
"""

from fractions import Fraction
from itertools import combinations, product

from hallalg import gf
from hallalg.coeffring import QPolynomial, SqrtExt
from hallalg.partitions import a_lambda_factored, partitions_of
from hallalg.primitives import jordan_primitive_coeff
from hallalg.repengine import _hom_space_basis, _multisegment_of_ranks


def mat_mul(F, A, B):
    """The product A B of matrices over F, read from the field's tables."""
    if not A or not B:
        return tuple(() for _ in A) if A else ()
    add, _, mul, _ = F.tables
    cols = tuple(zip(*B))
    out = []
    for Ai in A:
        row = []
        for col in cols:
            s = 0
            for a, b in zip(Ai, col):
                if a:
                    s = add[s][mul[a][b]]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def subspaces(F, n: int, k: int):
    """All k-dimensional subspaces of F^n as RREF row bases (tuples of rows):
    the reference that the engines' cells (repengine._cell) are checked against."""
    if k == 0:
        yield ()
        return
    if k > n:
        return
    for pivots in combinations(range(n), k):
        free_positions = []
        for i in range(k):
            for c in range(pivots[i] + 1, n):
                if c not in pivots:
                    free_positions.append((i, c))
        for values in product(range(F.q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, c), val in zip(free_positions, values):
                rows[i][c] = val
            yield tuple(tuple(r) for r in rows)


def mat_inverse(F, A):
    """A^(-1) as the right half of rref([A | I]); ZeroDivisionError if A is singular."""
    n = len(A)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    rows, pivots = gf.rref(aug, n, F.inv, F.mul, F.sub)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def is_rational(x) -> bool:
    """Whether a SqrtExt a + b*sqrt(base) has b = 0."""
    return x.b == 0


def hom_dim_segments_sum(r: int, seg1, seg2) -> int:
    """dim Hom(S_i[l], S_j[m]) = #{1 <= t <= min(l,m) : t = j+m-i (mod r)},
    counted term by term."""
    (i, l), (j, m) = seg1, seg2
    target = (j + m - i) % r
    return sum(1 for t in range(1, min(l, m) + 1) if t % r == target)


def hom_dim_solve(engine, c1, c2) -> int:
    """dim Hom(c1, c2) on an engine by solving the intertwining system on
    the two classes' points."""
    m1, d1 = engine.rep_point(c1)
    m2, d2 = engine.rep_point(c2)
    return len(_hom_space_basis(engine.field, engine.quiver, m1, d1, m2, d2))


def socle_solve(engine, c) -> tuple:
    """The socle of a class as the joint kernel, at each vertex, of the
    arrows leaving it."""
    mats, dims = engine.rep_point(c)
    out = []
    for j in range(engine.quiver.nv):
        stacked = []
        for a_idx, (t, _) in enumerate(engine.quiver.arrows):
            if t == j:
                stacked.extend(mats[a_idx])
        out.append(dims[j] - gf.mat_rank(engine.field, tuple(stacked)) if stacked else dims[j])
    return tuple(out)


def class_of_point(engine, mats, dims):
    """The class of a nilpotent point on a NilpotentCyclicEngine, the
    inverse of its rep_point, read off the ranks of the arrow paths."""
    F = engine.field
    r = engine.r
    total = sum(dims)
    # the rank of the composite of l arrows starting at vertex j is the
    # dimension of its image, carried along as an RREF basis whose rows
    # are mapped through one arrow at a time
    rank = []
    for j in range(r):
        image, row = gf.mat_identity(dims[j]), []
        while image and len(row) <= total:
            row.append(len(image))
            X = mats[(j + len(row) - 1) % r]
            rows, pivots = gf.rref(mat_mul(F, image, tuple(zip(*X))), len(X),
                                   F.inv, F.mul, F.sub)
            image = rows[:len(pivots)]
        rank.append(tuple(row))
    return engine.class_from_key(_multisegment_of_ranks(r, rank))


def green_form_x_scan(x, y):
    """{x, y} = sum of x_M y_M / a_M over supp x, with y looked up."""
    total = SqrtExt.zero(x.engine.q0)
    for cls, cx in x.terms.items():
        cy = y.terms.get(cls)
        if cy is not None:
            total = total + cx * cy / Fraction(x.engine.aut_order(cls))
    return total


def tensor_green_form_t_scan(x, y, t):
    """{x ox y, t} as a sum over supp t, with x and y looked up."""
    engine = x.engine
    total = SqrtExt.zero(engine.q0)
    for (A, B), ct in t.terms.items():
        cx = x.terms.get(A)
        cy = y.terms.get(B)
        if cx is not None and cy is not None:
            denom = Fraction(engine.aut_order(A)) * Fraction(engine.aut_order(B))
            total = total + cx * cy * ct / denom
    return total


def _xi_common_denominator(n: int):
    """The common denominator D of 1/a_lambda over lambda |- n, from the
    factored a_lambda, and each lambda's cofactor D/a_lambda, as QPolynomials."""
    max_e = 0
    max_c = {}
    data = []
    for lam in partitions_of(n):
        e, factors = a_lambda_factored(lam)
        max_e = max(max_e, e)
        for j, c in factors.items():
            max_c[j] = max(max_c.get(j, 0), c)
        data.append((lam, e, factors))
    D = QPolynomial.q(1) ** max_e if max_e else QPolynomial.one()
    for j, c in max_c.items():
        D = D * QPolynomial({j: 1, 0: -1}) ** c
    cofactors = []
    for lam, e, factors in data:
        cof = QPolynomial.q(1) ** (max_e - e) if max_e > e else QPolynomial.one()
        for j, c in max_c.items():
            extra = c - factors.get(j, 0)
            if extra:
                cof = cof * QPolynomial({j: 1, 0: -1}) ** extra
        cofactors.append((lam, cof))
    return D, cofactors


def xi_identity_sides(n: int):
    """Both sides of N (q^n - 1) = D, the xi identity over the common
    denominator, as QPolynomials built by polynomial products: the symbolic
    counterpart of hallalg.primitives.verify_xi_identity."""
    D, cofactors = _xi_common_denominator(n)
    N = QPolynomial.zero()
    for lam, cof in cofactors:
        N = N + jordan_primitive_coeff(lam) * cof
    return N * QPolynomial({n: 1, 0: -1}), D


def aut_sum_identity_sides(n: int):
    """Both sides of N1 (q^n - 1) = n D and of N2 prod_{i<=n} (q^i - 1) =
    D q^(n(n-1)/2), as QPolynomials: the symbolic counterpart of
    hallalg.primitives.verify_aut_sum_identities."""
    D, cofactors = _xi_common_denominator(n)
    N1 = QPolynomial.zero()
    N2 = QPolynomial.zero()
    for lam, cof in cofactors:
        coeff = jordan_primitive_coeff(lam)
        N1 = N1 + coeff * coeff * cof
        N2 = N2 + cof
    denom = QPolynomial.one()
    for i in range(1, n + 1):
        denom = denom * QPolynomial({i: 1, 0: -1})
    return ((N1 * QPolynomial({n: 1, 0: -1}), D * QPolynomial.const(n)),
            (N2 * denom, D * QPolynomial.q(1) ** (n * (n - 1) // 2)))
