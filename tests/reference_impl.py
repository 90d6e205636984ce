"""Reference implementations that the tests compare the engines against.

Each recomputes, by plain linear algebra or by the defining sum, what
hallalg reads off a closed formula, a table or a shorter scan, so none
of them is needed by the package itself.
"""

from fractions import Fraction

from hallalg import gf
from hallalg.coeffring import SqrtExt
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
    """dim Hom(c1, c2) on a nilpotent engine by solving the intertwining
    system on the two classes' points."""
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
