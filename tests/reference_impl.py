"""Reference implementations that the tests compare the engines against.

Each recomputes by plain linear algebra what hallalg reads off a closed
formula or a table, so none of them is needed by the package itself.
"""

from hallalg import gf
from hallalg.repengine import _hom_space_basis


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


def hom_dim_solve(engine, c1, c2) -> int:
    """dim Hom(c1, c2) on a nilpotent engine by solving the intertwining
    system on the two classes' points."""
    m1, d1 = engine.rep_point(c1)
    m2, d2 = engine.rep_point(c2)
    basis, _ = _hom_space_basis(engine.field, engine.quiver, m1, d1, m2, d2)
    return len(basis)


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
