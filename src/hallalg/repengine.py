"""Module-category engines for quiver representations over finite fields.

Two engines feed the Hall algebra layer with isoclass lists, automorphism
orders, Hall numbers, Hom dimensions and socles:

  * NilpotentCyclicEngine: nilpotent representations of the cyclic quiver
    with r vertices, classified by multisegments.  Isomorphism testing is
    a rank computation, automorphism orders come from a closed formula,
    and Hall numbers are exact submodule counts by the walk over T(U),
    which names classes by path ranks.
  * BruteForceEngine: any small quiver (full cyclic, Kronecker, A2).
    The representation variety is partitioned into group orbits by
    breadth-first closure under generators, so isomorphism is orbit
    identity and automorphism orders follow from orbit-stabilizer.

Dimension vectors are plain tuples.  All computations are exact.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property, partial, reduce
from itertools import accumulate, chain, combinations, product
from operator import add as plus, xor

from . import gf
from .coeffring import QPolynomial, interpolate_q
from .gf import FieldSpec
from .partitions import Partition
from .report import InternalCheckError, UsageError

__all__ = [
    "Quiver",
    "jordan_quiver",
    "cyclic_quiver",
    "kronecker_quiver",
    "a2_quiver",
    "euler_form",
    "add_dim",
    "IsoClass",
    "NilpotentCyclicEngine",
    "BruteForceEngine",
    "get_nilpotent_engine",
    "get_brute_engine",
    "hall_polynomial",
    "multisegment_str",
    "parse_multisegment",
    "jordan_block",
    "jordan_matrix",
    "kronecker_points",
    "kronecker_tube_class",
    "is_regular_kronecker",
    "kronecker_regular_classes",
]

POINT_CAP = 10 ** 6
# The most digit values one chunk table of a grade's generators is indexed
# by.  The tables stay on the engine: at 2^16 the Jordan quiver's two
# tables at n = 4, q = 3 held 5 MB, and at 2^12 its three hold 0.36 MB.
CHUNK_ENTRIES = 1 << 12
# A grade of at most this many points gets one table: no combining step.
SINGLE_TABLE_POINTS = 256


class Quiver:
    """A finite quiver: vertex count plus a tuple of (tail, head) arrows."""

    __slots__ = ("nv", "arrows", "name")

    def __init__(self, nv: int, arrows, name: str = "Q"):
        arrows = tuple((int(t), int(h)) for t, h in arrows)
        for t, h in arrows:
            if not (0 <= t < nv and 0 <= h < nv):
                raise ValueError("arrow endpoint out of range")
        self.nv = nv
        self.arrows = arrows
        self.name = name

    def reverse_arrows(self, subset) -> "Quiver":
        """The quiver with the arrows at the given indices reversed."""
        subset = set(subset)
        arrows = tuple((h, t) if i in subset else (t, h)
                       for i, (t, h) in enumerate(self.arrows))
        return Quiver(self.nv, arrows, name=self.name + "'")

    def is_cycle(self) -> bool:
        if self.nv == 1:
            return self.arrows == ((0, 0),)
        expected = tuple((i, (i + 1) % self.nv) for i in range(self.nv))
        return self.arrows == expected

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.nv == other.nv
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.nv, self.arrows))

    def __repr__(self):
        return f"Quiver({self.name}, nv={self.nv}, arrows={self.arrows})"


def jordan_quiver() -> Quiver:
    return Quiver(1, [(0, 0)], name="C1")


def cyclic_quiver(r: int) -> Quiver:
    if r < 1:
        raise ValueError("cyclic quiver needs at least one vertex")
    if r == 1:
        return jordan_quiver()
    return Quiver(r, [(i, (i + 1) % r) for i in range(r)], name=f"C{r}")


def kronecker_quiver() -> Quiver:
    return Quiver(2, [(0, 1), (0, 1)], name="K2")


def a2_quiver() -> Quiver:
    return Quiver(2, [(0, 1)], name="A2")


def euler_form(quiver: Quiver, x, y) -> int:
    """<x, y> = sum_i x_i y_i - sum_arrows x_tail y_head."""
    if len(x) != quiver.nv or len(y) != quiver.nv:
        raise ValueError("dimension vector length does not match the quiver")
    total = sum(a * b for a, b in zip(x, y))
    for t, h in quiver.arrows:
        total -= x[t] * y[h]
    return total


def add_dim(x, y):
    return tuple(a + b for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# Multisegments (nilpotent cyclic classes)
# ---------------------------------------------------------------------------
#
# A multisegment is stored canonically as a sorted tuple of entries
# ((vertex, length), multiplicity) with 0-based vertices.  The segment
# (i, l) is the indecomposable of length l whose top sits at vertex i
# and whose socle sits at vertex i + l - 1 (mod r).

def ms_canonical(entries) -> tuple:
    merged = {}
    for (i, l), m in entries:
        if m:
            merged[(i, l)] = merged.get((i, l), 0) + m
    return tuple(sorted(((k, m) for k, m in merged.items() if m)))


def ms_dim_vector(ms, r: int) -> tuple:
    d = [0] * r
    for (i, l), m in ms:
        for t in range(l):
            d[(i + t) % r] += m
    return tuple(d)


def multisegment_str(ms) -> str:
    """Text form like 'S1[2]+S2[1]' or '2*S1[3]' (1-based vertices)."""
    if not ms:
        return "0"
    parts = []
    for (i, l), m in ms:
        seg = f"S{i + 1}[{l}]"
        parts.append(seg if m == 1 else f"{m}*{seg}")
    return "+".join(parts)


def parse_multisegment(text: str, r: int) -> tuple:
    text = text.strip()
    if text == "0" or not text:
        return ()
    entries = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        mult = 1
        if "*" in chunk:
            head, chunk = chunk.split("*")
            mult = int(head)
            if mult < 1:
                raise ValueError(f"multiplicity {mult} of {chunk!r} must be positive")
        if not (chunk.startswith("S") and "[" in chunk and chunk.endswith("]")):
            raise ValueError(f"bad segment syntax {chunk!r}")
        vertex, length = chunk[1:-1].split("[")
        i = int(vertex) - 1
        l = int(length)
        if not (0 <= i < r and l >= 1):
            raise ValueError(f"segment {chunk!r} out of range for C{r}")
        entries.append(((i, l), mult))
    return ms_canonical(entries)


def hom_dim_segments(r: int, seg1, seg2) -> int:
    """dim Hom(S_i[l], S_j[m]) = #{1 <= t <= min(l,m) : t = j+m-i (mod r)}.

    The least such t is c = (j + m - i) mod r, read as r when it is 0, and
    the others follow every r steps.
    """
    (i, l), (j, m) = seg1, seg2
    c = (j + m - i) % r or r
    return (min(l, m) - c) // r + 1


def _hom_dim_multisegments(r: int, ms1, ms2) -> int:
    return sum(m1 * m2 * hom_dim_segments(r, seg1, seg2)
               for seg1, m1 in ms1 for seg2, m2 in ms2)


def _multisegment_of_ranks(r: int, rank) -> tuple:
    """The multisegment of a nilpotent representation of C_r from its
    path ranks: rank[j] lists the ranks of the paths of 0, 1, 2, ...
    arrows from vertex j while they are nonzero.  The segments with top
    at i and length at least m number rank[i][m-1] - rank[i-1][m]."""
    def at(j, l):
        row = rank[j % r]
        return row[l] if l < len(row) else 0

    entries = []
    for i in range(r):
        longest = len(rank[i])
        at_least = [at(i, m - 1) - at(i - 1, m) for m in range(1, longest + 2)]
        entries += [((i, m), at_least[m - 1] - at_least[m]) for m in range(1, longest + 1)]
    ms = ms_canonical(entries)
    if (any(m < 0 for _, m in ms)
            or ms_dim_vector(ms, r) != tuple(row[0] if row else 0 for row in rank)):
        raise InternalCheckError("point identification failed (non-nilpotent input?)")
    return ms


def _ranks_of_multisegment(r: int, ms) -> tuple:
    """The rank table of a multisegment, the inverse of
    _multisegment_of_ranks.  The segment (i, l) has a basis vector at
    vertex j for each height t = (j - i) mod r + 1 + k r <= l, and a
    path of p arrows is nonzero on it iff t + p <= l."""
    def rank(j, p):
        return sum(m * max(0, (l - p - (j - i) % r - 1) // r + 1) for (i, l), m in ms)

    table = []
    for j in range(r):
        row = []
        while x := rank(j, len(row)):
            row.append(x)
        table.append(tuple(row))
    return tuple(table)


# ---------------------------------------------------------------------------
# Isomorphism classes
# ---------------------------------------------------------------------------

class IsoClass:
    """Engine-scoped canonical key for an isomorphism class.

    Nilpotent cyclic engines key classes by multisegment, which is also
    their table key (_table_key); brute-force engines key them by orbit
    index, and their table key is (grade, orbit index).  A class is never
    mutated, so its hash is taken once.
    """

    __slots__ = ("engine_id", "kind", "grade", "key", "_hash")

    def __init__(self, engine_id: str, kind: str, grade: tuple, key):
        self.engine_id = engine_id
        self.kind = kind
        self.grade = grade
        self.key = key
        self._hash = hash((engine_id, kind, grade, key))

    def __eq__(self, other):
        return (isinstance(other, IsoClass) and self.engine_id == other.engine_id
                and self.kind == other.kind and self.grade == other.grade
                and self.key == other.key)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.grade, self.key)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def render(self) -> str:
        if self.kind == "ms":
            return multisegment_str(self.key)
        d = "(" + ",".join(str(x) for x in self.grade) + ")"
        return f"{self.engine_id}|d:{d}|#{self.key}"

    def __repr__(self):
        return f"IsoClass({self.render()})"


# ---------------------------------------------------------------------------
# Shared submodule enumeration
# ---------------------------------------------------------------------------
#
# Vectors of F^n are numbered by base-q codes, the first coordinate the
# most significant digit, so code c is the c-th tuple of
# product(range(q), repeat=n).  A subspace is the tuple of its RREF
# basis rows' codes (_cell); the product walk holds it as the entry
# (basis, codes, pivots, nonpivots) and hands a tuple of entries, one
# per vertex, around as a choice.  A table is a multiset of counts: the
# order of its keys is unspecified.

@cache
def _vector_cache(F: FieldSpec, n: int):
    """(vectors, leads) of F^n, built once per (q, n).

    vectors[c] is the vector with code c and leads[c] the column of its
    first nonzero entry (n for the zero vector).
    """
    vectors = list(product(range(F.q), repeat=n))
    return vectors, [next((j for j, x in enumerate(v) if x), n) for v in vectors]


def _subspace_count(q: int, n: int) -> int:
    """The number of subspaces of F_q^n, the Galois number G_n, from
    G_0 = 1, G_1 = 2 and G_{k+1} = 2 G_k + (q^k - 1) G_{k-1}."""
    before, count = 0, 1
    for k in range(n):
        before, count = count, 2 * count + (q ** k - 1) * before
    return count


def _check_vertex_cap(F: FieldSpec, dims):
    if any(F.q ** n > POINT_CAP for n in dims):
        raise UsageError(f"vector space F_{F.q}^{max(dims)} exceeds the point cap")


def _check_subspace_cap(q: int, n: int):
    if _subspace_count(q, n) > POINT_CAP:
        raise UsageError(f"the subspaces of F_{q}^{n} exceed the point cap")


@cache
def _pivot_cells(q: int, n: int):
    """{pivots: number of subspaces of F_q^n with those RREF pivots}.

    An RREF basis with pivots p_0 < ... < p_{k-1} is free exactly in the
    non-pivot columns past each row's pivot, (n - 1 - p_r) - (k - 1 - r)
    entries in row r, so its pivot set is a cell of q^(free entries)
    subspaces, which _cell lists.  Past POINT_CAP subspaces the count is
    refused, as a cell is, so a table's cap does not depend on which it reads.
    """
    _check_subspace_cap(q, n)
    return {pivots: q ** sum(n - k + r - p for r, p in enumerate(pivots))
            for k in range(n + 1) for pivots in combinations(range(n), k)}


@cache
def _cell(q: int, n: int, pivots: tuple):
    """The subspaces of F_q^n with these RREF pivots, each the tuple of
    its basis rows' codes: a pivot p adds q^(n-1-p) to its row's code and
    a free entry x in column c adds x q^(n-1-c).  Free entries run row by
    row, left to right, the first slowest, so the cells in _pivot_cells
    order are in gf.subspaces order.  Refused before any is built past
    POINT_CAP subspaces of F_q^n."""
    _check_subspace_cap(q, n)
    rows = []
    for p in pivots:
        codes = [q ** (n - 1 - p)]
        for c in range(p + 1, n):
            if c not in pivots:
                codes = [a + x * q ** (n - 1 - c) for a in codes for x in range(q)]
        rows.append(codes)
    return tuple(product(*rows))


def _image_codes(F: FieldSpec, X, tail_vectors):
    """The code of X u for every tail vector u, indexed by the code of u."""
    add, _, mul, _ = F.tables
    q = F.q
    out = []
    for u in tail_vectors:
        code = 0
        for row in X:
            s = 0
            for a, x in zip(row, u):
                if a and x:
                    s = add[s][mul[a][x]]
            code = code * q + s
        out.append(code)
    return out


def _residue(w, basis, pivots, sub, mul):
    """w minus its projection on the span of an RREF basis (zero iff w is in it)."""
    for row, p in zip(basis, pivots):
        x = w[p]
        if x:
            mx = mul[x]
            w = [sub[a][mx[b]] for a, b in zip(w, row)]
    return w


def _stable(image, codes, vectors, leads, basis, pivots, sub, mul):
    """Whether an arrow maps the vectors with the given codes into the
    span of an RREF basis.  A nonzero vector of the span has its first
    nonzero entry in a pivot column, which rules most vectors out at once.
    """
    for c in codes:
        w = image[c]
        if w and (leads[w] not in pivots
                  or any(_residue(vectors[w], basis, pivots, sub, mul))):
            return False
    return True


def _rows(cols, select):
    """The matrix with the given columns, keeping only the rows in select."""
    if not cols:
        return ((),) * len(select)
    rows = tuple(zip(*cols))
    return tuple(rows[i] for i in select)


def _sub_quotient_point(arrows, vectors, images, choice, sub, mul):
    """The quotient and sub representations induced on a stable subspace tuple.

    choice[i] is the entry chosen at vertex i and images[a][c] the code
    of arrow a's image of tail vector c.  The coordinates of a vector of
    an RREF span are its pivot entries; the quotient keeps the non-pivot
    coordinates of the residue.  Returns the pair of points
    ((quot_mats, quot_dims), (sub_mats, sub_dims)).
    """
    q = len(sub)
    sub_mats = []
    quot_mats = []
    for image, (t, h) in zip(images, arrows):
        head = vectors[h]
        basis, _, pivots, nonpivots = choice[h]
        _, codes, _, tail_nonpivots = choice[t]
        sub_mats.append(_rows([head[image[c]] for c in codes], pivots))
        # the unit vector e_c of F^n has code q^(n-1-c)
        n_t = len(vectors[t][0])
        quot_mats.append(_rows([_residue(head[image[q ** (n_t - 1 - c)]], basis, pivots,
                                         sub, mul) for c in tail_nonpivots], nonpivots))
    return ((tuple(quot_mats), tuple(len(c[3]) for c in choice)),
            (tuple(sub_mats), tuple(len(c[1]) for c in choice)))


def _product_walk(F, quiver, mats, dims):
    """The (quotient point, sub point, 1) triple of every submodule of a point.

    Each arrow's image of every tail code is computed once.  Subspace
    tuples are walked in product order of the per-vertex lists, a
    vertex's choice being tested against every arrow whose ends are both
    chosen; each stable tuple is a submodule.
    """
    _, sub, mul, _ = F.tables
    vectors = [_vector_cache(F, n)[0] for n in dims]
    images = [_image_codes(F, X, vectors[t]) for X, (t, _) in zip(mats, quiver.arrows)]

    def entries(n, vecs):
        """F^n's subspaces as entries, cell by cell; a cell's entries
        share one (pivots, nonpivots) pair."""
        for pivots in _pivot_cells(F.q, n):
            pair = (pivots, tuple(c for c in range(n) if c not in pivots))
            for codes in _cell(F.q, n, pivots):
                yield (tuple(map(vecs.__getitem__, codes)), codes) + pair

    lists = [list(entries(n, vecs)) for n, vecs in zip(dims, vectors)]
    leads = [_vector_cache(F, n)[1] for n in dims]
    # the arrows tested when vertex i is chosen: (image, tail, head)
    tests = [[(image, t, h) for image, (t, h) in zip(images, quiver.arrows)
              if max(t, h) == i] for i in range(quiver.nv)]
    choice = [None] * quiver.nv

    def walk(i):
        if i == quiver.nv:
            yield _sub_quotient_point(quiver.arrows, vectors, images, choice, sub, mul) + (1,)
            return
        for entry in lists[i]:
            choice[i] = entry
            for image, t, h in tests[i]:
                basis, _, pivots, _ = choice[h]
                if not _stable(image, choice[t][1], vectors[h], leads[h],
                               basis, pivots, sub, mul):
                    break
            else:
                yield from walk(i + 1)

    return walk(0)


def _nilpotent_walk(F, quiver, mats, dims, sub_rank=None):
    """Triples (quotient ranks, sub ranks, count) that together count every
    submodule of a point of a quiver in which each vertex has one
    outgoing arrow, the arrows acting nilpotently; with sub_rank, a rank
    table, only the submodules of that rank table.

    With T the arrow maps, a graded subspace U is a submodule iff
    T(U) is inside U.  So a submodule U of a submodule S lies between
    V = T(U), a submodule of T(S), and P = T^-1(V) meet S; conversely
    every graded U between them has T(U) inside V, so is a submodule,
    and comes from this V iff T(U) = V.  One recursion, submodules(S,
    choose), runs through the submodules V of T(S) first (T(S) is
    smaller, as T is nilpotent, and the recursion ends at the zero
    module, its one submodule), then through the graded subspaces U/V of P/V,
    the cells of F^m (_cell) per vertex with m = dim P_i/V_i, and keeps U
    when T(U) = V.  At vertex i, with X the arrow to j, that says X maps
    U_i onto V_j modulo X(V_i), so each vertex is filtered alone.  Every
    U visited is a submodule.  Each subspace of the point is an (RREF
    rows, pivots) pair, and rows are mapped through the arrows' matrices
    as they are needed; a W of an F^m cell is read by its codes.

    A rank table lists, per vertex j, the ranks of the paths of 0, 1, 2,
    ... arrows from j while they are nonzero (_multisegment_of_ranks).
    U's are read off V's: the path of l >= 1 arrows from j maps U_j
    onto the path of l - 1 arrows from j + 1 applied to V_{j+1}.  The
    quotient's come from U's pivots: the point's path images are tails
    of its bases (rep_point orders them by height), and the path of l
    arrows from j to v maps L/U onto (tail + U_v)/U_v, of dimension
    |tail| minus the number of U_v's pivots inside the tail.

    So the submodules U of L itself, the top level, are read only through
    their pivots and dimensions: there choose is pivot_counts, which
    tallies each vertex's U_i by pivots as (None, pivots) with a count,
    and below it choose is lifts, which lists each U_i with count 1.
    U_i = V_i + W C for a complement C of V_i in P_i, so its pivots are
    V_i's and C's pivot columns at W's.  When V_j = X(V_i), nothing is to
    be mapped onto and every subspace W of F^m counts: those with one
    pivot set are a cell of q^(free RREF entries) (_pivot_cells).
    Otherwise a cell counts its W that pass the onto test.  The
    vertices' counts multiply, and one triple is yielded per V and pivot
    tuple.

    A rank table R for U fixes one for V = T(U): R'[h(i)] = R[i][1:], as
    rank_row reads U's row at i off V's at h(i).  So submodules(S,
    choose, R) passes R' down, and at vertex i reads only the cells of
    dimension R[i][0] - dim V_i (0 for an empty row), the rest of the
    walk unchanged.
    """
    q = F.q
    add, sub, mul, _ = F.tables
    ops = (F.inv, lambda a, b: mul[a][b], lambda a, b: sub[a][b])
    nv = quiver.nv
    out = [None] * nv  # out[i] = (the columns of the arrow from i, its head)
    for X, (t, h) in zip(mats, quiver.arrows):
        out[t] = (tuple(zip(*X)), h)

    def combine(coeffs, rows, n):
        """sum_k coeffs[k] rows[k] in F^n."""
        w = None
        for c, row in zip(coeffs, rows):
            if c:
                mc = mul[c]
                w = [mc[b] for b in row] if w is None else [add[a][mc[b]] for a, b in zip(w, row)]
        return (0,) * n if w is None else tuple(w)

    def image(i, u):
        """X u for the arrow X from vertex i."""
        cols, h = out[i]
        return combine(u, cols, dims[h])

    # cuts[j][l] = (v, c): the path of l arrows from j ends at v and its
    # image is spanned by the unit vectors e_c, ..., e_{n_v - 1}.  A point
    # without that shape would be miscounted, so it is refused.
    total = sum(dims)
    units = [gf.mat_identity(n) for n in dims]
    cuts = []
    for j in range(nv):
        row, v, tail = [], j, set(units[j])
        while tail:
            n = dims[v]
            if len(row) == total or tail != set(units[v][n - len(tail):]):
                raise InternalCheckError(
                    "point identification failed: a path image is not a tail of the basis")
            row.append((v, n - len(tail)))
            tail = {image(v, u) for u in tail} - {(0,) * dims[out[v][1]]}
            v = out[v][1]
        cuts.append(row)

    def quotient_ranks(U):
        rank = []
        for row in cuts:
            ranks = []
            for v, c in row:
                x = dims[v] - c - sum(p >= c for p in U[v][1])
                if not x:
                    break
                ranks.append(x)
            rank.append(tuple(ranks))
        return tuple(rank)

    def reduce(rows, n):
        """The RREF basis (tuples) and pivots of the span of rows in F^n."""
        rows, pivots = gf.rref(rows, n, *ops)
        return tuple(map(tuple, rows[:len(pivots)])), tuple(pivots)

    def complement(i, level, V, TV):
        """The U_i between V_i and P_i that X_i maps onto V_j modulo
        X_i(V_i) = TV_j, as (C rows, C pivots, onto): U_i = V_i + W C for
        the subspaces W of F^m, m = dim C, whose codes pass onto, or for
        every W when onto is None.  None when P_i = V_i, so U_i = V_i."""
        n, h = dims[i], out[i][1]
        kernel, preimages, image_pivots = level
        V_rows, V_pivots = V[i]
        if len(kernel) + len(V[h][0]) == len(V_rows):
            return None
        # P_i = ker X_i + a preimage of V_j; the coordinates of a vector
        # of X_i(S_i) on its RREF basis are its entries in the pivot columns
        P_rows = kernel + [combine([v[p] for p in image_pivots], preimages, n)
                           for v in V[h][0]]
        # C: an RREF complement of V_i in P_i, zero in V_i's pivot columns
        C_rows, C_pivots = reduce([_residue(p, V_rows, V_pivots, sub, mul) for p in P_rows], n)
        # X_i C in V_j / TV_j, in coordinates: TV_j's pivots are among V_j's,
        # and a vector of V_j that is zero in TV_j's is fixed by the rest
        R_rows, R_pivots = TV[h]
        coords = [p for p in V[h][1] if p not in R_pivots]
        e = len(coords)
        if not e:
            return C_rows, C_pivots, None
        Y = [_residue(image(i, c), R_rows, R_pivots, sub, mul) for c in C_rows]
        Z = [tuple(y[p] for p in coords) for y in Y]
        # the coordinates of X_i w C for every w of F^m, by code
        project = [combine(w, Z, e) for w in _vector_cache(F, len(C_rows))[0]]

        def onto(W_codes):
            hits = list(filter(any, map(project.__getitem__, W_codes)))
            return len(hits) >= e and (e == 1 or len(reduce(hits, e)[1]) == e)

        return C_rows, C_pivots, onto

    def lifts(i, level, V, TV, k):
        """Every U_i of complement(i, level, V, TV), with count 1; with k
        not None, only those of dimension dim V_i + k."""
        found = complement(i, level, V, TV)
        if found is None:
            if not k:
                yield V[i], 1
            return
        C_rows, C_pivots, onto = found
        n, m = dims[i], len(C_rows)
        V_rows, V_pivots = V[i]
        cells = [p for p in _pivot_cells(q, m) if k is None or len(p) == k]
        lift = [combine(w, C_rows, n) for w in _vector_cache(F, m)[0]]  # w C, by code
        for W_pivots in cells:
            L_pivots = [C_pivots[p] for p in W_pivots]
            for W_codes in _cell(q, m, W_pivots):
                if onto and not onto(W_codes):
                    continue
                # W C is in RREF, with pivots in C's pivot columns and zeros
                # in V_i's; clearing those columns from V_i's rows leaves
                # them in RREF too
                L_rows = list(map(lift.__getitem__, W_codes))
                pairs = sorted(list(zip(L_pivots, L_rows))
                               + [(p, tuple(_residue(v, L_rows, L_pivots, sub, mul)))
                                  for p, v in zip(V_pivots, V_rows)])
                yield (tuple(r for _, r in pairs), tuple(p for p, _ in pairs)), 1

    def pivot_counts(i, level, V, TV, k):
        """Every U_i of complement(i, level, V, TV) as (None, its pivots),
        with the number of U_i that have those pivots; with k not None,
        only those of dimension dim V_i + k."""
        found = complement(i, level, V, TV)
        V_pivots = V[i][1]
        if found is None:
            return [((None, V_pivots), 1)] if not k else []
        _, C_pivots, onto = found
        m = len(C_pivots)
        counts = [(W_pivots, sum(map(onto, _cell(q, m, W_pivots))) if onto else size)
                  for W_pivots, size in _pivot_cells(q, m).items()
                  if k is None or len(W_pivots) == k]
        return [((None, tuple(sorted(V_pivots + tuple(C_pivots[p] for p in W_pivots)))),
                 count) for W_pivots, count in counts if count]

    def rank_row(i, U_i, rank_V):
        """The rank row of U at vertex i."""
        return (len(U_i[1]),) + rank_V[out[i][1]] if U_i[1] else ()

    def levels_of(S):
        """T(S), and per vertex the level (ker X_i, preimages of the RREF
        basis of X_i(S_i), its pivots), for a nonzero submodule S."""
        TS = [None] * nv
        levels = [None] * nv
        for i, (rows, _) in enumerate(S):
            h = out[i][1]
            n_h, k = dims[h], len(rows)
            red, pivots = gf.rref([image(i, s) + tuple(int(j == l) for l in range(k))
                                   for j, s in enumerate(rows)], n_h, *ops)
            pivots = tuple(pivots)
            TS[h] = (tuple(tuple(row[:n_h]) for row in red[:len(pivots)]), pivots)
            lifted = [combine(row[n_h:], rows, dims[i]) for row in red]
            levels[i] = (lifted[len(pivots):], lifted[:len(pivots)], pivots)
        if sum(len(p) for _, p in TS) == sum(len(p) for _, p in S):
            raise InternalCheckError("point identification failed (non-nilpotent input?)")
        return tuple(TS), levels

    def submodules(S, choose, R):
        """(U, T(U), rank table of U, count) for the submodules U of S, a
        tuple of per-vertex (RREF rows, pivots) spanning a submodule, of
        rank table R unless R is None; each U_i comes from choose(i, level,
        V, TV, k) as (U_i, count), and a yielded U stands for count
        submodules."""
        if not any(pivots for _, pivots in S):
            if R is None or not any(R):
                yield S, S, ((),) * nv, 1
            return
        TS, levels = levels_of(S)
        R_V = None
        if R is not None:
            R_V = [None] * nv
            for i, row in enumerate(R):
                R_V[out[i][1]] = row[1:]
        for V, TV, rank_V, _ in submodules(TS, lifts, R_V):
            rest = [((), (), 1)]
            for i in range(nv - 1, -1, -1):
                k = None if R is None else (R[i] or (0,))[0] - len(V[i][1])
                rest = [((U_i,) + tail, (rank_row(i, U_i, rank_V),) + rows, ways * count)
                        for U_i, ways in choose(i, levels[i], V, TV, k)
                        for tail, rows, count in rest]
            for U, rank, count in rest:
                yield U, V, rank, count

    full = tuple((rows, tuple(range(len(rows)))) for rows in units)
    quotients = {}
    for U, _, rank, count in submodules(full, pivot_counts, sub_rank):
        quotient = quotients.get(U)
        if quotient is None:
            quotient = quotients[U] = quotient_ranks(U)
        yield quotient, rank, count


def _submodule_table(F, quiver, mats, dims, classes, classify, walk):
    """Count the submodules of a point by (quotient class, sub class).

    walk(F, quiver, mats, dims) yields triples (quotient invariant, sub
    invariant, count), where count submodules have those invariants, and
    every submodule is counted once: the product walk, the brute-force
    engine's, yields each submodule's points with count 1; the walk over
    T(U), the nilpotent engine's, tallies rank tables.  An invariant is a
    hashable value that fixes a class, such as a point (mats, dims) or a
    rank table.  classify(invariant) must return its class key.  classes
    is the engine's memo invariant -> class key, kept across all its
    tables, so classify is called once per distinct invariant per
    engine.  The returned dict maps (quot_key, sub_key) -> number of
    submodules, which is the Hall number F^L_{quot, sub}.  A vertex
    space past POINT_CAP vectors is refused before either walk lists
    vectors of it or of its subspaces.
    """
    _check_vertex_cap(F, dims)
    counts = {}

    def class_key(invariant):
        key = classes.get(invariant)
        if key is None:
            key = classes[invariant] = classify(invariant)
        return key

    for (quot, sub, n), times in Counter(walk(F, quiver, mats, dims)).items():
        key = (class_key(quot), class_key(sub))
        counts[key] = counts.get(key, 0) + n * times
    return counts


def _hom_space_basis(F, quiver, matsM, dimsM, matsN, dimsN):
    """Basis of Hom(M, N), the tuples of per-vertex matrices f_i with
    f_h X^M = X^N f_t for every arrow, as flat vectors: each f_i row by
    row, vertex 0 first."""
    nv = quiver.nv
    offsets = []
    total = 0
    for i in range(nv):
        offsets.append(total)
        total += dimsN[i] * dimsM[i]
    if total == 0:
        return []

    def var(i, a, b):  # entry f_i[a][b]
        return offsets[i] + a * dimsM[i] + b

    rows = []
    for a_idx, (t, h) in enumerate(quiver.arrows):
        XM = matsM[a_idx]
        XN = matsN[a_idx]
        for a in range(dimsN[h]):
            for b in range(dimsM[t]):
                row = [0] * total
                for c in range(dimsM[h]):
                    coeff = XM[c][b]
                    if coeff:
                        j = var(h, a, c)
                        row[j] = F.add(row[j], coeff)
                for c in range(dimsN[t]):
                    coeff = XN[a][c]
                    if coeff:
                        j = var(t, c, b)
                        row[j] = F.sub(row[j], coeff)
                if any(row):
                    rows.append(tuple(row))
    if rows:
        return gf.mat_kernel_basis(F, tuple(rows))
    return [tuple(1 if i == j else 0 for i in range(total)) for j in range(total)]


def _count_units(F, basis, dims) -> int:
    """The number of units of End(M), for the basis _hom_space_basis gives
    with M = N of dimension vector dims: the f = sum_k c_k basis[k] whose
    blocks f_i are all invertible.  The c_k are chosen depth first, so one
    partial sum per level is held, not the q^h endomorphisms."""
    add, sub, mul, _ = F.tables
    ops = (F.inv, lambda a, b: mul[a][b], lambda a, b: sub[a][b])
    blocks = list(zip(accumulate((n * n for n in dims), initial=0), dims))

    def units(k, f):
        if k == len(basis):
            return all(len(gf.rref([f[s + r * n:s + r * n + n] for r in range(n)], n, *ops)[1]) == n
                       for s, n in blocks)
        return sum(units(k + 1, [add[a][mul[c][b]] for a, b in zip(f, basis[k])])
                   for c in range(F.q))

    return units(0, [0] * sum(n * n for n in dims))


# ---------------------------------------------------------------------------
# Submodule tables per symmetry orbit, shared by both engines
# ---------------------------------------------------------------------------

class _HallEngine:
    """Submodule tables walked once per symmetry orbit, and an engine's memos.

    An engine supplies _symmetries, generators that keep Hall numbers,
    F^{gL}_{gM, gN} = F^L_{M,N}, or None for a duality D, F^{DL}_{DN, DM}
    = F^L_{M,N}; _class_image(key, j), a table key's image under
    generator j; _table_key(c) and its inverse class_from_key; and
    _walk_table(c).  Only an orbit's least table key is walked; any other
    class's table is that table with both keys of each entry carried
    along the word leading to the class, and swapped after an odd number
    of D.
    """

    _symmetries = ()

    def __init__(self):
        self._subtables = {}
        # symmetry j -> {table key: its image}; table key -> (canonical key, word)
        self._class_images = {}
        self._canonical = {}
        # filled by hallcore (basis products, coproducts) and primitives
        self._products = {}
        self._coproducts = {}
        self._primitive_caches = {}

    def _closing(self, key):
        """The symmetries whose closure from key reaches the least key of
        its orbit: all of them."""
        return range(len(self._symmetries))

    def _moved(self, key, j):
        """_class_image(key, j), memoized per symmetry."""
        memo = self._class_images.setdefault(j, {})
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._class_image(key, j)
        return out

    def _words(self, start, symmetries):
        """{key: word} over the orbit of table key `start` under the given
        symmetries: a shortest tuple of them that, applied first to last,
        carries start to key."""
        words = {start: ()}
        queue = [start]
        for x in queue:
            for j in symmetries:
                y = self._moved(x, j)
                if y not in words:
                    words[y] = words[x] + (j,)
                    queue.append(y)
        return words

    def sub_table(self, c: IsoClass) -> dict:
        """All Hall numbers F^c_{quot, sub} by exact submodule enumeration,
        as {(quot key, sub key): count}, walked once per symmetry orbit and
        carried over for the rest."""
        key = self._table_key(c)
        if key in self._subtables:
            return self._subtables[key]
        if self._symmetries and key not in self._canonical:
            symmetries = self._closing(key)
            words = self._words(key, symmetries)
            least = min(words)
            for x, word in (words if least == key else self._words(least, symmetries)).items():
                self._canonical[x] = (least, word)
        least, word = self._canonical.get(key, (key, ()))
        if word:
            walked = self.sub_table(self.class_from_key(least))
            moved = {k: reduce(self._moved, word, k) for k in set(chain(*walked))}
            if sum(self._symmetries[j] is None for j in word) % 2:
                table = {(moved[N], moved[M]): n for (M, N), n in walked.items()}
            else:
                table = {(moved[M], moved[N]): n for (M, N), n in walked.items()}
        else:
            table = self._walk_table(c)
        self._subtables[key] = table
        return table

    def hall_number(self, L: IsoClass, M: IsoClass, N: IsoClass) -> int:
        if add_dim(M.grade, N.grade) != L.grade:
            return 0
        return self.sub_table(L).get((self._table_key(M), self._table_key(N)), 0)


# ---------------------------------------------------------------------------
# Nilpotent cyclic engine
# ---------------------------------------------------------------------------

class NilpotentCyclicEngine(_HallEngine):
    """Nilpotent representations of the cyclic quiver with r vertices over GF(q0).

    Classes are multisegments; automorphism orders and Hom dimensions use
    the structured combinatorial formulas.  Hall numbers count the
    submodules of rep_point's matrix realization by the walk over T(U)
    (_nilpotent_walk), which names subs and quotients by rank tables,
    memoized once per engine; one Hall number walks only the submodules
    of its sub's rank table unless the table is memoized.

    Tables are walked once per orbit of the dihedral group of order 2r.
    """

    def __init__(self, r: int, q0: int):
        if r < 1:
            raise ValueError("need r >= 1")
        super().__init__()
        self.r = r
        self.q0 = q0
        self.field = FieldSpec.from_order(q0)
        self.quiver = cyclic_quiver(r)
        self.engine_id = f"C{r}^0|q:{q0}"
        self._classes = {}
        self._rank_classes = {}
        # key -> the one tuple every image key equal to it is
        self._shared_keys = {}
        self._aut = {}
        # rho: i -> i + 1, an automorphism of C_r, then None for D, duality
        # followed by i -> -i; they generate the dihedral group, and on C1
        # fix every key
        self._symmetries = (1, None) if r > 1 else ()

    # -- classes -------------------------------------------------------------

    def make_class(self, ms) -> IsoClass:
        ms = ms_canonical(ms)
        return IsoClass(self.engine_id, "ms", ms_dim_vector(ms, self.r), ms)

    def zero_class(self) -> IsoClass:
        return self.make_class(())

    def simple(self, i: int) -> IsoClass:
        return self.make_class((((i % self.r, 1), 1),))

    def segment_class(self, i: int, l: int, mult: int = 1) -> IsoClass:
        return self.make_class((((i % self.r, l), mult),))

    def classes(self, d) -> list:
        """All isoclasses with dimension vector d, sorted canonically.  The
        segments of length >= 2 take multiplicities longest first and the
        simples S_i[1] take what remains, so every branch ends in a class."""
        d = tuple(d)
        if d in self._classes:
            return self._classes[d]
        segs = []
        for l in range(sum(d), 1, -1):
            for i in range(self.r):
                dv = ms_dim_vector((((i, l), 1),), self.r)
                if all(a <= b for a, b in zip(dv, d)):
                    segs.append(((i, l), dv))
        found = []

        def search(idx, remaining, acc):
            if idx == len(segs):
                found.append(ms_canonical(acc + [((i, 1), m) for i, m in enumerate(remaining)]))
                return
            seg, dv = segs[idx]
            for m in range(min(rem // c for rem, c in zip(remaining, dv) if c), 0, -1):
                search(idx + 1, tuple(rem - m * c for rem, c in zip(remaining, dv)),
                       acc + [(seg, m)])
            search(idx + 1, remaining, acc)

        search(0, d, [])
        out = [IsoClass(self.engine_id, "ms", d, ms) for ms in sorted(found)]
        self._classes[d] = out
        return out

    # -- explicit points -----------------------------------------------------

    def rep_point(self, c: IsoClass):
        """Matrix realization of a multisegment class: one matrix per arrow.

        The basis of vertex v is the vectors (t, s) of the segments s
        through v, t the height of v in s (1 at its top), in order of
        height.  The image of a path of l arrows into v is then spanned
        by the basis vectors of height > l, a tail of the basis, which
        the walk over T(U) relies on.
        """
        r = self.r
        segments = [seg for seg, m in c.key for _ in range(m)]
        position = [{} for _ in range(r)]
        for t, s_idx, v in sorted((t, s_idx, (i + t - 1) % r)
                                  for s_idx, (i, l) in enumerate(segments)
                                  for t in range(1, l + 1)):
            position[v][t, s_idx] = len(position[v])
        dims = tuple(map(len, position))
        mats = []
        for (t, h) in self.quiver.arrows:
            M = [[0] * dims[t] for _ in range(dims[h])]
            for (height, s_idx), col in position[t].items():
                if height < segments[s_idx][1]:
                    M[position[h][height + 1, s_idx]][col] = 1
            mats.append(tuple(tuple(r_) for r_ in M))
        return tuple(mats), dims

    # -- structured invariants -------------------------------------------------

    def dim_end(self, c: IsoClass) -> int:
        return self.hom_dim(c, c)

    def hom_dim(self, c1: IsoClass, c2: IsoClass) -> int:
        return _hom_dim_multisegments(self.r, c1.key, c2.key)

    def aut_order(self, c: IsoClass) -> int:
        """|Aut| = q^(dim End - sum m_c^2) * prod_c |GL_{m_c}(F_q)|."""
        if c.key in self._aut:
            return self._aut[c.key]
        q = self.q0
        exponent = self.dim_end(c)
        out = 1
        for (_, m) in c.key:
            exponent -= m * m
            out *= gf.gl_order(q, m)
        value = q ** exponent * out
        self._aut[c.key] = value
        return value

    def socle(self, c: IsoClass) -> tuple:
        """Multiplicity of each simple in the socle: S_i[l] contributes S_{i+l-1}."""
        out = [0] * self.r
        for (i, l), m in c.key:
            out[(i + l - 1) % self.r] += m
        return tuple(out)

    # -- Hall numbers ----------------------------------------------------------

    def _class_image(self, key, j) -> tuple:
        """key under symmetry j: rho moves the segment (i, l) to (i + 1, l),
        and D to (-(i + l - 1), l), its socle becoming its top.  The image
        is the one shared tuple of its value."""
        r = self.r
        if self._symmetries[j] is None:
            out = tuple(sorted((((1 - i - l) % r, l), m) for (i, l), m in key))
        else:
            out = tuple(sorted((((i + 1) % r, l), m) for (i, l), m in key))
        return self._shared_keys.setdefault(out, out)

    def _table_key(self, c: IsoClass):
        return c.key

    def _walk_table(self, c: IsoClass) -> dict:
        mats, dims = self.rep_point(c)
        return _submodule_table(self.field, self.quiver, mats, dims, self._rank_classes,
                                partial(_multisegment_of_ranks, self.r), _nilpotent_walk)

    def class_from_key(self, key) -> IsoClass:
        return IsoClass(self.engine_id, "ms", ms_dim_vector(key, self.r), key)

    def hall_number(self, L: IsoClass, M: IsoClass, N: IsoClass) -> int:
        """F^L_{M,N}, read off L's table if it is memoized, or else by the
        walk over the submodules of N's rank table alone, summing those
        whose quotient has M's."""
        if L.key in self._subtables or add_dim(M.grade, N.grade) != L.grade:
            return super().hall_number(L, M, N)
        mats, dims = self.rep_point(L)
        _check_vertex_cap(self.field, dims)
        walk = _nilpotent_walk(self.field, self.quiver, mats, dims,
                               _ranks_of_multisegment(self.r, N.key))
        quotient = _ranks_of_multisegment(self.r, M.key)
        return sum(count for quot, _, count in walk if quot == quotient)


# ---------------------------------------------------------------------------
# Brute-force orbit engine
# ---------------------------------------------------------------------------

def _chunk_table(units, lo, hi, p, W, offset, top):
    """The table of one chunk, digits lo..hi-1 (field 0 lowest), of a packed point.

    units[g][t] is generator g's image of the unit digit vector at field
    t.  The entry at the chunk's bits holds every generator's image of the
    point that is those bits and 0 elsewhere, by linearity: a list over all
    bit patterns for p = 2, a dict over the valid digit values for odd p.
    """
    k = W - 1
    index = [0]
    parts = [[0] for _ in units]
    for t in range(lo, hi):
        if p > 2:
            step = W * (t - lo)
            index = [x + (v << step) for v in range(p) for x in index]
        for part, image in zip(parts, units):
            u = image[t]
            if p == 2:
                part += [y ^ u for y in part]
                continue
            multiples = [u]
            for _ in range(p - 2):
                m = multiples[-1] + u
                multiples.append(m - (((m + offset) & top) >> k) * p)
            part += [y + m - (((y + m + offset) & top) >> k) * p
                     for m in multiples for y in part]
    entries = list(zip(*parts))
    return entries if p == 2 else dict(zip(index, entries))


def _combiner(tables, bounds, p, W, offset, top):
    """x -> every generator's image of x, combined from the chunk tables:
    final for p = 2, each field at most 2p - 2 for odd p (see _images)."""
    combine = xor if p == 2 else plus
    T0 = tables[0]
    m0 = (1 << W * bounds[1]) - 1
    if len(tables) == 1:
        return T0.__getitem__
    if len(tables) == 2:
        s1, T1 = W * bounds[1], tables[1]
        return lambda x: map(combine, T0[x & m0], T1[x >> s1])
    k = W - 1
    s1, m1, T1 = W * bounds[1], (1 << W * (bounds[2] - bounds[1])) - 1, tables[1]
    rest = [(W * lo, (1 << W * (hi - lo)) - 1, T)
            for lo, hi, T in zip(bounds[2:], bounds[3:], tables[2:])]

    def images(x):
        ys = map(combine, T0[x & m0], T1[x >> s1 & m1])
        for s, m, T in rest:
            if top:  # reduce the running sum before the next chunk's entry joins it
                ys = [y - (((y + offset) & top) >> k) * p for y in ys]
            ys = map(combine, ys, T[x >> s & m])
        return ys
    return images


class _GradeData:
    """A grade's orbits: classes, the packed point -> orbit index map, each
    orbit's size and least packed point, and that point as matrices
    (`reps`, unpacked on first read)."""

    __slots__ = ("classes", "orbit_of", "least", "sizes", "_unpack", "_reps")

    def __init__(self, classes, orbit_of, least, sizes, unpack):
        self.classes = classes
        self.orbit_of = orbit_of
        self.least = least
        self.sizes = sizes
        self._unpack = unpack
        self._reps = None

    @property
    def reps(self):
        if self._reps is None:
            self._reps = [self._unpack(x) for x in self.least]
        return self._reps


class BruteForceEngine(_HallEngine):
    """Generic engine for a small quiver: full orbit partition of E_V.

    A point is one packed int.  Its coordinates are the arrows' matrix
    entries row by row in arrow order, coordinate 0 in the highest bits;
    each coordinate's field code is written as its e base-p digits, high
    digit first, each in a field of W bits (W = 1 for p = 2, else
    bits(p - 1) + 1, one bit of headroom for a sum of two digits).  Digits
    compare as the codes they spell, so int order is the lexicographic
    order of the flat code tuples.  Representatives are handed out as one
    matrix per arrow.

    Orbits are found by closure under generators of prod_i GL(V_i).  X ->
    g_head X g_tail^-1 is F_p-linear in the digits, so each generator is
    compiled per grade from its images of the unit digit vectors into
    chunk tables (see _images): an image is a few table reads combined
    by XOR for p = 2, or added and reduced by one masked subtraction of
    p per field for odd p.  Each orbit's representative is its least
    point, and orbits are indexed in the order of those points, so
    representatives and indices are deterministic.  With the nilpotent
    restriction the closure starts only from the nilpotent patterns'
    points (see _nilpotent_patterns), not from the whole variety.

    On K2 the submodule tables are walked once per orbit of the
    symmetries of _symmetries (_HallEngine).
    """

    def __init__(self, quiver: Quiver, q0: int, nilpotent: bool = False):
        self.quiver = quiver
        self.q0 = q0
        self.field = FieldSpec.from_order(q0)
        self.nilpotent = nilpotent
        if nilpotent and not quiver.is_cycle():
            raise ValueError("nilpotent restriction only supported for cyclic quivers")
        super().__init__()
        tag = "|nil" if nilpotent else ""
        self.engine_id = f"Q:{quiver.name}{tag}|q:{q0}"
        p = self.field.p
        self._digit_bits = 1 if p == 2 else (p - 1).bit_length() + 1
        self._code_bits = self.field.e * self._digit_bits
        self._grades = {}
        self._image_cache = {}
        self._gl_cache = {}
        self._point_classes = {}

    # -- packed points -----------------------------------------------------------

    def _shapes(self, d):
        return [(d[h], d[t]) for (t, h) in self.quiver.arrows]

    def _entry_count(self, d):
        n = 0
        for t, h in self.quiver.arrows:
            n += d[t] * d[h]
        return n

    @cached_property
    def _spread(self):
        """The packed digits of each field code, low digit in the low field."""
        F = self.field
        if F.p == 2 or F.e == 1:
            return range(F.q)
        F.tables  # refuses a field past the field order cap before q steps
        W = self._digit_bits
        return tuple(sum(c << (W * a) for a, c in enumerate(F.decode(code)))
                     for code in range(F.q))

    @cached_property
    def _digit_images(self):
        """[j][w]: the packed digits of w * x^j, for each digit j of a code."""
        F = self.field
        if F.e == 1:
            return [self._spread]
        mul = F.tables[2]
        return [[self._spread[mul[w][F.p ** j]] for w in range(F.q)] for j in range(F.e)]

    @cached_property
    def _code_of(self):
        return {packed: code for code, packed in enumerate(self._spread)}

    def _pack(self, mats, d):
        """The packed int of a point given as one matrix per arrow."""
        shapes = self._shapes(d)
        if len(mats) != len(shapes):
            raise ValueError("point does not belong to this engine's variety")
        q, spread, bits = self.q0, self._spread, self._code_bits
        x = 0
        for X, (rows, cols) in zip(mats, shapes):
            if len(X) != rows or any(len(row) != cols for row in X):
                raise ValueError("point does not belong to this engine's variety")
            for row in X:
                for code in row:
                    if not 0 <= code < q:
                        raise ValueError("point does not belong to this engine's variety")
                    x = x << bits | spread[code]
        return x

    def _unpack(self, x, d):
        """The point of a packed int as one matrix per arrow."""
        bits, code_of = self._code_bits, self._code_of
        mask = (1 << bits) - 1
        shapes = self._shapes(d)
        top = bits * (sum(rows * cols for rows, cols in shapes) - 1)
        flat = [code_of[x >> s & mask] for s in range(top, -1, -bits)]
        mats = []
        pos = 0
        for rows, cols in shapes:
            mats.append(tuple(tuple(flat[pos + r * cols: pos + (r + 1) * cols])
                              for r in range(rows)))
            pos += rows * cols
        return tuple(mats)

    def _fill(self, d, coords):
        """Every packed point that is 0 off the given coordinates, in increasing
        order: flat indices `coords`, ascending, take every code."""
        bits, spread = self._code_bits, self._spread
        top = self._entry_count(d) - 1
        shifts = [bits * (top - f) for f in coords]
        half = len(shifts) // 2
        highs, lows = [0], [0]
        for s in shifts[:half]:
            highs = [x | c << s for x in highs for c in spread]
        for s in shifts[half:]:
            lows = [x | c << s for x in lows for c in spread]
        return chain.from_iterable(map(high.__or__, lows) for high in highs)

    def _blocks(self, d):
        """(tail, head, rows, cols, offset) of each arrow's block of a flat point."""
        blocks = []
        pos = 0
        for (t, h), (rows, cols) in zip(self.quiver.arrows, self._shapes(d)):
            blocks.append((t, h, rows, cols, pos))
            pos += rows * cols
        return blocks

    def _point_bound(self, d):
        """An upper bound on the points grade_data stores.

        On the nilpotent Jordan quiver it is exact: q^(n^2 - n) nilpotent
        n x n matrices (Fine--Herstein).  Elsewhere it is the whole variety.
        """
        if self.nilpotent and self.quiver.nv == 1:
            n = d[0]
            return self.q0 ** (n * n - n)
        return self.q0 ** self._entry_count(d)

    def _nilpotent_patterns(self, d):
        """The maximal coordinate patterns that meet every nilpotent orbit.

        A nilpotent representation has a composition series, and in a
        basis adapted to it every arrow sends each basis vector into the
        span of the earlier ones.  An order of the basis is an
        interleaving of the vertex bases; it allows entry (r, c) of an
        arrow t -> h when basis vector r of h comes before basis vector c
        of t.  A pattern is the sorted tuple of the flat indices it
        allows.  The Jordan quiver has one interleaving, whose pattern is
        the strictly upper-triangular matrices.
        """
        blocks = self._blocks(d)
        total = sum(d)
        left = list(d)
        order = []
        patterns = set()

        def interleave():
            if len(order) == total:
                pos = [[] for _ in d]
                for k, v in enumerate(order):
                    pos[v].append(k)
                patterns.add(tuple(off + r * cols + c
                                   for t, h, rows, cols, off in blocks
                                   for r in range(rows) for c in range(cols)
                                   if pos[h][r] < pos[t][c]))
                return
            for v, k in enumerate(left):
                if k:
                    left[v] -= 1
                    order.append(v)
                    interleave()
                    order.pop()
                    left[v] += 1

        interleave()
        kept = {}
        for pattern in sorted(patterns, key=lambda p: (-len(p), p)):
            allowed = frozenset(pattern)
            if not any(allowed <= other for other in kept.values()):
                kept[pattern] = allowed
        return list(kept)

    def _iter_points(self, d):
        """The packed points orbit closure starts from, each at least once.

        Without the nilpotent restriction this is every point in increasing
        order.  With it, the points supported on the nilpotent patterns:
        q^(n(n-1)/2) strictly upper-triangular seeds on the Jordan quiver
        instead of q^(n^2) points.
        """
        if not self.nilpotent:
            return self._fill(d, range(self._entry_count(d)))
        return chain.from_iterable(self._fill(d, pattern)
                                   for pattern in self._nilpotent_patterns(d))

    def group_order(self, d) -> int:
        out = 1
        for n in d:
            out *= gf.gl_order(self.q0, n)
        return out

    def _gl_moves(self, n):
        """What each of gf.gl_generators(F, n) does to unit matrices.

        One pair (down, across) per generator g: the columns of g and the
        rows of g^-1 that are not unit vectors, each as {index: ((index',
        entry), ...)} over its nonzero entries.  Only these move a unit
        E_rc under X -> g X or X -> X g^-1.
        """
        if n not in self._gl_cache:
            F = self.field
            moves = []
            for g in gf.gl_generators(F, n):
                rows, _ = gf.rref([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(g)], n, F.inv, F.mul, F.sub)
                inverse = [row[n:] for row in rows]
                columns = list(zip(*g))
                moves.append(tuple({k: tuple((j, x) for j, x in enumerate(line) if x)
                                    for k, line in enumerate(lines)
                                    if any(x != (j == k) for j, x in enumerate(line))}
                                   for lines in (columns, inverse)))
            self._gl_cache[n] = moves
        return self._gl_cache[n]

    def _images(self, d):
        """(images, offset, top) for the grade's generators.

        The generators are gf.gl_generators of every GL(d_i), acting by
        X -> g_head X g_tail^-1, which sends the unit E_rc of an arrow's
        block to sum g_head[r'][r] g_tail^-1[c][c'] E_r'c'.  That map is
        F_p-linear in the point's digits, so a generator is fixed by its
        images of the unit digit vectors, read straight off g and g^-1
        (_gl_moves).  The digits are cut into chunks, one for a grade of at
        most SINGLE_TABLE_POINTS points, else at least two of at most
        CHUNK_ENTRIES values each.  Each chunk gets one table from its bits
        to the tuple of every generator's image of that part of the point,
        built by linearity; for odd p only valid digit values are stored.
        images(x) combines x's entries generator by generator: by XOR for
        p = 2, which is final, and by + for odd p, which leaves each W-bit
        field at most 2p - 2 < 2^W.  Such a field is reduced mod p by one
        masked subtraction, y - (((y + offset) & top) >> (W - 1)) * p:
        adding 2^(W-1) - p to a field sets its top bit exactly when it is
        >= p (top = offset = 0 for p = 2).  A generator that moves no point,
        or acts as an earlier one does, is left out.  Built once per grade
        and shared.
        """
        d = tuple(d)
        if d in self._image_cache:
            return self._image_cache[d]
        F = self.field
        mul = F.tables[2]
        p, e = F.p, F.e
        W = self._digit_bits
        blocks = self._blocks(d)
        n_coords = sum(rows * cols for _, _, rows, cols, _ in blocks)
        digits = n_coords * e
        shift = [self._code_bits * f for f in range(n_coords - 1, -1, -1)]
        digit_images = self._digit_images
        k = W - 1
        top = offset = 0
        if p > 2:
            ones = ((1 << W * digits) - 1) // ((1 << W) - 1)  # a 1 in every field
            top = ones << k
            offset = ones * ((1 << k) - p)

        identity = [1 << (W * t) for t in range(digits)]
        units = []  # per generator, the image of each digit, low field first
        for i, n in enumerate(d):
            incident = [b for b in blocks if i in b[:2] and b[2] * b[3]]
            for down, across in self._gl_moves(n) if incident else ():
                image = identity[:]
                for t, h, rows, cols, off in incident:
                    down_i = down if h == i else {}
                    across_i = across if t == i else {}
                    for r in range(rows):
                        left = down_i.get(r)
                        for c in range(cols):
                            right = across_i.get(c)
                            if left is None and right is None:
                                continue
                            pos = (n_coords - 1 - off - r * cols - c) * e
                            for j, scaled in enumerate(digit_images):
                                v = 0
                                for r2, x in left or ((r, 1),):
                                    for c2, y in right or ((c, 1),):
                                        v |= scaled[mul[x][y]] << shift[off + r2 * cols + c2]
                                image[pos + j] = v
                if image != identity and image not in units:
                    units.append(image)
        if not units:
            self._image_cache[d] = (lambda x: ()), offset, top
            return self._image_cache[d]

        count = 1
        if p ** digits > SINGLE_TABLE_POINTS:
            per_chunk = 1
            while p ** (per_chunk + 1) <= CHUNK_ENTRIES:
                per_chunk += 1
            count = max(2, -(-digits // per_chunk))
        bounds = [digits * j // count for j in range(count + 1)]
        tables = [_chunk_table(units, lo, hi, p, W, offset, top)
                  for lo, hi in zip(bounds, bounds[1:])]
        self._image_cache[d] = _combiner(tables, bounds, p, W, offset, top), offset, top
        return self._image_cache[d]

    def _moves(self, d, x):
        """The images of the packed point x under the grade's generators."""
        images, offset, top = self._images(d)
        k, p = self._digit_bits - 1, self.field.p
        return [y - (((y + offset) & top) >> k) * p for y in images(x)]

    def _orbits(self, d, starts, orbit_of):
        """Close the orbit of each start point that orbit_of does not hold yet.

        Orbits are indexed from 0 in the order they are met, and every
        point of one is mapped to its index in orbit_of.  Returns (least
        point, size) lists, one entry per orbit.
        """
        images, offset, top = self._images(d)
        k, p = self._digit_bits - 1, self.field.p
        least = []
        sizes = []
        for point in starts:
            if point in orbit_of:
                continue
            idx = orbit_of[point] = len(least)
            orbit = [point]
            for x in orbit:
                if len(orbit) > POINT_CAP:
                    raise UsageError("orbit closure exceeds the point cap")
                if top:
                    for y in images(x):
                        y -= (((y + offset) & top) >> k) * p
                        if y not in orbit_of:
                            orbit_of[y] = idx
                            orbit.append(y)
                else:
                    for y in images(x):
                        if y not in orbit_of:
                            orbit_of[y] = idx
                            orbit.append(y)
            least.append(min(orbit))
            sizes.append(len(orbit))
        return least, sizes

    def grade_data(self, d) -> _GradeData:
        d = tuple(d)
        if d in self._grades:
            return self._grades[d]
        if self._point_bound(d) > POINT_CAP:
            raise UsageError("representation variety exceeds the point cap")
        orbit_of = {}
        least, sizes = self._orbits(d, self._iter_points(d), orbit_of)
        # Index the orbits by their least points, as an increasing scan of
        # the whole variety meets them; a full scan is already in order.
        order = sorted(range(len(least)), key=least.__getitem__)
        if order != list(range(len(order))):
            rank = [0] * len(order)
            for new, old in enumerate(order):
                rank[old] = new
            orbit_of = {point: rank[idx] for point, idx in orbit_of.items()}
            least = [least[old] for old in order]
            sizes = [sizes[old] for old in order]
        classes = [IsoClass(self.engine_id, "orbit", d, i) for i in range(len(least))]
        data = _GradeData(classes, orbit_of, least, sizes, lambda x: self._unpack(x, d))
        self._grades[d] = data
        return data

    def classes(self, d) -> list:
        return list(self.grade_data(d).classes)

    def class_of_point(self, mats, dims) -> IsoClass:
        data = self.grade_data(tuple(dims))
        idx = data.orbit_of.get(self._pack(mats, dims))
        if idx is None:
            raise ValueError("point does not belong to this engine's variety")
        return data.classes[idx]

    def rep_point(self, c: IsoClass):
        data = self.grade_data(c.grade)
        return data.reps[c.key], c.grade

    def orbit_size(self, c: IsoClass) -> int:
        return self.grade_data(c.grade).sizes[c.key]

    # -- invariants --------------------------------------------------------------

    def aut_order(self, c: IsoClass) -> int:
        """Orbit-stabilizer: |Aut(M)| = |G_V| / |orbit of M|."""
        return self.group_order(c.grade) // self.orbit_size(c)

    def aut_order_point(self, mats, dims) -> int:
        """Automorphism order of an explicit point, without a grade partition.

        Aut(M) is the group of units of End(M), whose q^h elements (h =
        dim End M) bound the stabilizer, so M's orbit has at least
        |G_d| / q^h points.  When q^(2h) <= |G_d| End is the smaller walk:
        its units are counted, and past POINT_CAP it is refused, as the
        orbit, no smaller, would be.  Otherwise the orbit is closed and
        orbit-stabilizer gives |G_d| / |orbit|.
        """
        dims = tuple(dims)
        basis = _hom_space_basis(self.field, self.quiver, mats, dims, mats, dims)
        group = self.group_order(dims)
        size = self.q0 ** len(basis)
        if size * size > group:
            return group // self._orbits(dims, [self._pack(mats, dims)], {})[1][0]
        if size > POINT_CAP:
            raise UsageError("the endomorphisms of the point exceed the point cap")
        return _count_units(self.field, basis, dims)

    # -- Hall numbers --------------------------------------------------------------

    @cached_property
    def _symmetries(self):
        """Generators of a group of symmetries of the classes that keeps
        Hall numbers: on K2 the matrices of gf.gl_generators(F, 2), then
        None for D; elsewhere none.

        [[a, b], [c, e]] changes the basis of the arrow space, (A, B) ->
        (aA + bB, cA + eB).  That is an automorphism of the path algebra,
        so F^{gL}_{gM, gN} = F^L_{M,N}, and it keeps grades; scalars fix
        every class, so the group acting is PGL_2(F_q).  D transposes both
        matrices and swaps the vertices: duality followed by the
        isomorphism of the opposite quiver with K2.  It sends grade (a, b)
        to (b, a), and F^{DL}_{DN, DM} = F^L_{M,N}.
        """
        if self.quiver != kronecker_quiver():
            return ()
        return (*gf.gl_generators(self.field, 2), None)

    def _class_image(self, key, j):
        """The key (grade, index) of the image of class `key` under symmetry
        j: its representative moved, packed, and read off orbit_of at the
        image grade."""
        d, idx = key
        A, B = self.grade_data(d).reps[idx]
        g = self._symmetries[j]
        if g is None:
            image = tuple(tuple(tuple(row[k] for row in X) for k in range(d[0])) for X in (A, B))
            d = (d[1], d[0])
        else:
            add, _, mul, _ = self.field.tables
            image = tuple(tuple(tuple(add[mul[a][x]][mul[b][y]] for x, y in zip(u, v))
                                for u, v in zip(A, B))
                          for a, b in g)
        return d, self.grade_data(d).orbit_of[self._pack(image, d)]

    def _closing(self, key):
        """D moves a grade (a, b) with a < b to a later one, so the least
        class of such a class's orbit lies in its own grade's PGL_2 orbit,
        found without closing (b, a)."""
        d = key[0]
        return range(len(self._symmetries) - (d < d[::-1]))

    def _table_key(self, c: IsoClass):
        return c.grade, c.key

    def _walk_table(self, c: IsoClass) -> dict:
        mats, dims = self.rep_point(c)
        return _submodule_table(
            self.field, self.quiver, mats, dims, self._point_classes,
            lambda point: (point[1], self.class_of_point(*point).key), _product_walk)

    def class_from_key(self, key) -> IsoClass:
        grade, idx = key
        return self.grade_data(grade).classes[idx]

    # -- distinguished classes -----------------------------------------------------

    def zero_class(self) -> IsoClass:
        d = (0,) * self.quiver.nv
        return self.classes(d)[0]

    def simple(self, i: int) -> IsoClass:
        d = tuple(1 if j == i else 0 for j in range(self.quiver.nv))
        return self.classes(d)[0]


# ---------------------------------------------------------------------------
# Engine factories (one shared engine per quiver, q and kind)
# ---------------------------------------------------------------------------

_ENGINES: dict = {}


def get_nilpotent_engine(r: int, q0: int) -> "NilpotentCyclicEngine":
    key = ("nil", r, q0)
    if key not in _ENGINES:
        _ENGINES[key] = NilpotentCyclicEngine(r, q0)
    return _ENGINES[key]


def get_brute_engine(quiver: Quiver, q0: int, nilpotent: bool = False) -> "BruteForceEngine":
    key = ("brute", quiver.name, quiver.arrows, q0, nilpotent)
    if key not in _ENGINES:
        _ENGINES[key] = BruteForceEngine(quiver, q0, nilpotent=nilpotent)
    return _ENGINES[key]


# ---------------------------------------------------------------------------
# Kronecker-specific helpers
# ---------------------------------------------------------------------------

def jordan_block(n: int):
    """Nilpotent Jordan block of size n (ones on the subdiagonal)."""
    return tuple(tuple(1 if j == i - 1 else 0 for j in range(n)) for i in range(n))


def _block_diagonal(blocks):
    """The square block-diagonal matrix of the given square blocks."""
    n = sum(len(blk) for blk in blocks)
    M = [[0] * n for _ in range(n)]
    off = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            M[off + i][off:off + len(row)] = row
        off += len(blk)
    return tuple(tuple(r) for r in M)


def jordan_matrix(lam: Partition):
    """Block-diagonal nilpotent matrix J_lambda."""
    return _block_diagonal([jordan_block(part) for part in lam])


def kronecker_points(q0: int, d: int) -> list:
    """The closed points of P^1(F_q) of degree d.

    A finite point is a monic irreducible f over F_q, given by its
    coefficient codes (f_0, ..., f_{d-1}, 1); None is the point infinity,
    of degree 1.  Precondition: d <= 3, so that a polynomial without a
    root in F_q is irreducible.
    """
    if not 1 <= d <= 3:
        raise ValueError("closed points are listed up to degree 3")
    add, _, mul, _ = FieldSpec.from_order(q0).tables

    def has_root(f):
        for a in range(q0):
            value = 0
            for c in reversed(f):
                value = add[mul[value][a]][c]
            if not value:
                return True
        return False

    monic = [f + (1,) for f in product(range(q0), repeat=d)]
    if d == 1:
        return [None] + monic
    return [f for f in monic if not has_root(f)]


def kronecker_tube_class(engine: BruteForceEngine, x, lam: Partition) -> IsoClass:
    """The class of I_lambda(x) in the tube at the closed point x.

    At a finite point f it is the K2 point (I, C(f^lambda_1) + C(f^lambda_2)
    + ...), a block sum of companion matrices with ones below the
    diagonal, so that C(x^k) is jordan_block(k).  At infinity it is
    (J_lambda, I).
    """
    if x is None:
        A = jordan_matrix(lam)
    else:
        add, sub, mul, _ = engine.field.tables
        powers = [(1,)]
        for _ in range(max(lam)):
            g = [0] * (len(powers[-1]) + len(x) - 1)
            for i, a in enumerate(powers[-1]):
                for j, b in enumerate(x):
                    g[i + j] = add[g[i + j]][mul[a][b]]
            powers.append(g)

        def companion(g):
            n = len(g) - 1
            return tuple(tuple(sub[0][g[i]] if j == n - 1 else int(j == i - 1)
                               for j in range(n)) for i in range(n))

        A = _block_diagonal([companion(powers[part]) for part in lam])
    n = len(A)
    mats = (A, gf.mat_identity(n)) if x is None else (gf.mat_identity(n), A)
    return engine.class_of_point(mats, (n, n))


def is_regular_kronecker(engine: BruteForceEngine, c: IsoClass) -> bool:
    """Regular = semistable of slope 1/2: the grade is square and no
    submodule U has dim U_0 > dim U_1 (vertex 0 is the source)."""
    if c.grade[0] != c.grade[1]:
        return False
    return all(sub_grade[0] <= sub_grade[1]
               for _, (sub_grade, _) in engine.sub_table(c))


def kronecker_regular_classes(engine: BruteForceEngine, n: int) -> list:
    """All regular classes at dimension vector (n, n)."""
    if engine.quiver != kronecker_quiver():
        raise ValueError("engine is not a Kronecker engine")
    return [c for c in engine.classes((n, n)) if is_regular_kronecker(engine, c)]


# ---------------------------------------------------------------------------
# Hall polynomials by interpolation
# ---------------------------------------------------------------------------

_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)


def _hall_degree_bound(r: int, L, M, N) -> int:
    """A bound on the degree of the Hall polynomial F^L_{M,N}(q).

    On the Jordan quiver it is Macdonald's n(lambda) - n(mu) - n(nu)
    (Symmetric Functions and Hall Polynomials, ch. II (4.3)), clamped at
    0.  On C_r two bounds hold and the smaller is taken, clamped at 0.
    A submodule is a tuple of subspaces N_i of L_i, and the Grassmannian
    of dim N_i-planes in L_i has a point count of degree
    dim N_i * (dim L_i - dim N_i), so sum_i dim M_i * dim N_i bounds it.
    Riedtmann's formula F = |Ext^1(M,N)_L| a_L / (a_M a_N |Hom(M,N)|),
    with |Ext^1(M,N)_L| <= q^(dim Ext^1(M,N)) and a_X of degree
    dim End X, bounds it by dim End L - dim End M - dim End N - <M, N>.
    """
    if r == 1:
        def n_weight(ms):
            parts = sorted((l for (_, l), m in ms for _ in range(m)), reverse=True)
            return Partition(parts).n_weight()
        return max(0, n_weight(L) - n_weight(M) - n_weight(N))
    dim_M, dim_N = ms_dim_vector(M, r), ms_dim_vector(N, r)
    grassmannian = sum(m * n for m, n in zip(dim_M, dim_N))
    riedtmann = (_hom_dim_multisegments(r, L, L) - _hom_dim_multisegments(r, M, M)
                 - _hom_dim_multisegments(r, N, N) - euler_form(cyclic_quiver(r), dim_M, dim_N))
    return max(0, min(grassmannian, riedtmann))


def hall_polynomial(r: int, L, M, N, degree_bound=None) -> QPolynomial:
    """Hall polynomial F^L_{M,N}(q) for nilpotent C_r multisegments.

    Samples exact Hall numbers at degree_bound + 2 prime powers: the first
    degree_bound + 1 fix the interpolant and interpolate_q checks it
    exactly against the last.  The bound defaults to _hall_degree_bound.
    """
    L, M, N = ms_canonical(L), ms_canonical(M), ms_canonical(N)
    if degree_bound is None:
        degree_bound = _hall_degree_bound(r, L, M, N)
    needed = degree_bound + 2
    if needed > len(_PRIME_POWERS):
        raise UsageError("degree bound exceeds the sampling budget")
    points = []
    for q0 in _PRIME_POWERS[:needed]:
        eng = NilpotentCyclicEngine(r, q0)
        value = eng.hall_number(eng.class_from_key(L), eng.class_from_key(M),
                                eng.class_from_key(N))
        points.append((q0, value))
    return interpolate_q(points, degree_bound)
