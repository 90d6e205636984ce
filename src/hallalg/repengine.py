"""Module-category engines for quiver representations over finite fields.

Two engines feed the Hall algebra layer with isoclass lists, automorphism
orders, Hall numbers, Hom dimensions and socles:

  * NilpotentCyclicEngine: nilpotent representations of the cyclic quiver
    with r vertices, classified by multisegments.  Isomorphism testing is
    a rank computation, automorphism orders come from a closed formula,
    and Hall numbers are exact submodule counts on explicit points.
  * BruteForceEngine: any small quiver (full cyclic, Kronecker, A2).
    The representation variety is partitioned into group orbits by
    breadth-first closure under generators, so isomorphism is orbit
    identity and automorphism orders follow from orbit-stabilizer.

Dimension vectors are plain tuples.  All computations are exact.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import combinations, product
from math import prod

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
    "kronecker_cap",
    "kronecker_regular_classes",
]

BRUTE_TOTAL_DIM_CAP = 8
# A nilpotent table over at most this many subspace tuples tests every
# tuple (the product walk) instead of walking T(U).  Small tables, such
# as a single hallnum query's, keep the product walk.  With the top level
# of the walk over T(U) counted by pivot cells, a threshold of 0 took the
# benchmark's hall_numbers wall_s from 0.375 to 0.326 reference s and its
# query_p50_ms from 1.31 to 1.33 ms (medians of 6 pairs, on a 2-vCPU host
# with Python 3.11), so lowering it waits on a query-latency measurement
# that can tell a 2 % shift from noise.
PRODUCT_WALK_TUPLES = 1000
POINT_CAP = 10 ** 6


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
    """dim Hom(S_i[l], S_j[m]) = #{1 <= t <= min(l,m) : t = j+m-i (mod r)}."""
    (i, l), (j, m) = seg1, seg2
    target = (j + m - i) % r
    return sum(1 for t in range(1, min(l, m) + 1) if t % r == target)


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


# ---------------------------------------------------------------------------
# Isomorphism classes
# ---------------------------------------------------------------------------

class IsoClass:
    """Engine-scoped canonical key for an isomorphism class.

    Nilpotent cyclic engines key classes by multisegment; brute-force
    engines key them by (grade, orbit index).  A class is never mutated,
    so its hash is taken once.
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
# product(range(q), repeat=n).  A table maps every tail code through
# every arrow once.  A subspace is handed around as the entry (basis,
# codes, pivots, nonpivots) of its RREF basis, and a tuple of subspaces,
# one per vertex, as a choice.  A table is a multiset of counts: the
# order of its keys is unspecified.

@cache
def _vector_cache(F: FieldSpec, n: int):
    """(vectors, leads) of F^n, built once per (q, n).

    vectors[c] is the vector with code c and leads[c] the column of its
    first nonzero entry (n for the zero vector).
    """
    vectors = list(product(range(F.q), repeat=n))
    return vectors, [next((j for j, x in enumerate(v) if x), n) for v in vectors]


def _code(q, row):
    code = 0
    for x in row:
        code = code * q + x
    return code


def _subspace_count(q: int, n: int) -> int:
    """The number of subspaces of F_q^n, the Galois number G_n, from
    G_0 = 1, G_1 = 2 and G_{k+1} = 2 G_k + (q^k - 1) G_{k-1}."""
    before, count = 0, 1
    for k in range(n):
        before, count = count, 2 * count + (q ** k - 1) * before
    return count


@cache
def _pivot_pair(n: int, pivots: tuple):
    """(pivots, nonpivots): the tuples every entry of F^n with these
    pivots shares."""
    return pivots, tuple(c for c in range(n) if c not in pivots)


def _entry(n, rows, codes, pivots):
    """The entry of an RREF basis of a subspace of F^n."""
    return (rows, codes) + _pivot_pair(n, pivots)


def _check_subspace_cap(q: int, n: int):
    if _subspace_count(q, n) > POINT_CAP:
        raise UsageError(f"the subspaces of F_{q}^{n} exceed the point cap")


@cache
def _pivot_cells(q: int, n: int):
    """{pivots: number of subspaces of F_q^n with those RREF pivots}.

    An RREF basis with pivots p_0 < ... < p_{k-1} is free exactly in the
    non-pivot columns past each row's pivot, (n - 1 - p_r) - (k - 1 - r)
    entries in row r, so its pivot set is a cell of q^(free entries)
    subspaces.  Past POINT_CAP subspaces the count is refused, as the
    list is, so a table's cap does not depend on which of them it reads.
    """
    _check_subspace_cap(q, n)
    return {pivots: q ** sum(n - k + r - p for r, p in enumerate(pivots))
            for k in range(n + 1) for pivots in combinations(range(n), k)}


@cache
def _subspace_cache(F: FieldSpec, n: int):
    """Every subspace of F^n as an entry, by dimension in gf.subspaces
    order, built once per (q, n); the basis rows are the same tuple
    objects as in the vector list.  Past POINT_CAP subspaces the list is
    refused before any is built."""
    _check_subspace_cap(F.q, n)
    vectors = _vector_cache(F, n)[0]
    code_of = {v: c for c, v in enumerate(vectors)}
    out = []
    for k in range(n + 1):
        for basis in gf.subspaces(F, n, k):
            codes = tuple(map(code_of.__getitem__, basis))
            out.append(_entry(n, tuple(map(vectors.__getitem__, codes)), codes,
                              tuple(row.index(1) for row in basis)))
    return out


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


def _product_walk(F, quiver, dims, vectors, images):
    """The (quotient point, sub point, 1) triple of every submodule of a point.

    Subspace tuples are walked in product order of the per-vertex lists,
    a vertex's choice being tested against every arrow whose ends are
    both chosen; each stable tuple is a submodule.
    """
    _, sub, mul, _ = F.tables
    lists = [_subspace_cache(F, n) for n in dims]
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


def _nilpotent_walk(F, quiver, dims, vectors, images):
    """Triples (quotient ranks, sub ranks, count) that together count every
    submodule of a point of a quiver in which each vertex has one
    outgoing arrow, the arrows acting nilpotently.

    With T the arrow maps, a graded subspace U is a submodule iff
    T(U) is inside U.  So a submodule U of a submodule S lies between
    V = T(U), a submodule of T(S), and P = T^-1(V) meet S; conversely
    every graded U between them has T(U) inside V, so is a submodule,
    and comes from this V iff T(U) = V.  The walk runs through the
    submodules V of T(S) first (T(S) is smaller, as T is nilpotent), then
    through the graded subspaces U/V of P/V, one F^m subspace list per
    vertex with m = dim P_i/V_i, and keeps U when T(U) = V.  At vertex i,
    with X the arrow to j, that says X maps U_i onto V_j modulo X(V_i),
    so each vertex is filtered alone.  Every U visited is a submodule.

    A rank table lists, per vertex j, the ranks of the paths of 0, 1, 2,
    ... arrows from j while they are nonzero (_multisegment_of_ranks).
    U's are read off V's: the path of l >= 1 arrows from j maps U_j
    onto the path of l - 1 arrows from j + 1 applied to V_{j+1}.  The
    quotient's come from U's pivots: the point's path images are tails
    of its bases (rep_point orders them by height), and the path of l
    arrows from j to v maps L/U onto (tail + U_v)/U_v, of dimension
    |tail| minus the number of U_v's pivots inside the tail.

    So the submodules U of L itself, the top level, are read only through
    their pivots and dimensions, and there each vertex's U_i are tallied
    by pivots rather than listed.  U_i = V_i + W C for a complement C of
    V_i in P_i, so its pivots are V_i's and C's pivot columns at W's.
    When V_j = X(V_i), nothing is to be mapped onto and every subspace W
    of F^m counts: those with one pivot set are a cell of q^(free RREF
    entries) (_pivot_cells).  Otherwise the listed W that pass the onto
    test are tallied.  The vertices' tallies combine by multiplying
    counts, and one triple is yielded per V and pivot tuple.
    """
    q = F.q
    _, sub, mul, _ = F.tables
    ops = (F.inv, lambda a, b: mul[a][b], lambda a, b: sub[a][b])
    nv = quiver.nv
    out = [None] * nv
    for a, (t, h) in enumerate(quiver.arrows):
        out[t] = (a, h)

    # cuts[j][l] = (v, c): the path of l arrows from j ends at v and its
    # image is spanned by the unit vectors e_c, ..., e_{n_v - 1}, which
    # have the codes q^k, k < n_v - c.  A point without that shape would
    # be miscounted, so it is refused.
    total = sum(dims)
    cuts = []
    for j in range(nv):
        row, v = [], j
        image = {q ** k for k in range(dims[j])}
        while image:
            if len(row) == total or image != {q ** k for k in range(len(image))}:
                raise InternalCheckError(
                    "point identification failed: a path image is not a tail of the basis")
            row.append((v, dims[v] - len(image)))
            a, v = out[v]
            image = {images[a][c] for c in image} - {0}
        cuts.append(row)

    def quotient_ranks(pivots):
        rank = []
        for row in cuts:
            ranks = []
            for v, c in row:
                x = dims[v] - c - sum(p >= c for p in pivots[v])
                if not x:
                    break
                ranks.append(x)
            rank.append(tuple(ranks))
        return tuple(rank)

    def reduce(rows, n):
        """The RREF basis (tuples) and pivots of the span of rows in F^n."""
        rows, pivots = gf.rref(rows, n, *ops)
        return tuple(map(tuple, rows[:len(pivots)])), tuple(pivots)

    def image(i, row):
        a, h = out[i]
        return vectors[h][images[a][_code(q, row)]]

    def complement(i, level, V, TV):
        """The U_i between V_i and P_i that X_i maps onto V_j modulo
        X_i(V_i) = TV_j, as (C rows, C pivots, onto): U_i = V_i + W C for
        the subspaces W of F^m, m = dim C, whose codes pass onto, or for
        every W when onto is None.  None when P_i = V_i, so U_i = V_i."""
        n, (_, h) = dims[i], out[i]
        kernel, section, image_pivots = level
        V_rows, _, V_pivots, _ = V[i]
        if len(kernel) + len(V[h][0]) == len(V_rows):
            return None
        # P_i = ker X_i + a preimage of V_j; the coordinates of a vector
        # of X_i(S_i) on its RREF basis are its entries in the pivot columns
        P_rows = kernel + [vectors[i][c] for c in _image_codes(
            F, section, [tuple(v[p] for p in image_pivots) for v in V[h][0]])]
        # C: an RREF complement of V_i in P_i, zero in V_i's pivot columns
        C_rows, C_pivots = reduce([_residue(p, V_rows, V_pivots, sub, mul) for p in P_rows], n)
        # X_i C in V_j / TV_j, in coordinates: TV_j's pivots are among V_j's,
        # and a vector of V_j that is zero in TV_j's is fixed by the rest
        R_rows, _, R_pivots, _ = TV[h]
        coords = [p for p in V[h][2] if p not in R_pivots]
        e = len(coords)
        if not e:
            return C_rows, C_pivots, None
        Y = [_residue(image(i, c), R_rows, R_pivots, sub, mul) for c in C_rows]
        to_e = _image_codes(F, tuple(tuple(y[p] for y in Y) for p in coords),
                            _vector_cache(F, len(C_rows))[0])
        vectors_e = _vector_cache(F, e)[0]

        def onto(W_codes):
            hits = [to_e[c] for c in W_codes if to_e[c]]
            return len(hits) >= e and (e == 1 or len(
                reduce([vectors_e[c] for c in hits], e)[1]) == e)

        return C_rows, C_pivots, onto

    def lifts(i, level, V, TV):
        """The entry of every U_i of complement(i, level, V, TV)."""
        found = complement(i, level, V, TV)
        if found is None:
            yield V[i]
            return
        C_rows, C_pivots, onto = found
        n, m = dims[i], len(C_rows)
        V_rows, _, V_pivots, _ = V[i]
        candidates = _subspace_cache(F, m)
        if onto:
            candidates = (W for W in candidates if onto(W[1]))
        if not V_rows and m == n:  # C is the identity, so U = W
            yield from candidates
            return
        lift = _image_codes(F, tuple(zip(*C_rows)), _vector_cache(F, m)[0])
        for _, W_codes, W_pivots, _ in candidates:
            # W C is in RREF, with pivots in C's pivot columns and zeros in
            # V_i's; clearing those columns from V_i's rows leaves them in
            # RREF too
            L_codes = [lift[c] for c in W_codes]
            L_rows = [vectors[i][c] for c in L_codes]
            L_pivots = [C_pivots[p] for p in W_pivots]
            pairs = sorted(list(zip(L_pivots, L_codes))
                           + [(p, _code(q, _residue(v, L_rows, L_pivots, sub, mul)))
                              for p, v in zip(V_pivots, V_rows)])
            codes = tuple(c for _, c in pairs)
            yield _entry(n, tuple(vectors[i][c] for c in codes), codes,
                         tuple(p for p, _ in pairs))

    def pivot_counts(i, level, V, TV):
        """{pivots of U_i: how many U_i of complement(i, level, V, TV) have them}."""
        found = complement(i, level, V, TV)
        V_pivots = V[i][2]
        if found is None:
            return {V_pivots: 1}
        _, C_pivots, onto = found
        m = len(C_pivots)
        if onto:
            cells = Counter(W[2] for W in _subspace_cache(F, m) if onto(W[1]))
        else:
            cells = _pivot_cells(q, m)
        return {tuple(sorted(V_pivots + tuple(C_pivots[p] for p in W_pivots))): count
                for W_pivots, count in cells.items()}

    def rank_row(i, pivots, rank_V):
        """The rank row of U at vertex i, for U_i with these pivots."""
        return (len(pivots),) + rank_V[out[i][1]] if pivots else ()

    def levels_of(S):
        """T(S), and per vertex the level (ker X_i, a section of X_i on S_i,
        the pivots of X_i(S_i)), for a nonzero submodule S."""
        TS = [None] * nv
        levels = [None] * nv
        for i, (rows, _) in enumerate(S):
            n_h = dims[out[i][1]]
            k = len(rows)
            red, pivots = gf.rref([image(i, s) + tuple(int(j == l) for l in range(k))
                                   for j, s in enumerate(rows)], n_h, *ops)
            pivots = tuple(pivots)
            TS[out[i][1]] = (tuple(tuple(row[:n_h]) for row in red[:len(pivots)]), pivots)
            lifted = [vectors[i][c] for c in _image_codes(
                F, tuple(zip(*rows)), [row[n_h:] for row in red])]
            levels[i] = (lifted[len(pivots):], tuple(zip(*lifted[:len(pivots)])), pivots)
        if sum(len(p) for _, p in TS) == sum(len(p) for _, p in S):
            raise InternalCheckError("point identification failed (non-nilpotent input?)")
        return tuple(TS), levels

    def submodules(S):
        """(U, T(U), rank table of U) for every submodule U of S, a tuple
        of per-vertex (RREF rows, pivots) spanning a submodule."""
        if not any(rows for rows, _ in S):
            zero = tuple(_entry(n, (), (), ()) for n in dims)
            yield zero, zero, ((),) * nv
            return
        TS, levels = levels_of(S)
        for V, TV, rank_V in submodules(TS):
            # the top vertex streams; the others' choices are listed
            rest = [((), ())]
            for i in range(nv - 1, 0, -1):
                rest = [((entry,) + tail, (rank_row(i, entry[2], rank_V),) + rows)
                        for entry in lifts(i, levels[i], V, TV) for tail, rows in rest]
            for entry in lifts(0, levels[0], V, TV):
                row = rank_row(0, entry[2], rank_V)
                for tail, rows in rest:
                    yield (entry,) + tail, V, (row,) + rows

    if not total:  # the zero module's one submodule
        yield ((),) * nv, ((),) * nv, 1
        return
    # the top level: U's are tallied per vertex by pivots, not listed
    full = tuple((tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                  tuple(range(n))) for n in dims)
    TS, levels = levels_of(full)
    quotients = {}
    for V, TV, rank_V in submodules(TS):
        rest = [((), (), 1)]
        for i in range(nv - 1, -1, -1):
            rest = [((pivots,) + tail, (rank_row(i, pivots, rank_V),) + rows, ways * count)
                    for pivots, ways in pivot_counts(i, levels[i], V, TV).items()
                    for tail, rows, count in rest]
        for pivots, rank, count in rest:
            quotient = quotients.get(pivots)
            if quotient is None:
                quotient = quotients[pivots] = quotient_ranks(pivots)
            yield quotient, rank, count


def _submodule_table(F, quiver, mats, dims, classes, classify, walk):
    """Count the submodules of a point by (quotient class, sub class).

    walk(F, quiver, dims, vectors, images) yields triples (quotient
    invariant, sub invariant, count), where count submodules have those
    invariants, and every submodule is counted once: the product walk
    yields each submodule with count 1, the walk over T(U) tallies them.
    An invariant is a hashable value that fixes a class, such as a point
    (mats, dims) or a rank table.  classify(invariant) must return its
    class key.  classes is the engine's memo invariant -> class key,
    kept across all its tables, so classify is called once per distinct
    invariant per engine.  The returned dict maps (quot_key, sub_key) ->
    number of submodules, which is the Hall number F^L_{quot, sub}.
    """
    if any(F.q ** n > POINT_CAP for n in dims):
        raise UsageError(f"vector space F_{F.q}^{max(dims)} exceeds the point cap")
    vectors = [_vector_cache(F, n)[0] for n in dims]
    images = [_image_codes(F, X, vectors[t]) for X, (t, _) in zip(mats, quiver.arrows)]
    counts = {}

    def class_key(invariant):
        key = classes.get(invariant)
        if key is None:
            key = classes[invariant] = classify(invariant)
        return key

    for (quot, sub, n), times in Counter(walk(F, quiver, dims, vectors, images)).items():
        key = (class_key(quot), class_key(sub))
        counts[key] = counts.get(key, 0) + n * times
    return counts


def _hom_space_basis(F, quiver, matsM, dimsM, matsN, dimsN):
    """Basis of Hom(M, N): tuples of per-vertex matrices f_i with
    f_h X^M = X^N f_t for every arrow."""
    nv = quiver.nv
    offsets = []
    total = 0
    for i in range(nv):
        offsets.append(total)
        total += dimsN[i] * dimsM[i]
    if total == 0:
        return [], 0

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
        kernel = gf.mat_kernel_basis(F, tuple(rows))
    else:
        kernel = [tuple(1 if i == j else 0 for i in range(total)) for j in range(total)]

    def unflatten(vec):
        mats = []
        for i in range(nv):
            base = offsets[i]
            mats.append(tuple(tuple(vec[base + a * dimsM[i] + b]
                                    for b in range(dimsM[i]))
                              for a in range(dimsN[i])))
        return tuple(mats)

    return [unflatten(v) for v in kernel], total


# ---------------------------------------------------------------------------
# Nilpotent cyclic engine
# ---------------------------------------------------------------------------

class NilpotentCyclicEngine:
    """Nilpotent representations of the cyclic quiver with r vertices over GF(q0).

    Classes are multisegments; automorphism orders and Hom dimensions use
    the structured combinatorial formulas, Hall numbers use exact
    submodule enumeration on explicit matrix realizations.
    """

    def __init__(self, r: int, q0: int):
        if r < 1:
            raise ValueError("need r >= 1")
        self.r = r
        self.q0 = q0
        self.field = FieldSpec.from_order(q0)
        self.quiver = cyclic_quiver(r)
        self.engine_id = f"C{r}^0|q:{q0}"
        self._classes = {}
        self._subtables = {}
        self._point_classes = {}
        self._rank_classes = {}
        self._aut = {}
        # basis products and coproducts, filled by hallcore
        self._products = {}
        self._coproducts = {}

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
        """All isoclasses with dimension vector d, sorted canonically."""
        d = tuple(d)
        if d in self._classes:
            return self._classes[d]
        total = sum(d)
        segs = []
        for l in range(1, total + 1):
            for i in range(self.r):
                dv = ms_dim_vector((((i, l), 1),), self.r)
                if all(a <= b for a, b in zip(dv, d)):
                    segs.append(((i, l), dv))
        found = []

        def search(idx, remaining, acc):
            if not any(remaining):
                found.append(ms_canonical(acc))
                return
            if idx == len(segs):
                return
            (seg, dv) = segs[idx]
            max_mult = min((rem // c if c else 10 ** 9)
                           for rem, c in zip(remaining, dv) if c)
            for m in range(max_mult, -1, -1):
                if m:
                    new_rem = tuple(rem - m * c for rem, c in zip(remaining, dv))
                    if min(new_rem) < 0:
                        continue
                    search(idx + 1, new_rem, acc + [(seg, m)])
                else:
                    search(idx + 1, remaining, acc)

        search(0, d, [])
        out = sorted(IsoClass(self.engine_id, "ms", d, ms) for ms in set(found))
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

    def class_of_point(self, mats, dims) -> IsoClass:
        """Identify the multisegment of a nilpotent point via path ranks."""
        F = self.field
        r = self.r
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
                rows, pivots = gf.rref(gf.mat_mul(F, image, tuple(zip(*X))), len(X),
                                       F.inv, F.mul, F.sub)
                image = rows[:len(pivots)]
            rank.append(tuple(row))
        return IsoClass(self.engine_id, "ms", tuple(dims), _multisegment_of_ranks(r, rank))

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
            out *= gf.gl_order(self.field, m)
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

    def sub_table(self, c: IsoClass) -> dict:
        """All Hall numbers F^c_{quot, sub} by exact submodule enumeration."""
        if c.key in self._subtables:
            return self._subtables[c.key]
        mats, dims = self.rep_point(c)
        if prod(_subspace_count(self.q0, n) for n in dims) <= PRODUCT_WALK_TUPLES:
            classes, classify, walk = (self._point_classes,
                                       lambda point: self.class_of_point(*point).key,
                                       _product_walk)
        else:
            classes, classify, walk = (self._rank_classes,
                                       partial(_multisegment_of_ranks, self.r), _nilpotent_walk)
        table = _submodule_table(self.field, self.quiver, mats, dims, classes, classify, walk)
        self._subtables[c.key] = table
        return table

    def hall_number(self, L: IsoClass, M: IsoClass, N: IsoClass) -> int:
        if add_dim(M.grade, N.grade) != L.grade:
            return 0
        return self.sub_table(L).get((M.key, N.key), 0)

    def class_from_key(self, key) -> IsoClass:
        return IsoClass(self.engine_id, "ms", ms_dim_vector(key, self.r), key)


# ---------------------------------------------------------------------------
# Brute-force orbit engine
# ---------------------------------------------------------------------------

class _GradeData:
    __slots__ = ("classes", "orbit_of", "reps", "sizes")

    def __init__(self, classes, orbit_of, reps, sizes):
        self.classes = classes
        self.orbit_of = orbit_of
        self.reps = reps
        self.sizes = sizes


class BruteForceEngine:
    """Generic engine for a small quiver: full orbit partition of E_V.

    Points are flat tuples of field codes, the arrows' matrices row by
    row in arrow order; representatives are handed out as one matrix per
    arrow.  Orbits are found by closure under compiled generators of
    prod_i GL(V_i).  Each orbit's representative is its lexicographically
    least point, and orbits are indexed in the order of those points, so
    representatives and indices are deterministic.  With the nilpotent
    restriction the closure starts only from the nilpotent patterns'
    points (see _nilpotent_patterns), not from the whole variety.
    """

    def __init__(self, quiver: Quiver, q0: int, nilpotent: bool = False):
        self.quiver = quiver
        self.q0 = q0
        self.field = FieldSpec.from_order(q0)
        self.nilpotent = nilpotent
        if nilpotent and not quiver.is_cycle():
            raise ValueError("nilpotent restriction only supported for cyclic quivers")
        tag = "|nil" if nilpotent else ""
        self.engine_id = f"Q:{quiver.name}{tag}|q:{q0}"
        self._grades = {}
        self._generator_cache = {}
        self._subtables = {}
        self._point_classes = {}
        # basis products and coproducts, filled by hallcore
        self._products = {}
        self._coproducts = {}

    # -- enumeration -----------------------------------------------------------

    def _shapes(self, d):
        return [(d[h], d[t]) for (t, h) in self.quiver.arrows]

    def _entry_count(self, d):
        return sum(rows * cols for rows, cols in self._shapes(d))

    def _flatten(self, mats, d):
        """The flat code tuple of a point: each arrow's matrix row by row."""
        shapes = self._shapes(d)
        if len(mats) != len(shapes):
            raise ValueError("point does not belong to this engine's variety")
        flat = []
        for X, (rows, cols) in zip(mats, shapes):
            if len(X) != rows or any(len(row) != cols for row in X):
                raise ValueError("point does not belong to this engine's variety")
            for row in X:
                flat.extend(row)
        return tuple(flat)

    def _unflatten(self, flat, d):
        """The point of a flat code tuple as one matrix per arrow."""
        mats = []
        pos = 0
        for rows, cols in self._shapes(d):
            mats.append(tuple(flat[pos + r * cols: pos + (r + 1) * cols]
                              for r in range(rows)))
            pos += rows * cols
        return tuple(mats)

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
        """The points orbit closure starts from, each at least once.

        Without the nilpotent restriction this is every flat point in
        lexicographic order.  With it, the points supported on the
        nilpotent patterns: q^(n(n-1)/2) strictly upper-triangular seeds
        on the Jordan quiver instead of q^(n^2) points.
        """
        if not self.nilpotent:
            yield from product(range(self.q0), repeat=self._entry_count(d))
            return
        zero = [0] * self._entry_count(d)
        for pattern in self._nilpotent_patterns(d):
            for values in product(range(self.q0), repeat=len(pattern)):
                point = zero[:]
                for i, v in zip(pattern, values):
                    point[i] = v
                yield tuple(point)

    def group_order(self, d) -> int:
        out = 1
        for n in d:
            out *= gf.gl_order(self.field, n)
        return out

    def _generators(self, d):
        """gf.gl_generators of every GL(d_i), compiled to flat-index updates.

        A generator g differs from the identity in one entry g[k][l] = v
        and acts by X -> g X g^-1.  On an arrow whose head is the vertex
        that is "row k += v * row l" (row k *= v if k == l); on an arrow
        whose tail is the vertex, "column l -= v * column k" (column k
        *= 1/v if k == l).  A loop gets the row update first.  An update
        (dst, src, table) sets x[dst] = table[x[dst]][x[src]].
        Generators that move no entry are left out.  The tuple is built
        once per grade and shared, so callers only iterate it.
        """
        d = tuple(d)
        if d in self._generator_cache:
            return self._generator_cache[d]
        F = self.field
        add, sub, mul, inv = F.tables
        codes = range(self.q0)
        tables = {}

        def axpy(v):  # y, x -> y + v*x
            if ("axpy", v) not in tables:
                tables["axpy", v] = tuple(tuple(add[y][mul[v][x]] for x in codes)
                                          for y in codes)
            return tables["axpy", v]

        def scale(v):  # y -> v*y, with src == dst
            if ("scale", v) not in tables:
                tables["scale", v] = tuple((mul[v][y],) * self.q0 for y in codes)
            return tables["scale", v]

        blocks = self._blocks(d)
        gens = []
        for i, n in enumerate(d):
            for g in gf.gl_generators(F, n):
                k, l = next((k, l) for k in range(n) for l in range(n)
                            if g[k][l] != (k == l))
                v = g[k][l]
                updates = []
                for t, h, rows, cols, off in blocks:
                    if h == i:
                        table = scale(v) if k == l else axpy(v)
                        updates += [(off + k * cols + c, off + l * cols + c, table)
                                    for c in range(cols)]
                    if t == i:
                        table = scale(inv[v]) if k == l else axpy(sub[0][v])
                        updates += [(off + r * cols + l, off + r * cols + k, table)
                                    for r in range(rows)]
                if updates:
                    gens.append(tuple(updates))
        gens = self._generator_cache[d] = tuple(gens)
        return gens

    def _act(self, gen, x):
        y = list(x)
        for dst, src, table in gen:
            y[dst] = table[y[dst]][y[src]]
        return tuple(y)

    def grade_data(self, d) -> _GradeData:
        d = tuple(d)
        if d in self._grades:
            return self._grades[d]
        if sum(d) > BRUTE_TOTAL_DIM_CAP:
            raise UsageError(
                f"total dimension {sum(d)} exceeds the brute-force cap "
                f"{BRUTE_TOTAL_DIM_CAP}")
        if self._point_bound(d) > POINT_CAP:
            raise UsageError("representation variety exceeds the point cap")
        gens = self._generators(d)
        orbit_of = {}
        least = []
        sizes = []
        for point in self._iter_points(d):
            if point in orbit_of:
                continue
            idx = len(least)
            orbit_of[point] = idx
            queue = [point]
            low = point
            size = 1
            while queue:
                x = queue.pop()
                for gen in gens:
                    y = self._act(gen, x)
                    if y not in orbit_of:
                        orbit_of[y] = idx
                        size += 1
                        queue.append(y)
                        if y < low:
                            low = y
            least.append(low)
            sizes.append(size)
        # Index the orbits by their least points, as a lexicographic scan
        # of the whole variety meets them; a full scan is already in order.
        order = sorted(range(len(least)), key=least.__getitem__)
        if order != list(range(len(order))):
            rank = [0] * len(order)
            for new, old in enumerate(order):
                rank[old] = new
            orbit_of = {point: rank[idx] for point, idx in orbit_of.items()}
            least = [least[old] for old in order]
            sizes = [sizes[old] for old in order]
        reps = [self._unflatten(point, d) for point in least]
        classes = [IsoClass(self.engine_id, "orbit", d, i) for i in range(len(reps))]
        data = _GradeData(classes, orbit_of, reps, sizes)
        self._grades[d] = data
        return data

    def classes(self, d) -> list:
        return list(self.grade_data(d).classes)

    def class_of_point(self, mats, dims) -> IsoClass:
        data = self.grade_data(tuple(dims))
        idx = data.orbit_of.get(self._flatten(mats, dims))
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

        The stabilizer of the point is exactly the group of invertible
        endomorphisms, so when End(M) is small enough it is enumerated
        and its units counted; otherwise the orbit is closed explicitly
        and orbit-stabilizer gives the same number.
        """
        basis, _ = _hom_space_basis(self.field, self.quiver, mats, dims, mats, dims)
        h = len(basis)
        if self.q0 ** h <= 2 ** 13:
            return self._count_invertible_end(basis, dims)
        size = self._orbit_size_of_point(mats, tuple(dims))
        return self.group_order(dims) // size

    def _count_invertible_end(self, basis, dims) -> int:
        F = self.field
        nv = self.quiver.nv
        blocks = []
        for elem in basis:
            blocks.append([tuple(x for row in elem[i] for x in row)
                           for i in range(nv)])
        zero_flat = [tuple([0] * (dims[i] * dims[i])) for i in range(nv)]
        count = 0

        def invertible(flats):
            for i in range(nv):
                n = dims[i]
                if n and gf.mat_rank(F, tuple(
                        tuple(flats[i][r * n:(r + 1) * n]) for r in range(n))) != n:
                    return False
            return True

        def recurse(level, flats):
            nonlocal count
            if level == len(blocks):
                if invertible(flats):
                    count += 1
                return
            blk = blocks[level]
            for c in range(F.q):
                if c == 0:
                    recurse(level + 1, flats)
                else:
                    shifted = [tuple(F.add(a, F.mul(c, b)) for a, b in zip(flats[i], blk[i]))
                               for i in range(nv)]
                    recurse(level + 1, shifted)

        recurse(0, zero_flat)
        return count

    def _orbit_size_of_point(self, mats, d):
        gens = self._generators(d)
        point = self._flatten(mats, d)
        seen = {point}
        queue = [point]
        while queue:
            x = queue.pop()
            for gen in gens:
                y = self._act(gen, x)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > POINT_CAP:
                        raise UsageError("orbit closure exceeds the point cap")
                    queue.append(y)
        return len(seen)

    def hom_dim(self, c1: IsoClass, c2: IsoClass) -> int:
        m1, d1 = self.rep_point(c1)
        m2, d2 = self.rep_point(c2)
        basis, _ = _hom_space_basis(self.field, self.quiver, m1, d1, m2, d2)
        return len(basis)

    def dim_end(self, c: IsoClass) -> int:
        return self.hom_dim(c, c)

    # -- Hall numbers --------------------------------------------------------------

    def sub_table(self, c: IsoClass) -> dict:
        key = (c.grade, c.key)
        if key in self._subtables:
            return self._subtables[key]
        mats, dims = self.rep_point(c)
        table = _submodule_table(
            self.field, self.quiver, mats, dims, self._point_classes,
            lambda point: (point[1], self.class_of_point(*point).key), _product_walk)
        self._subtables[key] = table
        return table

    def hall_number(self, L: IsoClass, M: IsoClass, N: IsoClass) -> int:
        if add_dim(M.grade, N.grade) != L.grade:
            return 0
        return self.sub_table(L).get(((M.grade, M.key), (N.grade, N.key)), 0)

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


def kronecker_cap(q0: int) -> int:
    """The largest n for which the Kronecker classes at (n, n) are listed."""
    return 3 if q0 == 2 else 2


def kronecker_regular_classes(engine: BruteForceEngine, n: int) -> list:
    """All regular classes at dimension vector (n, n)."""
    if engine.quiver != kronecker_quiver():
        raise ValueError("engine is not a Kronecker engine")
    cap = kronecker_cap(engine.q0)
    if n > cap:
        raise UsageError(f"regular classification capped at n={cap} for q={engine.q0}")
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
