"""Independent computations that the benchmark checks hallalg's outputs against.

Nothing here imports hallalg.  Each expected value comes from a closed
form (Macdonald's a_lambda, Gaussian binomials, |GL_n(F_q)|, the
Fine-Herstein count) or from a separate brute-force submodule count, so a
wrong engine answer cannot also make its own check pass.

Classes use hallalg's key format: a multisegment is a sorted tuple of
((top_vertex, length), multiplicity) with 0-based vertices, and a
partition lambda of the Jordan quiver C1 is the multisegment
((0, part), multiplicity) over its distinct parts.

Every check_* function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

# ---------------------------------------------------------------------------
# Partitions and multisegments
# ---------------------------------------------------------------------------


def partitions(n, max_part=None):
    """Partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def n_weight(parts):
    """n(lambda) = sum_i (i - 1) lambda_i."""
    return sum(i * p for i, p in enumerate(sorted(parts, reverse=True)))


def partition_key(parts):
    return tuple(sorted(((0, p), m) for p, m in Counter(parts).items()))


def key_partition(key):
    parts = []
    for (vertex, length), mult in key:
        if vertex != 0:
            raise ValueError(f"{key!r} is not a Jordan-quiver class")
        parts.extend([length] * mult)
    return tuple(sorted(parts, reverse=True))


def segment_dims(r, vertex, length):
    dims = [0] * r
    for t in range(length):
        dims[(vertex + t) % r] += 1
    return tuple(dims)


def key_dims(key, r):
    dims = [0] * r
    for (vertex, length), mult in key:
        for i, x in enumerate(segment_dims(r, vertex, length)):
            dims[i] += mult * x
    return tuple(dims)


def multisegments(r, d):
    """All nilpotent C_r classes with dimension vector d, as keys."""
    d = tuple(d)
    segs = [(v, l) for l in range(1, sum(d) + 1) for v in range(r)
            if all(a <= b for a, b in zip(segment_dims(r, v, l), d))]
    out = []

    def walk(idx, remaining, acc):
        if not any(remaining):
            out.append(tuple(sorted(acc)))
            return
        if idx == len(segs):
            return
        seg = segs[idx]
        sd = segment_dims(r, *seg)
        mult = 0
        rem = remaining
        while all(x >= 0 for x in rem):
            walk(idx + 1, rem, acc + ([(seg, mult)] if mult else []))
            mult += 1
            rem = tuple(a - b for a, b in zip(rem, sd))

    walk(0, d, [])
    return sorted(out)


def sub_grades(d):
    """Dimension vectors e with 0 <= e <= d componentwise."""
    return list(product(*(range(x + 1) for x in d)))


def render_multisegment(key):
    if not key:
        return "0"
    bits = []
    for (vertex, length), mult in key:
        seg = f"S{vertex + 1}[{length}]"
        bits.append(seg if mult == 1 else f"{mult}*{seg}")
    return "+".join(bits)


def render_partition(parts):
    return "(" + ",".join(str(p) for p in parts) + ")"


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def gauss_binom(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(n, q):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def macdonald_a(parts, q):
    """|Aut| of the nilpotent F_q[x]-module of type lambda.

    Macdonald, Symmetric Functions and Hall Polynomials, II (1.6):
    a_lambda(q) = q^(|lambda| + 2 n(lambda)) prod_i phi_{m_i}(1/q), with
    phi_m(t) = (1 - t)(1 - t^2)...(1 - t^m) and m_i the multiplicities.
    """
    value = Fraction(q) ** (sum(parts) + 2 * n_weight(parts))
    for mult in Counter(parts).values():
        for j in range(1, mult + 1):
            value *= 1 - Fraction(1, q ** j)
    if value.denominator != 1:
        raise ArithmeticError(f"a_lambda({parts}) at q={q} is not an integer")
    return int(value)


def segment_hom_dim(r, seg1, seg2):
    """dim Hom(S_i[l], S_j[m]) for nilpotent C_r uniserials.

    A map is fixed by the image of the top of S_i[l]: a vector at vertex
    i of S_j[m] killed by paths of length l.  Position p of S_j[m] (from
    the top, 1-based) sits at vertex j + p - 1 and is killed by length-l
    paths exactly when p > m - l.
    """
    (i, l), (j, m) = seg1, seg2
    return sum(1 for p in range(max(1, m - l + 1), m + 1) if (j + p - 1 - i) % r == 0)


def multisegment_aut(key, r, q):
    """|Aut M| = q^(dim End M - sum m_c^2) prod_c |GL_{m_c}(F_q)|."""
    dim_end = sum(m1 * m2 * segment_hom_dim(r, s1, s2)
                  for s1, m1 in key for s2, m2 in key)
    out = q ** (dim_end - sum(m * m for _, m in key))
    for _, m in key:
        out *= gl_order(m, q)
    return out


def class_aut(key, r, q):
    """Automorphism order: Macdonald's closed form on C1, Hom counts on C_r."""
    return macdonald_a(key_partition(key), q) if r == 1 else multisegment_aut(key, r, q)


def cyclic_euler(r, x, y):
    """Euler form of C_r: sum_i x_i y_i - sum over arrows i -> i+1 of x_i y_(i+1)."""
    return sum(a * b for a, b in zip(x, y)) - sum(x[i] * y[(i + 1) % r] for i in range(r))


# ---------------------------------------------------------------------------
# Brute-force Hall numbers of the Jordan quiver over a prime field
# ---------------------------------------------------------------------------


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rref_subspaces(n, p):
    """Every subspace of F_p^n as (basis rows, pivot columns) in RREF."""
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n)
                    if c not in pivots]
            for values in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, c), x in zip(free, values):
                    rows[i][c] = x
                yield rows, pivots


def _type_from_ranks(ranks):
    """Jordan type from dims of J^k W for k = 0, 1, ...: parts >= k count
    ranks[k-1] - ranks[k]."""
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    parts = []
    for k, count in enumerate(at_least, start=1):
        more = at_least[k] if k < len(at_least) else 0
        parts.extend([k] * (count - more))
    return tuple(sorted(parts, reverse=True))


def jordan_hall_table(parts, p):
    """{(quotient key, sub key): count} for the Jordan module of type parts.

    Enumerates every subspace of F_p^n, keeps those stable under the
    nilpotent Jordan matrix J, and reads the Jordan types of J on the
    subspace and on the quotient from the ranks of J^k.
    """
    n = sum(parts)
    nxt = [None] * n  # J e_k = e_(k+1) inside a block, 0 at a block's end
    start = 0
    for part in parts:
        for t in range(part - 1):
            nxt[start + t] = start + t + 1
        start += part

    def apply(v):
        w = [0] * n
        for k, x in enumerate(v):
            if x and nxt[k] is not None:
                w[nxt[k]] = x
        return w

    def powers(vectors):
        out = [list(vectors)]
        while any(any(v) for v in out[-1]):
            out.append([apply(v) for v in out[-1]])
        return out

    whole = powers([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    table = Counter()
    for rows, pivots in _rref_subspaces(n, p):
        stable = True
        for u in rows:
            w = apply(u)
            for row, c in zip(rows, pivots):
                f = w[c]
                if f:
                    w = [(a - f * b) % p for a, b in zip(w, row)]
            if any(w):
                stable = False
                break
        if not stable:
            continue
        k = len(rows)
        sub_ranks = [_rank_mod_p(level, p) if level else 0 for level in powers(rows)]
        quot_ranks = [_rank_mod_p(level + rows, p) - k if level + rows else 0
                      for level in whole]
        sub_ranks.append(0)
        quot_ranks.append(0)
        key = (partition_key(_type_from_ranks(quot_ranks)),
               partition_key(_type_from_ranks(sub_ranks)))
        table[key] += 1
    return dict(table)


# ---------------------------------------------------------------------------
# Checks on submodule tables (hall_numbers, verify_suite spot checks)
# ---------------------------------------------------------------------------


def check_riedtmann(r, q, d, tables):
    """Riedtmann summed over L: sum_L F^L_{M,N} a_M a_N / a_L = q^(-<dim M, dim N>).

    tables maps every class L of dimension vector d to its submodule
    table {(M, N): F^L_{M,N}}; the identity is tested for every pair of
    classes M, N with dim M + dim N = d.
    """
    problems = []
    expected_classes = set(multisegments(r, d))
    if set(tables) != expected_classes:
        problems.append(f"C{r} q={q} d={d}: classes {sorted(tables)} != {sorted(expected_classes)}")
        return problems
    sums = Counter()
    for L, table in tables.items():
        aL = class_aut(L, r, q)
        for (M, N), count in table.items():
            sums[(M, N)] += Fraction(count * class_aut(M, r, q) * class_aut(N, r, q), aL)
    seen = set()
    for e in sub_grades(d):
        rest = tuple(a - b for a, b in zip(d, e))
        for M in multisegments(r, rest):
            for N in multisegments(r, e):
                seen.add((M, N))
                want = Fraction(q) ** (-cyclic_euler(r, rest, e))
                if sums[(M, N)] != want:
                    problems.append(f"C{r} q={q} d={d}: Riedtmann sum for M={M} N={N} "
                                    f"is {sums[(M, N)]}, expected {want}")
    for pair in set(sums) - seen:
        problems.append(f"C{r} q={q} d={d}: table entry {pair} has the wrong dimensions")
    return problems


def semisimple_table(r, q, L):
    """Expected table of a semisimple L: every subspace tuple is a submodule."""
    dims = key_dims(L, r)
    out = {}
    for e in sub_grades(dims):
        count = 1
        for a, b in zip(dims, e):
            count *= gauss_binom(a, b, q)
        quot = tuple(((i, 1), a - b) for i, (a, b) in enumerate(zip(dims, e)) if a - b)
        sub = tuple(((i, 1), b) for i, b in enumerate(e) if b)
        out[(quot, sub)] = count
    return out


def check_semisimple(r, q, L, table):
    if any(length != 1 for (_, length), _ in L):
        return []
    want = semisimple_table(r, q, L)
    if dict(table) != want:
        return [f"C{r} q={q} semisimple L={L}: table {dict(table)} != Gaussian binomials {want}"]
    return []


def check_symmetry(q, L, table):
    """On C1, F^lambda_{mu,nu} = F^lambda_{nu,mu}."""
    bad = [(M, N) for (M, N), c in table.items() if table.get((N, M), 0) != c]
    if bad:
        return [f"C1 q={q} L={L}: F^L_(M,N) != F^L_(N,M) for {bad[:3]}"]
    return []


def check_hall_polynomial(label, coeffs, degree, q_check, exact):
    """Degree n(lambda) - n(mu) - n(nu), and the fit reproduces an unused sample."""
    problems = []
    got_degree = max(coeffs) if coeffs else -1
    if got_degree != degree:
        problems.append(f"{label}: degree {got_degree}, expected {degree}")
    value = sum(Fraction(c) * q_check ** k for k, c in coeffs.items())
    if value != exact:
        problems.append(f"{label}: polynomial gives {value} at q={q_check}, exact count is {exact}")
    return problems


# ---------------------------------------------------------------------------
# Checks on isoclass tables (classify)
# ---------------------------------------------------------------------------


def variety_dim(arrows, d):
    return sum(d[t] * d[h] for t, h in arrows)


def check_mass(label, q, d, arrows, rows):
    """Orbit-stabilizer on every row and the mass formula sum |G_d|/a_M = q^(dim E_d).

    rows are (aut, orbit_size) pairs, one per class.
    """
    problems = []
    group = 1
    for n in d:
        group *= gl_order(n, q)
    for aut, size in rows:
        if aut * size != group:
            problems.append(f"{label}: aut {aut} * orbit {size} != |G_d| {group}")
    mass = sum(Fraction(group, aut) for aut, _ in rows)
    want = q ** variety_dim(arrows, d)
    if mass != want:
        problems.append(f"{label}: sum |G_d|/a_M = {mass}, expected q^dim E_d = {want}")
    return problems


def check_fine_herstein(label, q, n, rows):
    """Nilpotent n x n matrices: sum |GL_n|/a_M = q^(n^2 - n) (Fine-Herstein)."""
    problems = []
    group = gl_order(n, q)
    for aut, size in rows:
        if aut * size != group:
            problems.append(f"{label}: aut {aut} * orbit {size} != |GL_n| {group}")
    mass = sum(Fraction(group, aut) for aut, _ in rows)
    if mass != q ** (n * n - n):
        problems.append(f"{label}: nilpotent mass {mass}, expected {q ** (n * n - n)}")
    if sorted(rows) != sorted((macdonald_a(lam, q), group // macdonald_a(lam, q))
                              for lam in partitions(n)):
        problems.append(f"{label}: class automorphism orders differ from Macdonald's a_lambda")
    return problems


def check_identical(label, cold, warm):
    if cold != warm:
        return [f"{label}: warm output differs from cold output"]
    return []
