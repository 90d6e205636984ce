"""Constructors for the distinguished primitive elements and their verifiers.

Families covered: the classical partition-indexed primitives over the
Jordan quiver, the central elements and normalized primitives of the
nilpotent cyclic quiver, tube primitives on the Kronecker quiver, and
the difference elements that give a basis of the full primitive space.
"""

from __future__ import annotations

from fractions import Fraction

from . import repengine
from .coeffring import QPolynomial, v_power
from .hallcore import (
    HallElement,
    TensorElement,
    _acc,
    comultiply,
    green_form,
    in_span,
    is_primitive,
    multiply,
    one_d,
    one_reg,
    primitive_subspace,
    rank_of_elements,
)
from .partitions import Partition, a_lambda, a_lambda_factored, partitions_of, \
    phi_irreducible_count
from .repengine import (
    BruteForceEngine,
    NilpotentCyclicEngine,
    IsoClass,
    get_brute_engine,
    get_nilpotent_engine,
    is_regular_kronecker,
    kronecker_points,
    kronecker_quiver,
    kronecker_tube_class,
)
from .report import UsageError, VerificationReport, timed_report

__all__ = [
    "jordan_primitive_coeff",
    "p_jordan",
    "p_jordan_symbolic",
    "c_central",
    "x_element",
    "p_cyclic",
    "p_tube_homog",
    "kron_p0",
    "kron_pinf",
    "kron_pK2",
    "KroneckerTube",
    "kronecker_tube",
    "kronecker_tubes",
    "verify_xi_identity",
    "verify_aut_sum_identities",
    "verify_key_pairing",
    "central_family_check",
    "kernel_theorem_check",
    "difference_basis_check",
    "xi_partition_sum_value",
]

# ---------------------------------------------------------------------------
# Partition coefficient prod_{s=1}^{len-1} (1 - q^(s e))
# ---------------------------------------------------------------------------

def jordan_primitive_coeff(lam: Partition, e: int = 1) -> QPolynomial:
    """The coefficient of [I_lambda]: prod_{s=1}^{len(lambda)-1} (1 - q^(s e))."""
    out = QPolynomial.one()
    for s in range(1, lam.length()):
        out = out * QPolynomial({0: 1, s * e: -1})
    return out


def _jordan_class(engine: NilpotentCyclicEngine, lam: Partition) -> IsoClass:
    return engine.make_class(tuple(((0, part), mult)
                                   for part, mult in lam.exponential().items()))


def p_jordan(engine: NilpotentCyclicEngine, n: int) -> HallElement:
    """sum_{lambda |- n} prod_{s=1}^{len-1} (1 - q^s) [I_lambda] over nilpotent C1."""
    if engine.r != 1:
        raise ValueError("p_jordan lives over the Jordan quiver engine")
    if n < 1:
        raise ValueError("need n >= 1")
    terms = {}
    for lam in partitions_of(n):
        terms[_jordan_class(engine, lam)] = jordan_primitive_coeff(lam).evaluate(engine.q0)
    return HallElement(engine, terms)


def p_jordan_symbolic(n: int):
    """The same element with polynomial coefficients, as (partition, poly) pairs."""
    return [(lam, jordan_primitive_coeff(lam)) for lam in partitions_of(n)]


# ---------------------------------------------------------------------------
# Central elements and normalized primitives of the nilpotent cyclic quiver
# ---------------------------------------------------------------------------

def c_central(engine: NilpotentCyclicEngine, n: int) -> HallElement:
    """(-1)^n v^(-2rn) sum over square-free-socle classes at n*delta of
    (-1)^(dim End M) a_M [M]."""
    if engine.r < 2:
        raise UsageError("central elements are defined for r >= 2")
    if n < 0:
        raise ValueError("need n >= 0")
    cache = engine._primitive_caches.setdefault("central", {})
    if n in cache:
        return cache[n]
    if n == 0:
        out = HallElement.unit(engine)
        cache[0] = out
        return out
    r = engine.r
    grade = tuple(n for _ in range(r))
    sign = (-1) ** n
    scale = v_power(-2 * r * n, engine.q0)
    terms = {}
    for cls in engine.classes(grade):
        if any(m > 1 for m in engine.socle(cls)):
            continue
        coeff = sign * (-1) ** engine.dim_end(cls) * engine.aut_order(cls)
        terms[cls] = scale * coeff
    out = HallElement(engine, terms)
    cache[n] = out
    return out


def x_element(engine: NilpotentCyclicEngine, n: int) -> HallElement:
    """The inductive primitive x_n = n c_n - sum_{s=1}^{n-1} x_s c_{n-s},
    memoized per POINT_CAP: its products read submodule tables."""
    if n < 1:
        raise ValueError("need n >= 1")
    cache = engine._primitive_caches.setdefault("xelt", {})
    key = n, repengine.POINT_CAP
    if key in cache:
        return cache[key]
    out = c_central(engine, n).scale(n)
    for s in range(1, n):
        out = out - multiply(x_element(engine, s), c_central(engine, n - s))
    cache[key] = out
    return out


def p_cyclic(engine: NilpotentCyclicEngine, n: int) -> HallElement:
    """Normalized primitive: (v^(2rn-n)/(v^n - v^-n)) x_n = (q^(rn)/(q^n-1)) x_n.

    The coefficient of each indecomposable [S_i[rn]] is exactly 1.
    """
    if engine.r == 1:
        return p_jordan(engine, n)
    q0 = engine.q0
    scalar = Fraction(q0 ** (engine.r * n), q0 ** n - 1)
    return x_element(engine, n).scale(scalar)


# ---------------------------------------------------------------------------
# Tube primitives
# ---------------------------------------------------------------------------

def p_tube_homog(engine, e_deg: int, m: int, classes_by_partition) -> HallElement:
    """sum_{lambda |- m} prod_{s=1}^{len-1} (1 - q^(s e)) [I_lambda(x)].

    classes_by_partition must supply the class of I_lambda(x) for every
    partition of m; e_deg is the degree of the tube's point.
    """
    terms = {}
    for lam in partitions_of(m):
        key = lam.parts
        if key not in classes_by_partition:
            raise ValueError(f"missing tube class for partition {key}")
        terms[classes_by_partition[key]] = jordan_primitive_coeff(
            lam, e=e_deg).evaluate(engine.q0)
    return HallElement(engine, terms)


def kron_p0(engine: BruteForceEngine, n: int) -> HallElement:
    """Tube primitive at the point 0: matrix pairs (I, J_lambda)."""
    return tube_primitive(engine, kronecker_tube(engine, (0, 1), n), n)


def kron_pinf(engine: BruteForceEngine, n: int) -> HallElement:
    """Tube primitive at the point infinity: matrix pairs (J_lambda, I)."""
    return tube_primitive(engine, kronecker_tube(engine, None, n), n)


def kron_pK2(engine: BruteForceEngine, n: int) -> HallElement:
    """The difference of the 0 and infinity tube primitives; primitive for
    the full comultiplication of the Kronecker quiver."""
    return kron_p0(engine, n) - kron_pinf(engine, n)


# ---------------------------------------------------------------------------
# Kronecker tubes at the closed points of P^1
# ---------------------------------------------------------------------------

class KroneckerTube:
    """A homogeneous tube: its closed point (see kronecker_points), the
    point's degree, the quasi-simple class E_x = I_(1)(x), and the classes
    of the modules I_lambda(x) indexed by partitions."""

    __slots__ = ("point", "degree", "simple", "classes")

    def __init__(self, point, degree: int, simple: IsoClass, classes: dict):
        self.point = point
        self.degree = degree
        self.simple = simple
        self.classes = classes

    def __repr__(self):
        return f"KroneckerTube(deg={self.degree}, simple={self.simple.render()})"


def kronecker_tube(engine: BruteForceEngine, x, m: int) -> KroneckerTube:
    """The tube at the closed point x, with I_lambda(x) for every lambda |- m."""
    if engine.quiver != kronecker_quiver():
        raise ValueError("needs a Kronecker engine")
    if m < 1:
        raise UsageError("need m >= 1")
    degree = 1 if x is None else len(x) - 1
    classes = {lam.parts: kronecker_tube_class(engine, x, lam) for lam in partitions_of(m)}
    return KroneckerTube(x, degree, kronecker_tube_class(engine, x, Partition((1,))), classes)


def kronecker_tubes(engine: BruteForceEngine, n: int):
    """The tubes at the closed points x with deg(x) | n, with I_lambda(x)
    resolved for lambda |- n/deg(x).  Sorted by (degree, quasi-simple key)."""
    tubes = [kronecker_tube(engine, x, n // d)
             for d in range(1, n + 1) if n % d == 0
             for x in kronecker_points(engine.q0, d)]
    tubes.sort(key=lambda t: (t.degree, t.simple.sort_key()))
    return tubes


def tube_primitive(engine: BruteForceEngine, tube: KroneckerTube, m: int) -> HallElement:
    return p_tube_homog(engine, tube.degree, m, tube.classes)


# ---------------------------------------------------------------------------
# Identity verifiers
# ---------------------------------------------------------------------------
#
# Each side of the xi and autsum identities is a sum of terms
# c * q^k * prod_{j in js} (q^j - 1), held as (c, k, js) with js a list of
# exponents that may repeat.  The coefficient c is an int or itself a
# list of terms, so a factor common to a whole sum is applied once to
# it.  Two sides are compared as integers at q = X = 2^b.  The L1 norm
# of a term is at most ||c||_1 * 2^len(js), since ||q^j - 1||_1 = 2 and
# ||fg||_1 <= ||f||_1 ||g||_1, so B, the sum of these over both sides,
# bounds every coefficient of lhs - rhs.  With X > 2B, a nonzero integer
# polynomial whose coefficients all lie below X/2 in absolute value does
# not vanish at X (its leading term outweighs the rest), so lhs(X) ==
# rhs(X) proves lhs == rhs in Z[q].

def _jordan_coeff_factored(lam: Partition):
    """jordan_primitive_coeff(lam) = prod_{s < l(lam)} (1 - q^s) as
    (sign, [1, ..., l(lam) - 1]), meaning sign * prod_s (q^s - 1)."""
    length = lam.length()
    return (-1) ** (length - 1), list(range(1, length))


def _partition_sum_data(n: int):
    """The least common multiple D = q^E prod_{j in js} (q^j - 1) of the
    factored a_lambda over lambda |- n, as (E, js), and per lambda the
    cofactor D / a_lambda as (lambda, k, js)."""
    factored = [(lam, *a_lambda_factored(lam)) for lam in partitions_of(n)]
    E = max(e for _, e, _ in factored)
    C = {}
    for _, _, factors in factored:
        for j, c in factors.items():
            C[j] = max(C.get(j, 0), c)
    order = sorted(C)
    cofactors = [(lam, E - e, [j for j in order for _ in range(C[j] - factors.get(j, 0))])
                 for lam, e, factors in factored]
    return E, [j for j in order for _ in range(C[j])], cofactors


def _xi_terms(n: int):
    """Both sides of N (q^n - 1) = D, N = sum_lambda prod(1 - q^s) D / a_lambda."""
    E, D, cofactors = _partition_sum_data(n)
    N = []
    for lam, k, js in cofactors:
        sign, coeff = _jordan_coeff_factored(lam)
        N.append((sign, k, js + coeff))
    return [(N, 0, [n])], [(1, E, D)]


def _aut_sum_terms(n: int):
    """Both sides of N1 (q^n - 1) = n D, N1 = sum_lambda prod(1 - q^s)^2 D / a_lambda,
    and of N2 prod_{i<=n} (q^i - 1) = D q^(n(n-1)/2), N2 = sum_lambda D / a_lambda."""
    E, D, cofactors = _partition_sum_data(n)
    N1, N2 = [], []
    for lam, k, js in cofactors:
        _, coeff = _jordan_coeff_factored(lam)
        N1.append((1, k, js + coeff + coeff))
        N2.append((1, k, js))
    return (([(N1, 0, [n])], [(n, E, D)]),
            ([(N2, 0, list(range(1, n + 1)))], [(1, E + n * (n - 1) // 2, D)]))


def _l1_bound(terms) -> int:
    """An upper bound on the L1 norm of the sum of the terms."""
    return sum((_l1_bound(c) if isinstance(c, list) else abs(c)) << len(js)
               for c, _, js in terms)


def _value_at(terms, bits: int) -> int:
    """The sum of the terms at q = 2^bits, each factor q^j - 1 applied as a
    shift and a subtraction."""
    total = 0
    for c, k, js in terms:
        value = (_value_at(c, bits) if isinstance(c, list) else c) << (k * bits)
        for j in sorted(js):
            value = (value << (j * bits)) - value
        total += value
    return total


def _sides_agree(lhs, rhs) -> bool:
    """Whether the two sums are equal in Z[q], from one evaluation at
    q = 2^b > 2B, B = _l1_bound of both sides."""
    bits = (2 * _l1_bound(lhs + rhs)).bit_length()
    return _value_at(lhs, bits) == _value_at(rhs, bits)


def xi_partition_sum_value(n: int, q0) -> Fraction:
    """sum_{lambda |- n} prod(1 - q^s) / a_lambda(q) at a numeric q."""
    total = Fraction(0)
    for lam in partitions_of(n):
        total += jordan_primitive_coeff(lam).evaluate(q0) / a_lambda(lam, q0)
    return total


def verify_xi_identity(n: int) -> VerificationReport:
    """Proof in Z[q] of sum_{lambda |- n} prod(1-q^s)/a_lambda = 1/(q^n - 1),
    cleared to N (q^n - 1) = D over the common denominator D: both sides
    are compared as integers at q = 2^b, with b from the L1 bound above."""

    def run():
        return _sides_agree(*_xi_terms(n)), f"N*(q^{n}-1)", "common denominator", ""

    return timed_report("xi", {"n": n}, run)


def verify_aut_sum_identities(n: int) -> VerificationReport:
    """Two companion sums over partitions of n, proved in Z[q] as the xi
    identity is, one integer evaluation each:
    sum (prod(1-q^s))^2 / a_lambda = n/(q^n - 1) and
    sum 1/a_lambda = q^(n(n-1)/2) / prod_{i=1}^n (q^i - 1)."""

    def run():
        squared, plain = _aut_sum_terms(n)
        ok1 = _sides_agree(*squared)
        ok2 = _sides_agree(*plain)
        detail = "" if ok1 and ok2 else f"squared-sum: {ok1}, plain-sum: {ok2}"
        return ok1 and ok2, "both sums", "closed forms", detail

    return timed_report("autsum", {"n": n}, run)


def verify_key_pairing(r: int, n: int, q0: int) -> VerificationReport:
    """Green pairing of the normalized cyclic primitive against the full sum
    of classes at n*delta equals the partition sum, which equals 1/(q^n-1)."""

    def run():
        engine = get_nilpotent_engine(r, q0)
        p = p_cyclic(engine, n)
        one = one_d(engine, tuple(n for _ in range(r)))
        pairing = green_form(p, one)
        partition_sum = xi_partition_sum_value(n, q0)
        closed = Fraction(1, q0 ** n - 1)
        ok = pairing == partition_sum and pairing == closed
        return ok, pairing.render(), str(closed), ""

    return timed_report("pairing", {"r": r, "n": n, "q": q0}, run)


def central_family_check(r: int, n: int, q0: int) -> VerificationReport:
    """The central elements commute with every simple and satisfy
    Delta(c_n) = sum_s c_s ox c_{n-s}."""
    def run():
        engine = get_nilpotent_engine(r, q0)
        cn = c_central(engine, n)
        for i in range(r):
            si = HallElement.basis(engine, engine.simple(i))
            if multiply(cn, si) != multiply(si, cn):
                return False, f"c_{n}*[S_{i + 1}]", f"[S_{i + 1}]*c_{n}", "centrality failed"
        delta = comultiply(cn)
        expected = {}
        for s in range(n + 1):
            cs = c_central(engine, s)
            cns = c_central(engine, n - s)
            for A, ca in cs.terms.items():
                for B, cb in cns.terms.items():
                    _acc(expected, (A, B), ca * cb)
        ok = delta == TensorElement(engine, expected)
        return ok, "Delta(c_n)", "sum c_s ox c_(n-s)", ""

    return timed_report("central", {"r": r, "n": n, "q": q0}, run)


# ---------------------------------------------------------------------------
# The two main Kronecker statements
# ---------------------------------------------------------------------------

def kernel_theorem_check(n: int, q0: int) -> VerificationReport:
    """Full primitive space at (n,n) = kernel of z -> {z, 1^reg} on the
    regular primitive space, with the expected dimensions."""

    def run():
        engine = get_brute_engine(kronecker_quiver(), q0)
        d = (n, n)
        full = primitive_subspace(engine, d)
        reg_pred = lambda c: is_regular_kronecker(engine, c)
        regular = primitive_subspace(engine, d, predicate=reg_pred)
        reg_sum = one_reg(engine, n)
        pairings = [green_form(z, reg_sum) for z in regular]
        pivot = next((i for i, v in enumerate(pairings) if not v.is_zero()), None)
        if pivot is None:
            return False, "functional", "0", "regular integral functional vanished"
        kernel = []
        inv = pairings[pivot].inverse()
        for i, z in enumerate(regular):
            if i == pivot:
                continue
            kernel.append(z - regular[pivot].scale(pairings[i] * inv))

        expected_dim = sum(phi_irreducible_count(s, q0) for s in range(1, n + 1)
                           if n % s == 0)
        checks = {
            "dim_full": len(full) == expected_dim,
            "codim_one": len(regular) == len(full) + 1,
            "full_in_regular": all(in_span(regular, z) for z in full),
            "full_equals_kernel": (
                len(kernel) == len(full)
                and all(in_span(kernel, z) for z in full)
                and all(in_span(full, z) for z in kernel)),
            "annihilates": all(green_form(z, reg_sum).is_zero() for z in full),
        }
        ok = all(checks.values())
        detail = "" if ok else str({k: v for k, v in checks.items() if not v})
        return (ok, f"dim full={len(full)}, dim regular={len(regular)}",
                f"expected {expected_dim} and {expected_dim + 1}", detail)

    return timed_report("kernel", {"n": n, "q": q0}, run)


def difference_basis_check(n: int, q0: int) -> VerificationReport:
    """The differences p_m(x) - p_t(y) over tubes with t*deg(y) = n form a
    basis of the full primitive space at (n, n)."""

    def run():
        engine = get_brute_engine(kronecker_quiver(), q0)
        tubes = kronecker_tubes(engine, n)
        anchor = tubes[0]
        p_anchor = tube_primitive(engine, anchor, n // anchor.degree)
        diffs = []
        for tube in tubes:
            if tube is anchor:
                continue
            diffs.append(p_anchor - tube_primitive(engine, tube, n // tube.degree))
        full = primitive_subspace(engine, (n, n))
        checks = {
            "cardinality": len(diffs) == len(full),
            "all_primitive": all(is_primitive(x) for x in diffs),
            "independent": rank_of_elements(diffs) == len(diffs),
            "spans": all(in_span(diffs, z) for z in full),
        }
        ok = all(checks.values())
        detail = "" if ok else str({k: v for k, v in checks.items() if not v})
        return (ok, f"{len(diffs)} differences", f"dim {len(full)}", detail)

    return timed_report("basis", {"n": n, "q": q0}, run)
