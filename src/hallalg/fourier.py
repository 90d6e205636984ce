"""Fourier transforms between Hall algebras of quivers differing by arrow
reversal, built on the function-space model.

Elements of the Hall algebra are identified with invariant functions on
the representation variety (the basis class [M] is the characteristic
function of its orbit).  Reversing a subset E of arrows transforms such
a function through the additive-character kernel

    f^(x, y') = q^(-dim Y/2) sum_{y in Y} f(x, y) psi(sum_E tr(C D)),

which is an algebra isomorphism onto the Hall algebra of the reversed
quiver.  Values live in Q(zeta_p)(sqrt(q0)).

One walk of the fiber over a target point serves every source class of
the grade: it counts, per source orbit, the fiber points on each trace
value of the pairing.  transform_grade gives Phi([M]) for all classes M
of a grade from one walk per target orbit (two for an orbit of size > 1,
as an invariance check), fourier_transform sums f_M Phi([M]) over those
images, and transform_value_at_point reads one walk.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod

from . import gf
from .coeffring import CycloSqrt, SqrtExt, quantum_factorial, v_power
from .gf import FieldSpec
from .hallcore import HallElement, in_span, multiply, primitive_subspace
from .primitives import kron_pK2, xi_partition_sum_value
from .repengine import (
    POINT_CAP,
    BruteForceEngine,
    Quiver,
    a2_quiver,
    cyclic_quiver,
    get_brute_engine,
    kronecker_quiver,
)
from .report import InternalCheckError, UsageError, VerificationReport, timed_report

__all__ = [
    "ReversalSpec",
    "a2_reversal",
    "kronecker_to_c2",
    "fourier_transform",
    "transform_grade",
    "transform_value_at_point",
    "check_homomorphism",
    "gl_character_sum",
    "verify_lemma62_route",
    "divided_power_check",
    "a2_image_check",
    "double_transform_check",
    "transform_primitive_check",
]

class ReversalSpec:
    """Source quiver, subset of arrows to reverse, and the derived target."""

    __slots__ = ("source", "reversed_indices", "target")

    def __init__(self, source: Quiver, reversed_indices, target: Quiver = None):
        self.source = source
        self.reversed_indices = tuple(sorted(set(reversed_indices)))
        for i in self.reversed_indices:
            if not 0 <= i < len(source.arrows):
                raise ValueError("reversed arrow index out of range")
        derived = source.reverse_arrows(self.reversed_indices)
        if target is None:
            target = derived
        elif target.arrows != derived.arrows or target.nv != derived.nv:
            raise ValueError("target quiver does not match the reversal")
        self.target = target


def a2_reversal() -> ReversalSpec:
    """A2 with its single arrow reversed."""
    src = a2_quiver()
    return ReversalSpec(src, [0], Quiver(2, [(1, 0)], name="A2r"))


def kronecker_to_c2() -> ReversalSpec:
    """Kronecker quiver with the second arrow reversed, giving the 2-cycle."""
    return ReversalSpec(kronecker_quiver(), [1], cyclic_quiver(2))


# ---------------------------------------------------------------------------
# The transform
# ---------------------------------------------------------------------------

def _zeta_coords(counts, sign: int) -> tuple:
    """Integer power-basis coordinates of sum_t counts[t] zeta_p^(sign t), with
    p = len(counts), by zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    p = len(counts)
    m = [0] * p
    for t, n in enumerate(counts):
        m[sign * t % p] += n
    return tuple(x - m[-1] for x in m[:-1])


def _cyclo(coords, scale: SqrtExt) -> CycloSqrt:
    """The value scale * sum_k coords[k] zeta^k."""
    return CycloSqrt(len(coords) + 1, scale.base, [c * scale for c in coords])


def _fiber_walk(spec: ReversalSpec, src_engine: BruteForceEngine, point, grade,
                conjugate: bool):
    """(column, v^(-dim Y)) from one walk of the fiber over a target point.

    The column maps each source orbit M with Phi([M])(point) != 0 to the
    integer coordinates c with Phi([M])(point) = v^(-dim Y) sum_k c_k zeta^k.
    The fixed entries x are packed once with zeros in the y slots, and each
    y, in the order of product(range(q), repeat=dim Y), is ORed into it from
    the engine's packed y parts.  The pairing sum_E tr(C D) is a dot product
    of y with weights read once from y', and its trace t in F_p comes from
    the field's trace list.  Per source orbit the walk counts the fiber
    points n_t on each t, and the value is v^(-dim Y) sum_t n_t psi(t).
    """
    F = src_engine.field
    q0 = src_engine.q0
    rev_set = set(spec.reversed_indices)
    arrows = spec.source.arrows
    d = tuple(grade)
    dim_y = sum(d[t] * d[h] for i, (t, h) in enumerate(arrows) if i in rev_set)
    if q0 ** dim_y > POINT_CAP:
        raise UsageError(f"fiber too large for the transform: {q0}^{dim_y} points "
                         "exceed the point cap")
    if len(point) != len(arrows):
        raise ValueError("point does not belong to the target variety")

    # the source point with zeros in the y slots, its y coordinates, and y' weights
    mats = []
    y_coords = []
    weights = []
    pos = 0
    for i, ((t, h), X) in enumerate(zip(arrows, point)):
        rows, cols = d[h], d[t]
        reversed_arrow = i in rev_set
        shape = (cols, rows) if reversed_arrow else (rows, cols)
        if len(X) != shape[0] or any(len(row) != shape[1] for row in X):
            raise ValueError("point does not belong to the target variety")
        if reversed_arrow:
            y_coords += range(pos, pos + rows * cols)
            weights += [X[c][r] for r in range(rows) for c in range(cols)]
            mats.append(((0,) * cols,) * rows)
        else:
            mats.append(X)
        pos += rows * cols
    base = src_engine._pack(mats, d)

    # pairing code of every y, in the order product() yields them
    add, _, mul, _ = F.tables
    codes = [0]
    for w in weights:
        codes = [add[c][wy] for c in codes for wy in mul[w]]

    # the packed y parts come in the same order as the codes
    orbits = map(src_engine.grade_data(d).orbit_of.get,
                 map(base.__or__, src_engine._fill(d, y_coords)))
    counts = {}
    for (orbit, t), n in Counter(zip(orbits, map(F.traces.__getitem__, codes))).items():
        if orbit is not None:
            counts.setdefault(orbit, [0] * F.p)[t] = n
    sign = -1 if conjugate else 1
    column = {orbit: _zeta_coords(n, sign) for orbit, n in counts.items()}
    return {orbit: c for orbit, c in column.items() if any(c)}, v_power(-dim_y, q0)


def _check_engines(spec: ReversalSpec, src_engine, tgt_engine=None, f=None):
    """ValueError unless the engines sit on the reversal's source and target
    at one q, and f is a function on the source engine."""
    if src_engine.quiver != spec.source:
        raise ValueError("the source engine is not on the reversal's source quiver")
    if tgt_engine is not None and (tgt_engine.quiver != spec.target
                                   or tgt_engine.q0 != src_engine.q0):
        raise ValueError("the target engine is not on the reversal's target quiver "
                         "at the source engine's q")
    if f is not None and f.engine.engine_id != src_engine.engine_id:
        raise ValueError("the function does not belong to the source engine")


def transform_value_at_point(f: HallElement, spec: ReversalSpec,
                             src_engine: BruteForceEngine, point, grade,
                             conjugate: bool = False) -> CycloSqrt:
    """Value of the transformed function at one explicit target point:
    sum_M f_M Phi([M])(point), read from one walk of the point's fiber."""
    _check_engines(spec, src_engine, f=f)
    column, scale = _fiber_walk(spec, src_engine, point, grade, conjugate)
    return sum((coeff * _cyclo(column[cls.key], scale)
                for cls, coeff in f.terms.items() if cls.key in column),
               CycloSqrt.zero(src_engine.field.p, scale.base))


def transform_grade(spec: ReversalSpec, src_engine: BruteForceEngine,
                    tgt_engine: BruteForceEngine, grade,
                    conjugate: bool = False) -> dict:
    """Phi([M]) for every source class M of the grade, as {M: HallElement}.

    The fiber of each target representative is walked once for all classes,
    and once more at a second point of every orbit of size > 1, where the
    whole column of values must agree (InternalCheckError otherwise).
    """
    _check_engines(spec, src_engine, tgt_engine)
    tgt_data = tgt_engine.grade_data(grade)
    terms = {}  # source orbit -> {target class: value}
    for cls, rep, size in zip(tgt_data.classes, tgt_data.reps, tgt_data.sizes):
        column, scale = _fiber_walk(spec, src_engine, rep, grade, conjugate)
        if size > 1:
            other = _second_orbit_point(tgt_engine, rep, grade)
            if _fiber_walk(spec, src_engine, other, grade, conjugate)[0] != column:
                raise InternalCheckError(
                    "transformed function is not constant on an orbit")
        for orbit, coords in column.items():
            terms.setdefault(orbit, {})[cls] = _cyclo(coords, scale)
    return {M: HallElement(tgt_engine, terms.get(M.key))
            for M in src_engine.grade_data(grade).classes}


def _sum_images(f: HallElement, image_of, tgt_engine: BruteForceEngine) -> HallElement:
    """sum_M f_M image_of(M) over the terms of f."""
    return sum((image_of(cls).scale(coeff) for cls, coeff in f.terms.items()),
               HallElement.zero(tgt_engine))


def fourier_transform(f: HallElement, spec: ReversalSpec,
                      src_engine: BruteForceEngine, tgt_engine: BruteForceEngine,
                      conjugate: bool = False, grade=None) -> HallElement:
    """Transform a homogeneous Hall element into the reversed quiver's algebra.

    The output is sum_M f_M Phi([M]) over the images transform_grade gives
    for the grade, with its orbit check.  The zero function transforms to
    zero but needs an explicit grade.
    """
    _check_engines(spec, src_engine, tgt_engine, f)
    grade = f.grade() if f.terms else (tuple(grade) if grade is not None else None)
    if grade is None:
        raise ValueError("cannot transform the zero function without a grade")
    images = transform_grade(spec, src_engine, tgt_engine, grade, conjugate)
    return _sum_images(f, images.__getitem__, tgt_engine)


def _second_orbit_point(engine: BruteForceEngine, rep, grade):
    point = engine._pack(rep, grade)
    for other in engine._moves(grade, point):
        if other != point:
            return engine._unpack(other, grade)
    raise InternalCheckError("orbit of size > 1 with no moving generator")


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def check_homomorphism(spec: ReversalSpec, q0: int, grade_pairs) -> VerificationReport:
    """Phi(f * g) = Phi(f) * Phi(g) on all basis pairs at the given grades."""
    grade_pairs = [(tuple(d1), tuple(d2)) for d1, d2 in grade_pairs]

    def run():
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        transforms = {}  # grade -> {source class: its transform}

        def image(cls) -> HallElement:
            by_class = transforms.get(cls.grade)
            if by_class is None:
                by_class = transforms[cls.grade] = transform_grade(
                    spec, src, tgt, cls.grade)
            return by_class[cls]

        def phi(element: HallElement) -> HallElement:
            return _sum_images(element, image, tgt)

        checked = 0
        for d1, d2 in grade_pairs:
            for M in src.classes(d1):
                fM = HallElement.basis(src, M)
                phiM = phi(fM)
                for N in src.classes(d2):
                    fN = HallElement.basis(src, N)
                    lhs = phi(multiply(fM, fN))
                    rhs = multiply(phiM, phi(fN))
                    if lhs != rhs:
                        return (False, f"Phi([{M.render()}]*[{N.render()}])",
                                "product of transforms", "mismatch")
                    checked += 1
        return True, f"{checked} pairs", f"{checked} pairs", ""

    return timed_report(
        "fourier-hom",
        {"source": spec.source.name, "q": q0, "pairs": len(grade_pairs)},
        run)


def gl_character_sum(n: int, q: int) -> CycloSqrt:
    """sum over X in GL_n(F_q) of psi(tr X), exactly.  It walks all q^(n^2)
    matrices, refused past POINT_CAP; as 2^20 > POINT_CAP, n^2 is clipped at 20."""
    if q ** min(n * n, 20) > POINT_CAP:
        raise UsageError(f"the {q}^{n * n} matrices of M_{n}(F_{q}) exceed the point cap")
    F = FieldSpec.from_order(q)
    counts = [0] * F.p
    for flat in product(range(q), repeat=n * n):
        X = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if gf.mat_is_invertible(F, X):
            counts[F.traces[gf.mat_trace(F, X)]] += 1
    return _cyclo(_zeta_coords(counts, 1), SqrtExt.one(q))


def a2_image_check(q0: int) -> VerificationReport:
    """The transform of the projective cover class at (1,1) matches
    -v^-1 [P2'] + (v - v^-1) [S1'+S2'], and higher divided powers evaluate
    to (-1)^n v^-n on the opposite projective."""

    def run():
        spec = a2_reversal()
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        p1 = src.class_of_point((((1,),),), (1, 1))
        image = fourier_transform(HallElement.basis(src, p1), spec, src, tgt)
        p2_t = tgt.class_of_point((((1,),),), (1, 1))
        ss_t = tgt.class_of_point((((0,),),), (1, 1))
        expected = HallElement(tgt, {
            p2_t: -v_power(-1, q0),
            ss_t: v_power(1, q0) - v_power(-1, q0),
        })
        if image != expected:
            return False, image.render(), expected.render(), "image mismatch"
        # evaluations ([nP1])^ at [nP2'] for n <= 2
        for n in (1, 2):
            npoint_src = src.class_of_point((gf.mat_identity(n),), (n, n))
            np2_rep = (gf.mat_identity(n),)
            val = transform_value_at_point(
                HallElement.basis(src, npoint_src), spec, src, np2_rep, (n, n))
            want = v_power(-n, q0) * ((-1) ** n)
            if val != want:
                return False, val.render(), want.render(), f"divided power n={n}"
        return True, "transform image", "closed form", ""

    return timed_report("fourier-a2", {"q": q0}, run)


def double_transform_check(q0: int) -> VerificationReport:
    """Transforming forth and back (conjugate kernel) rescales every basis
    function at grades up to (1,1) by +1 or -1."""

    def run():
        spec = a2_reversal()
        back = ReversalSpec(spec.target, [0], spec.source)
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        for d in ((0, 1), (1, 0), (1, 1)):
            for cls in src.classes(d):
                f = HallElement.basis(src, cls)
                once = fourier_transform(f, spec, src, tgt)
                twice = fourier_transform(once, back, tgt, src, conjugate=True)
                if not (twice == f or twice == f.scale(-1)):
                    return (False, twice.render(), f.render(),
                            f"no +-1 rescaling at {cls.render()}")
        return True, "double transform", "+-1 rescaling", ""

    return timed_report("fourier-double", {"q": q0}, run)


def transform_primitive_check(q0: int) -> VerificationReport:
    """The transform of the Kronecker difference primitive at (1,1) is
    primitive in the full Hall algebra of the 2-cycle."""

    def run():
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        image = fourier_transform(kron_pK2(src, 1), spec, src, tgt)
        # membership in the primitive subspace, over the cyclotomic scalars
        ok = in_span(primitive_subspace(tgt, (1, 1)), image)
        return ok, "transformed primitive", "primitive subspace", ""

    return timed_report("fourier-prim", {"q": q0}, run)


def verify_lemma62_route(n: int, q0: int) -> VerificationReport:
    """Evaluate the transformed difference primitive at the two extreme
    nilpotent classes of the 2-cycle and match the closed product formulas."""

    def run():
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, q0)
        p = kron_pK2(src, n)
        grade = (n, n)
        ident = gf.mat_identity(n)
        zmat = gf.mat_zero(n, n)
        m1_point = (ident, zmat)   # n copies of the length-2 segment with top S1
        m2_point = (zmat, ident)   # n copies of the length-2 segment with top S2
        val1 = transform_value_at_point(p, spec, src, m1_point, grade)
        val2 = transform_value_at_point(p, spec, src, m2_point, grade)

        scale = v_power(-n * n, q0)
        prod_tail = prod(q0 ** n - q0 ** i for i in range(1, n))
        prod_full = (q0 ** n - 1) * prod_tail
        expected1 = scale * (prod_full * xi_partition_sum_value(n, q0))
        expected2 = scale * prod_tail
        ok = val1 == expected1 and val2 == expected2 and val1 == val2
        return (ok, f"{val1.render()} / {val2.render()}",
                f"{expected1.render()} / {expected2.render()}", "")

    return timed_report("fourier-lemma", {"n": n, "q": q0}, run)


def divided_power_check(n: int, q0: int) -> VerificationReport:
    """[n P1] = v^(-n(n-1)) / [n]! * [P1]^n in the A2 Hall algebra."""

    def run():
        engine = get_brute_engine(a2_quiver(), q0)
        # the (n, n) class first, so a cap refuses it before any product
        np1 = HallElement.basis(engine, engine.class_of_point(
            (gf.mat_identity(n),), (n, n)))
        p1 = HallElement.basis(engine, engine.class_of_point((((1,),),), (1, 1)))
        power = p1
        for _ in range(n - 1):
            power = multiply(power, p1)
        fact = quantum_factorial(n, q0)
        scaled = power.scale(v_power(-n * (n - 1), q0) / fact)
        ok = scaled == np1
        return ok, scaled.render(), np1.render(), ""

    return timed_report("fourier-divided", {"n": n, "q": q0}, run)
