from fractions import Fraction
from itertools import product

import pytest

from hallalg import fourier, gf, repengine
from hallalg.coeffring import CycloSqrt, SqrtExt, v_power
from hallalg.fourier import (
    ReversalSpec,
    a2_image_check,
    a2_reversal,
    check_homomorphism,
    divided_power_check,
    double_transform_check,
    fourier_transform,
    gl_character_sum,
    kronecker_to_c2,
    transform_grade,
    transform_primitive_check,
    transform_value_at_point,
    verify_lemma62_route,
)
from hallalg.hallcore import HallElement, is_primitive, multiply
from hallalg.primitives import kron_pK2
from hallalg.repengine import (
    POINT_CAP,
    BruteForceEngine,
    cyclic_quiver,
    get_brute_engine,
    kronecker_quiver,
)
from hallalg.report import InternalCheckError, UsageError


class TestReversalSpec:
    def test_a2(self):
        spec = a2_reversal()
        assert spec.source.arrows == ((0, 1),)
        assert spec.target.arrows == ((1, 0),)

    def test_kronecker_to_c2(self):
        spec = kronecker_to_c2()
        assert spec.source.arrows == ((0, 1), (0, 1))
        assert spec.target.arrows == cyclic_quiver(2).arrows

    def test_target_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReversalSpec(kronecker_quiver(), [0], cyclic_quiver(2))


class TestTransformBasics:
    def test_zero_function(self):
        spec = a2_reversal()
        src = get_brute_engine(spec.source, 2)
        tgt = get_brute_engine(spec.target, 2)
        out = fourier_transform(HallElement.zero(src), spec, src, tgt, grade=(1, 1))
        assert out.is_zero()

    @pytest.mark.parametrize("q0", (2, 3))
    def test_a2_projective_image(self, q0):
        # Phi([P1]) = -v^-1 [P2'] + (v - v^-1) [S1'+S2']
        spec = a2_reversal()
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        p1 = src.class_of_point((((1,),),), (1, 1))
        out = fourier_transform(HallElement.basis(src, p1), spec, src, tgt)
        p2t = tgt.class_of_point((((1,),),), (1, 1))
        sst = tgt.class_of_point((((0,),),), (1, 1))
        assert out.coefficient(p2t) == -v_power(-1, q0)
        assert out.coefficient(sst) == v_power(1, q0) - v_power(-1, q0)
        assert len(out.terms) == 2

    def test_simples_fixed(self):
        spec = a2_reversal()
        src = get_brute_engine(spec.source, 2)
        tgt = get_brute_engine(spec.target, 2)
        for d in ((1, 0), (0, 1)):
            cls = src.classes(d)[0]
            out = fourier_transform(HallElement.basis(src, cls), spec, src, tgt)
            assert len(out.terms) == 1
            ((tcls, coeff),) = out.terms.items()
            assert tcls.grade == d
            assert coeff == CycloSqrt.one(2, 2)

    def test_invariance_is_checked(self):
        # sampling a second orbit point is part of the transform contract;
        # on honest input it passes for every grade we use
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, 3)
        tgt = get_brute_engine(spec.target, 3)
        f = HallElement.basis(src, src.classes((1, 1))[2])
        out = fourier_transform(f, spec, src, tgt)
        assert not out.is_zero()

    def test_invariance_check_catches_a_point_of_another_orbit(self, monkeypatch):
        """A second point from a different orbit gives a different column (the
        transform is invertible), so both transforms must refuse it.  Fresh
        engines, so no memoized transform of the grade answers first."""
        spec = kronecker_to_c2()
        src = BruteForceEngine(spec.source, 3)
        tgt = BruteForceEngine(spec.target, 3)
        d = (1, 1)
        reps = tgt.grade_data(d).reps

        def point_of_another_orbit(engine, rep, grade):
            return next(other for other in reps if other != rep)

        monkeypatch.setattr(fourier, "_second_orbit_point", point_of_another_orbit)
        with pytest.raises(InternalCheckError, match="not constant on an orbit"):
            transform_grade(spec, src, tgt, d)
        f = HallElement.basis(src, src.classes(d)[2])
        with pytest.raises(InternalCheckError, match="not constant on an orbit"):
            fourier_transform(f, spec, src, tgt)

    def test_function_of_another_engine_is_refused(self):
        """A C2 basis element passed as a K2 function used to be transformed
        as if its orbit index named a K2 orbit."""
        spec = kronecker_to_c2()
        k2 = get_brute_engine(spec.source, 2)
        c2 = get_brute_engine(spec.target, 2)
        f = HallElement.basis(c2, c2.classes((1, 1))[0])
        with pytest.raises(ValueError, match="source engine"):
            fourier_transform(f, spec, k2, c2)
        with pytest.raises(ValueError, match="source engine"):
            transform_value_at_point(f, spec, k2, c2.grade_data((1, 1)).reps[0], (1, 1))

    def test_engines_off_the_reversal_are_refused(self):
        spec = kronecker_to_c2()
        k2, c2 = get_brute_engine(spec.source, 2), get_brute_engine(spec.target, 2)
        f = HallElement.basis(k2, k2.classes((1, 1))[0])
        c2_q3 = get_brute_engine(spec.target, 3)
        with pytest.raises(ValueError, match="target engine"):
            fourier_transform(f, spec, k2, c2_q3)
        with pytest.raises(ValueError, match="target engine"):
            transform_grade(spec, k2, c2_q3, (1, 1))
        with pytest.raises(ValueError, match="target engine"):
            transform_grade(spec, k2, k2, (1, 1))
        g = HallElement.basis(c2, c2.classes((1, 1))[0])
        with pytest.raises(ValueError, match="source engine"):
            fourier_transform(g, spec, c2, c2)
        with pytest.raises(ValueError, match="source engine"):
            transform_value_at_point(g, spec, c2, ((((0,),),) * 2), (1, 1))

    def test_divided_power_evaluations(self):
        # ([nP1])^ evaluated at [nP2'] is (-1)^n v^-n
        spec = a2_reversal()
        for q0 in (2, 3):
            src = get_brute_engine(spec.source, q0)
            for n in (1, 2):
                np1 = src.class_of_point((gf.mat_identity(n),), (n, n))
                val = transform_value_at_point(
                    HallElement.basis(src, np1), spec, src,
                    (gf.mat_identity(n),), (n, n))
                assert val == v_power(-n, q0) * ((-1) ** n)


class TestTransformMemo:
    """transform_grade keeps its images on the target engine: a warm engine
    answers as a fresh one, and under another cap refuses what it does."""

    @staticmethod
    def _fresh(spec, q0):
        return BruteForceEngine(spec.source, q0), BruteForceEngine(spec.target, q0)

    @pytest.mark.parametrize("q0", (2, 3))
    @pytest.mark.parametrize("make_spec", (kronecker_to_c2, a2_reversal),
                             ids=("kronecker_to_c2", "a2_reversal"))
    def test_warm_engine_equals_a_fresh_engine(self, make_spec, q0):
        spec = make_spec()
        src, tgt = self._fresh(spec, q0)
        cells = [(d, conjugate) for conjugate in (False, True) for d in _BOX_GRADES]
        first = [transform_grade(spec, src, tgt, d, conjugate) for d, conjugate in cells]
        assert len(tgt._transforms) == len(cells)
        for (d, conjugate), images in zip(cells, first):
            fresh = transform_grade(spec, *self._fresh(spec, q0), d, conjugate)
            warm = transform_grade(spec, src, tgt, list(d), conjugate)
            assert warm == images == fresh and list(warm) == list(fresh), (d, conjugate)
        if make_spec is kronecker_to_c2 and q0 == 3:
            # the two kernels differ here, so a memo that ignored conjugate would show
            assert first[cells.index(((1, 1), False))] != first[cells.index(((1, 1), True))]

    def test_returned_dict_is_not_the_memo(self):
        spec = kronecker_to_c2()
        src, tgt = self._fresh(spec, 2)
        out = transform_grade(spec, src, tgt, (1, 1))
        kept = dict(out)
        (memo,) = tgt._transforms.values()
        assert out is not memo
        out.clear()
        again = transform_grade(spec, src, tgt, (1, 1))
        assert again == kept and again is not memo

    def test_a_call_that_raised_stores_nothing(self, monkeypatch):
        spec = kronecker_to_c2()
        src, tgt = self._fresh(spec, 3)
        reps = tgt.grade_data((1, 1)).reps
        monkeypatch.setattr(fourier, "_second_orbit_point",
                            lambda engine, rep, grade: next(r for r in reps if r != rep))
        with pytest.raises(InternalCheckError, match="not constant on an orbit"):
            transform_grade(spec, src, tgt, (1, 1))
        assert tgt._transforms == {}
        monkeypatch.undo()
        assert transform_grade(spec, src, tgt, (1, 1)) == \
            transform_grade(spec, *self._fresh(spec, 3), (1, 1))

    def test_memo_hit_past_the_fiber_cap_is_refused(self, monkeypatch):
        """(2, 2) on K2 -> C2 at q = 2 has 2^4 fiber points over 2^8 target
        points.  Under a cap of 15 a memoized grade raises what fresh
        engines raise, the target variety's refusal, which comes first;
        with the cap restored the memo answers again."""
        spec = kronecker_to_c2()
        src, tgt = self._fresh(spec, 2)
        images = transform_grade(spec, src, tgt, (2, 2))
        M = src.classes((2, 2))[0]
        monkeypatch.setattr(repengine, "POINT_CAP", 15)
        with pytest.raises(UsageError) as fresh:
            transform_grade(spec, *self._fresh(spec, 2), (2, 2))
        assert str(fresh.value) == "representation variety exceeds the point cap"
        with pytest.raises(UsageError, match=f"^{fresh.value}$"):
            transform_grade(spec, src, tgt, (2, 2))
        with pytest.raises(UsageError, match=f"^{fresh.value}$"):
            fourier_transform(HallElement.basis(src, M), spec, src, tgt)
        monkeypatch.undo()
        assert transform_grade(spec, src, tgt, (2, 2)) == images


# -- the flat fiber sum against the matrix-tuple loop it replaced -------------

def _reference_matrices(q, rows, cols):
    if rows * cols == 0:
        yield tuple(() for _ in range(rows))
        return
    for flat in product(range(q), repeat=rows * cols):
        yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))


def _reference_pairing_code(F, y_mats, yp_mats):
    """sum of tr(C D) over the reversed arrows, as sum_{i,j} C[i][j] D[j][i]."""
    s = 0
    for C, D in zip(y_mats, yp_mats):
        for i, row in enumerate(C):
            for j, c in enumerate(row):
                d = D[j][i]
                if c and d:
                    s = F.add(s, F.mul(c, d))
    return s


def reference_values_at_point(spec, src_engine, point, grade, conjugate=False):
    """{source orbit: Phi([M])(point)}, from one source point of matrix tuples
    and one psi value per fiber point."""
    F = src_engine.field
    q0 = src_engine.q0
    rev = spec.reversed_indices
    rev_set = set(rev)
    d = tuple(grade)
    dim_y = sum(d[t] * d[h] for i, (t, h) in enumerate(spec.source.arrows)
                if i in rev_set)
    sign = -1 if conjugate else 1
    orbit_of = src_engine.grade_data(d).orbit_of
    x_parts = {i: point[i] for i in range(len(spec.source.arrows)) if i not in rev_set}
    yp_mats = [point[i] for i in rev]
    y_shapes = [(d[h], d[t]) for i, (t, h) in enumerate(spec.source.arrows)
                if i in rev_set]
    totals = {}
    for y_choice in product(*[_reference_matrices(q0, r, c) for (r, c) in y_shapes]):
        src_point = []
        yi = 0
        for i in range(len(spec.source.arrows)):
            if i in rev_set:
                src_point.append(y_choice[yi])
                yi += 1
            else:
                src_point.append(x_parts[i])
        orbit = orbit_of.get(src_engine._pack(src_point, d))
        if orbit is None:
            continue
        code = _reference_pairing_code(F, y_choice, yp_mats)
        psi = CycloSqrt.zeta(F.p, q0, sign * gf.trace_to_prime(F, code))
        totals[orbit] = totals.get(orbit, CycloSqrt.zero(F.p, q0)) + psi
    return {orbit: total * v_power(-dim_y, q0) for orbit, total in totals.items()}


def reference_value_at_point(f, spec, src_engine, point, grade, conjugate=False):
    """sum_M f_M Phi([M])(point) from reference_values_at_point."""
    values = reference_values_at_point(spec, src_engine, point, grade, conjugate)
    total = CycloSqrt.zero(src_engine.field.p, src_engine.q0)
    for cls, coeff in f.terms.items():
        if cls.key in values:
            total = total + coeff * values[cls.key]
    return total


_BOX_GRADES = [(a, b) for a in range(3) for b in range(3)]


class TestFlatFiberSumAgainstMatrixLoop:
    @pytest.mark.parametrize("q0", (2, 3))
    @pytest.mark.parametrize("make_spec", (kronecker_to_c2, a2_reversal),
                             ids=("kronecker_to_c2", "a2_reversal"))
    def test_every_basis_class_at_every_target_rep(self, make_spec, q0):
        spec = make_spec()
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        compared = 0
        for d in _BOX_GRADES:
            dim_y = sum(d[t] * d[h] for i, (t, h) in enumerate(spec.source.arrows)
                        if i in spec.reversed_indices)
            if q0 ** dim_y > POINT_CAP:
                continue
            for rep in tgt.grade_data(d).reps:
                for conjugate in (False, True):
                    want = reference_values_at_point(spec, src, rep, d, conjugate)
                    for cls in src.classes(d):
                        f = HallElement.basis(src, cls)
                        got = transform_value_at_point(f, spec, src, rep, d, conjugate)
                        assert got == want.get(cls.key, 0), (cls.render(), rep, conjugate)
                        compared += 1
        assert compared > 40

    @pytest.mark.parametrize("conjugate", (False, True))
    @pytest.mark.parametrize("q0", (2, 3, 4, 5))
    @pytest.mark.parametrize("make_spec", (kronecker_to_c2, a2_reversal),
                             ids=("kronecker_to_c2", "a2_reversal"))
    def test_every_grade_column(self, make_spec, q0, conjugate):
        """transform_grade at every target class against the oracle; q=4 has a
        nontrivial trace (p=2, e=2), and at q=5 sqrt(5) lies in Q(zeta_5), where
        CycloSqrt coordinates are not unique."""
        spec = make_spec()
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        zero = CycloSqrt.zero(src.field.p, q0)
        compared = 0
        for d in _BOX_GRADES:
            dim_y = sum(d[t] * d[h] for i, (t, h) in enumerate(spec.source.arrows)
                        if i in spec.reversed_indices)
            if q0 ** dim_y > POINT_CAP:
                continue
            phis = transform_grade(spec, src, tgt, d, conjugate)
            assert list(phis) == src.classes(d)
            data = tgt.grade_data(d)
            for tgt_cls, rep in zip(data.classes, data.reps):
                want = reference_values_at_point(spec, src, rep, d, conjugate)
                for cls, phi in phis.items():
                    assert phi.terms.get(tgt_cls, zero) == want.get(cls.key, zero), \
                        (d, cls.render(), rep)
                    compared += 1
        assert compared > 25

    @pytest.mark.parametrize("q0", (2, 3))
    def test_mixed_coefficients(self, q0):
        # a combination of classes with different coefficients, summed per code
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        for n in (1, 2):
            f = kron_pK2(src, n)
            for rep in tgt.grade_data((n, n)).reps:
                for conjugate in (False, True):
                    assert (transform_value_at_point(f, spec, src, rep, (n, n), conjugate)
                            == reference_value_at_point(f, spec, src, rep, (n, n), conjugate))

    @pytest.mark.parametrize("conjugate", (False, True))
    @pytest.mark.parametrize("q0", (2, 3, 4, 5))
    @pytest.mark.parametrize("make_spec", (kronecker_to_c2, a2_reversal),
                             ids=("kronecker_to_c2", "a2_reversal"))
    def test_element_transform_at_every_target_rep(self, make_spec, q0, conjugate):
        """fourier_transform of multi-term functions against the oracle: the
        Kronecker difference primitives for n = 1, 2, and every class of (2,2)
        with its own coefficient k sqrt(q) (irrational unless q = 4)."""
        spec = make_spec()
        src = get_brute_engine(spec.source, q0)
        tgt = get_brute_engine(spec.target, q0)
        functions = [HallElement(src, {cls: SqrtExt(q0, 0, k)
                                       for k, cls in enumerate(src.classes((2, 2)), 1)})]
        if make_spec is kronecker_to_c2:
            functions += [kron_pK2(src, n) for n in (1, 2)]
        zero = CycloSqrt.zero(src.field.p, q0)
        compared = 0
        for f in functions:
            assert len(f.terms) > 1
            d = f.grade()
            image = fourier_transform(f, spec, src, tgt, conjugate)
            data = tgt.grade_data(d)
            for tgt_cls, rep in zip(data.classes, data.reps):
                want = reference_value_at_point(f, spec, src, rep, d, conjugate)
                assert image.terms.get(tgt_cls, zero) == want, (d, rep)
                compared += 1
        assert compared >= 3 * len(functions)

    @pytest.mark.parametrize("point", [
        (((1,),),),                      # one arrow short
        (((1,),), ((0,),), ((0,),)),     # one arrow too many
        (((1, 0),), ((0,),)),            # fixed entry x of the wrong shape
        (((1,),), ((0,), (1,))),         # reversed entry y' of the wrong shape
    ], ids=["short", "long", "bad-x", "bad-y'"])
    def test_wrong_shaped_point_raises(self, point):
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, 2)
        f = HallElement.basis(src, src.classes((1, 1))[0])
        with pytest.raises(ValueError):
            transform_value_at_point(f, spec, src, point, (1, 1))

    def test_fiber_cap(self):
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, 2)
        f = HallElement.zero(src)
        n = 5  # dim Y = 25: 2^25 fiber points
        point = (gf.mat_zero(n, n), gf.mat_zero(n, n))
        with pytest.raises(ValueError, match="fiber too large"):
            transform_value_at_point(f, spec, src, point, (n, n))

    def test_fiber_cap_is_a_usage_error(self):
        """5^9 fiber points at q=5, (3,3): past POINT_CAP, a refused request
        (exit 2 from the CLI), not an internal fault."""
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, 5)
        point = (gf.mat_zero(3, 3), gf.mat_zero(3, 3))
        with pytest.raises(UsageError, match="point cap"):
            transform_value_at_point(HallElement.zero(src), spec, src, point, (3, 3))


class TestCyclotomicCoefficients:
    """A transform's CycloSqrt coefficients compare with a function's
    SqrtExt coefficients by value, so double_transform_check compares the
    two directly."""

    @staticmethod
    def _root(p, q0):
        """sqrt(q0) as a CycloSqrt: at q0 = 5 the Gauss sum
        sum_a (a/5) zeta^a, elsewhere the embedded SqrtExt."""
        if q0 != 5:
            return CycloSqrt.from_scalar(p, q0, SqrtExt(q0, 0, 1))
        return sum((CycloSqrt.zeta(p, q0, a) * (1 if a in (1, 4) else -1)
                    for a in range(1, p)), CycloSqrt.zero(p, q0))

    @pytest.mark.parametrize("q0", (2, 3, 4, 5))
    def test_equal_values_are_equal_elements(self, q0):
        src = get_brute_engine(kronecker_quiver(), q0)
        p = src.field.p
        root = self._root(p, q0)
        classes = src.classes((1, 1))
        plain = HallElement(src, {cls: SqrtExt(q0, 0, k) for k, cls in enumerate(classes, 1)})
        cyclo = HallElement(src, {cls: root * k for k, cls in enumerate(classes, 1)})
        if q0 == 5:
            # sqrt(5) in Q(zeta_5): same value, other coordinates
            assert root.coords != CycloSqrt.from_scalar(p, q0, SqrtExt(q0, 0, 1)).coords
        assert cyclo == plain and plain == cyclo
        assert cyclo.scale(-1) == plain.scale(-1) and plain.scale(-1) == cyclo.scale(-1)
        assert cyclo != plain.scale(-1) and plain.scale(-1) != cyclo

        # each change is a rational times sqrt(q0), as the coefficients are
        changes = [v_power(3, q0), SqrtExt(q0, 0, Fraction(1, 2))]
        if p > 2:
            changes.append(CycloSqrt.zeta(p, q0) * v_power(1, q0))  # off Q(sqrt q)
        for change in changes:
            for cls in classes:
                terms = dict(cyclo.terms)
                terms[cls] = terms[cls] + change
                other = HallElement(src, terms)
                assert other != plain and plain != other, (change, cls.render())


class TestHomomorphism:
    @pytest.mark.parametrize("q0", (2, 3))
    def test_a2_unit_grades(self, q0):
        pairs = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 0))]
        rep = check_homomorphism(a2_reversal(), q0, pairs)
        assert rep.passed, rep.to_json()

    def test_k2_to_c2_delta_split(self):
        rep = check_homomorphism(kronecker_to_c2(), 2,
                                 [((1, 0), (0, 1)), ((0, 1), (1, 0))])
        assert rep.passed, rep.to_json()

    def test_k2_to_c2_full_unit_box(self):
        pairs = [((a, b), (c, d)) for a in (0, 1) for b in (0, 1)
                 for c in (0, 1) for d in (0, 1)]
        rep = check_homomorphism(kronecker_to_c2(), 2, pairs)
        assert rep.passed, rep.to_json()


class TestGLCharacterSum:
    @pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2),
                                     (3, 3), (2, 5), (2, 7)])
    def test_closed_form(self, n, q):
        value = gl_character_sum(n, q)
        assert value == SqrtExt(q, (-1) ** n * q ** (n * (n - 1) // 2), 0)

    def test_n1_q3_via_roots_of_unity(self):
        # zeta_3 + zeta_3^2 = -1
        assert gl_character_sum(1, 3) == CycloSqrt.from_scalar(3, 3, -1)

    def test_n2_q2_via_enumeration(self):
        # the six invertible 2x2 matrices over F_2 have traces 0,0,1,1,1,1:
        # psi values 1,1,-1,-1,-1,-1 sum to 2... trace 0: the two with zero
        # diagonal plus... recount exactly by brute force here
        F = gf.FieldSpec.from_order(2)
        total = 0
        count = 0
        for flat in range(16):
            X = ((flat & 1, (flat >> 1) & 1), ((flat >> 2) & 1, (flat >> 3) & 1))
            if gf.mat_is_invertible(F, X):
                count += 1
                total += (-1) ** ((X[0][0] + X[1][1]) % 2)
        assert count == 6
        assert gl_character_sum(2, 2) == SqrtExt(2, total, 0)
        assert total == 2

    def test_past_the_point_cap(self):
        with pytest.raises(UsageError, match=r"4\^16 matrices of M_4\(F_4\) exceed the point cap"):
            gl_character_sum(4, 4)

    def test_past_the_cyclotomic_prime_cap(self):
        with pytest.raises(UsageError, match="cyclotomic prime cap"):
            gl_character_sum(1, 11)


class TestVerifiers:
    @pytest.mark.parametrize("q0", (2, 3))
    def test_a2_image_report(self, q0):
        assert a2_image_check(q0).passed

    @pytest.mark.parametrize("n,q0", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (1, 5), (2, 5)])
    def test_lemma_route(self, n, q0):
        rep = verify_lemma62_route(n, q0)
        assert rep.passed, rep.to_json()

    def test_lemma_route_n1_q2_value(self):
        # both evaluations equal q^(-1/2) at n = 1: the closed products give
        # q^(-1/2)(q-1) * 1/(q-1) and q^(-1/2) * (empty product)
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, 2)
        p = kron_pK2(src, 1)
        v1 = transform_value_at_point(p, spec, src,
                                      (gf.mat_identity(1), gf.mat_zero(1, 1)), (1, 1))
        assert v1 == v_power(-1, 2)

    @pytest.mark.parametrize("n,q0", [(1, 2), (2, 2), (3, 2), (2, 3), (4, 2), (1, 4), (2, 7)])
    def test_divided_power(self, n, q0):
        rep = divided_power_check(n, q0)
        assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("q0", (2, 3))
    def test_divided_power_past_the_cap_is_refused_before_multiplying(self, q0, monkeypatch):
        from hallalg import fourier

        def multiply(*args):
            raise AssertionError("multiplied before the (n, n) grade was checked")

        monkeypatch.setattr(fourier, "multiply", multiply)
        with pytest.raises(UsageError, match="representation variety exceeds the point cap"):
            divided_power_check(5, q0)

    @pytest.mark.parametrize("q0", (2, 3))
    def test_double_transform(self, q0):
        assert double_transform_check(q0).passed

    @pytest.mark.parametrize("q0", (2, 3))
    def test_transformed_difference_primitive(self, q0):
        assert transform_primitive_check(q0).passed

    def test_transformed_difference_primitive_directly(self):
        # the image is primitive for the full coproduct of the 2-cycle
        spec = kronecker_to_c2()
        src = get_brute_engine(spec.source, 2)
        tgt = get_brute_engine(spec.target, 2)
        image = fourier_transform(kron_pK2(src, 1), spec, src, tgt)
        assert is_primitive(image)
