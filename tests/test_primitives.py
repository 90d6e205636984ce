from fractions import Fraction

import pytest

from hallalg import primitives
from hallalg.coeffring import QPolynomial, v_power
from hallalg.hallcore import (
    HallElement,
    comultiply,
    green_form,
    is_primitive,
    multiply,
    one_d,
    one_reg,
    primitive_subspace,
)
from hallalg.gf import mat_identity
from hallalg.partitions import Partition, partitions_of, phi_irreducible_count
from hallalg.primitives import (
    c_central,
    central_family_check,
    difference_basis_check,
    jordan_primitive_coeff,
    kernel_theorem_check,
    kron_p0,
    kron_pinf,
    kron_pK2,
    kronecker_tube,
    kronecker_tubes,
    p_cyclic,
    p_jordan,
    p_jordan_symbolic,
    p_tube_homog,
    tube_primitive,
    verify_aut_sum_identities,
    verify_key_pairing,
    verify_xi_identity,
    x_element,
    xi_partition_sum_value,
)
from hallalg.repengine import (
    get_brute_engine,
    get_nilpotent_engine,
    is_regular_kronecker,
    jordan_matrix,
    kronecker_quiver,
    kronecker_tube_class,
)
from hallalg.report import UsageError
from reference_impl import aut_sum_identity_sides, hom_dim_solve, xi_identity_sides


class TestJordanFamily:
    def test_p1_is_single_class(self):
        engine = get_nilpotent_engine(1, 2)
        p1 = p_jordan(engine, 1)
        assert p1 == HallElement.basis(engine, engine.simple(0))

    def test_p2_coefficients(self):
        coeffs = dict((lam.parts, poly) for lam, poly in p_jordan_symbolic(2))
        assert coeffs[(2,)] == QPolynomial.one()
        assert coeffs[(1, 1)] == QPolynomial({0: 1, 1: -1})  # 1 - q

    @pytest.mark.parametrize("q0", (2, 3))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_primitive(self, n, q0):
        engine = get_nilpotent_engine(1, q0)
        assert is_primitive(p_jordan(engine, n))

    def test_spans_the_primitive_line(self):
        engine = get_nilpotent_engine(1, 2)
        basis = primitive_subspace(engine, (3,))
        assert len(basis) == 1
        from hallalg.hallcore import in_span
        assert in_span(basis, p_jordan(engine, 3))


class TestCentralFamily:
    @pytest.mark.parametrize("q0", (2, 3))
    def test_c1_explicit(self, q0):
        engine = get_nilpotent_engine(2, q0)
        c1 = c_central(engine, 1)
        scale = v_power(-4, q0) * (q0 - 1)
        assert c1.coefficient(engine.segment_class(0, 2)) == scale
        assert c1.coefficient(engine.segment_class(1, 2)) == scale
        ss = engine.make_class((((0, 1), 1), ((1, 1), 1)))
        assert c1.coefficient(ss) == scale * (1 - q0)
        assert len(c1.terms) == 3

    def test_needs_r_at_least_two(self):
        with pytest.raises(ValueError):
            c_central(get_nilpotent_engine(1, 2), 1)

    def test_commutes_with_simples(self):
        engine = get_nilpotent_engine(2, 2)
        c1 = c_central(engine, 1)
        for i in range(2):
            si = HallElement.basis(engine, engine.simple(i))
            assert multiply(c1, si) == multiply(si, c1)

    def test_coproduct_group_like_family(self):
        from hallalg.primitives import central_family_check
        rep = central_family_check(2, 1, 2)
        assert rep.passed, rep.to_json()


class TestCyclicPrimitives:
    def test_x1_equals_c1(self):
        engine = get_nilpotent_engine(2, 3)
        assert x_element(engine, 1) == c_central(engine, 1)

    def test_x2_primitive(self):
        engine = get_nilpotent_engine(2, 2)
        assert is_primitive(x_element(engine, 2))

    @pytest.mark.parametrize("q0", (2, 3))
    def test_p1_cyclic_explicit(self, q0):
        engine = get_nilpotent_engine(2, q0)
        p1 = p_cyclic(engine, 1)
        assert p1.coefficient(engine.segment_class(0, 2)) == 1
        assert p1.coefficient(engine.segment_class(1, 2)) == 1
        ss = engine.make_class((((0, 1), 1), ((1, 1), 1)))
        assert p1.coefficient(ss) == 1 - q0
        assert len(p1.terms) == 3

    @pytest.mark.parametrize("r,q0", [(2, 2), (2, 3), (3, 2)])
    def test_normalization_coefficient_one(self, r, q0):
        engine = get_nilpotent_engine(r, q0)
        for n in (1, 2):
            p = p_cyclic(engine, n)
            for i in range(r):
                assert p.coefficient(engine.segment_class(i, r * n)) == 1

    def test_leading_form_of_x(self):
        # coefficient of [S_i[rn]] in x_n is v^(n-2rn) (v^n - v^-n)
        for q0 in (2, 3):
            engine = get_nilpotent_engine(2, q0)
            for n in (1, 2):
                xn = x_element(engine, n)
                expected = v_power(n - 4 * n, q0) * (
                    v_power(n, q0) - v_power(-n, q0))
                for i in range(2):
                    assert xn.coefficient(engine.segment_class(i, 2 * n)) == expected

    @pytest.mark.parametrize("q0", (2, 3))
    def test_embedded_jordan_coefficients(self, q0):
        # the coefficient of S_1[lambda_1*r] + S_1[lambda_2*r] + ... equals the
        # Jordan coefficient prod (1 - q^s), here for r = 2, n = 2
        engine = get_nilpotent_engine(2, q0)
        p2 = p_cyclic(engine, 2)
        for lam in partitions_of(2):
            cls = engine.make_class(tuple(
                ((0, part * 2), mult) for part, mult in lam.exponential().items()))
            assert p2.coefficient(cls) == jordan_primitive_coeff(lam).evaluate(q0)


class TestTubePrimitives:
    def test_m1_is_quasi_simple(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        tubes = kronecker_tubes(engine, 1)
        assert len(tubes) == 3
        for tube in tubes:
            p1 = tube_primitive(engine, tube, 1)
            assert p1 == HallElement.basis(engine, tube.simple)

    def test_p2_explicit_shape(self):
        # p_2(x) = [E_x[2]] + (1 - q)[2 E_x] for a degree-1 point at q = 2
        engine = get_brute_engine(kronecker_quiver(), 2)
        tube = [t for t in kronecker_tubes(engine, 2) if t.degree == 1][0]
        p2 = tube_primitive(engine, tube, 2)
        e2 = tube.classes[(2,)]
        two_e = tube.classes[(1, 1)]
        assert p2.coefficient(e2) == 1
        assert p2.coefficient(two_e) == -1  # 1 - q at q = 2
        assert len(p2.terms) == 2

    def test_primitive_in_its_tube(self):
        # each tube spans an extension-closed subcategory; the tube primitive
        # is primitive for the coproduct restricted to the tube's classes
        engine = get_brute_engine(kronecker_quiver(), 2)
        for tube in kronecker_tubes(engine, 2):
            m = 2 // tube.degree
            members = _tube_members(engine, tube, m)
            p = tube_primitive(engine, tube, m)
            assert is_primitive(p, predicate=lambda c: c in members)

    def test_degree_structure_n2_q2(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        tubes = kronecker_tubes(engine, 2)
        degrees = sorted(t.degree for t in tubes)
        assert degrees == [1, 1, 1, 2]  # three degree-1 tubes and one degree-2

    def test_missing_partition_class_rejected(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        with pytest.raises(ValueError):
            p_tube_homog(engine, 1, 2, {})


def _tube_members(engine, tube, m):
    """The classes I_lambda(x) at the tube's point with |lambda| <= m."""
    return {kronecker_tube_class(engine, tube.point, lam)
            for j in range(1, m + 1) for lam in partitions_of(j)}


# (q, n) cells of the tube checks; n = 3 is listed at q = 2 only, for the
# point cap refuses (3, 3) at q = 3 (3^18 points)
TUBE_CELLS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]


def _is_power_of(q0, k):
    while k > 1 and k % q0 == 0:
        k //= q0
    return k == 1


class TestTubesFromPoints:
    @pytest.mark.parametrize("q0,n", TUBE_CELLS)
    def test_one_tube_per_closed_point(self, q0, n):
        tubes = kronecker_tubes(get_brute_engine(kronecker_quiver(), q0), n)
        degrees = [t.degree for t in tubes]
        assert degrees == sorted(degrees)
        for d in range(1, n + 1):
            expected = phi_irreducible_count(d, q0) + (d == 1) if n % d == 0 else 0
            assert degrees.count(d) == expected

    @pytest.mark.parametrize("q0,n", TUBE_CELLS)
    def test_tube_classes_are_regular_and_distinct(self, q0, n):
        engine = get_brute_engine(kronecker_quiver(), q0)
        tubes = kronecker_tubes(engine, n)
        classes = [c for t in tubes for c in t.classes.values()]
        assert len(set(classes)) == len(classes)
        assert all(is_regular_kronecker(engine, c) for c in classes + [t.simple for t in tubes])

    @pytest.mark.parametrize("q0,n", TUBE_CELLS)
    def test_quasi_simple_has_no_proper_regular_submodule(self, q0, n):
        engine = get_brute_engine(kronecker_quiver(), q0)
        for tube in kronecker_tubes(engine, n):
            E = tube.simple
            for _, (grade, key) in engine.sub_table(E):
                if 0 < sum(grade) < sum(E.grade):
                    assert not is_regular_kronecker(engine, engine.class_from_key((grade, key)))

    @pytest.mark.parametrize("q0,n", TUBE_CELLS)
    def test_quasi_length_grows_by_the_quasi_simple(self, q0, n):
        engine = get_brute_engine(kronecker_quiver(), q0)
        for tube in kronecker_tubes(engine, n):
            chain = [kronecker_tube_class(engine, tube.point, Partition((j,)))
                     for j in range(1, n // tube.degree + 1)]
            assert chain[0] == tube.simple
            for shorter, longer in zip(chain, chain[1:]):
                assert engine.hall_number(longer, tube.simple, shorter) > 0

    @pytest.mark.parametrize("q0,n", TUBE_CELLS)
    def test_indecomposable_has_local_endomorphism_ring(self, q0, n):
        # End local with residue field F_(q^e) and radical of dimension r:
        # q^(e + r) - |Aut| = q^(e + r) - (q^e - 1) q^r = q^r
        engine = get_brute_engine(kronecker_quiver(), q0)
        for tube in kronecker_tubes(engine, n):
            cls = tube.classes[(n // tube.degree,)]
            assert _is_power_of(q0, q0 ** hom_dim_solve(engine, cls, cls) - engine.aut_order(cls))

    def test_split_module_fails_the_local_test(self):
        # End(I_(1,1)(0)) is the matrix ring M_2(F_2): 2^4 - 6 = 10
        engine = get_brute_engine(kronecker_quiver(), 2)
        cls = kronecker_tube(engine, (0, 1), 2).classes[(1, 1)]
        assert not _is_power_of(2, 2 ** hom_dim_solve(engine, cls, cls) - engine.aut_order(cls))


class TestKroneckerPrimitives:
    def test_p1_difference(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        p = kron_pK2(engine, 1)
        assert len(p.terms) == 2
        vals = sorted(v.a for v in p.terms.values())
        assert vals == [Fraction(-1), Fraction(1)]

    @pytest.mark.parametrize("q0", (2, 3))
    @pytest.mark.parametrize("n", (1, 2))
    def test_difference_primitive_full(self, n, q0):
        engine = get_brute_engine(kronecker_quiver(), q0)
        assert is_primitive(kron_pK2(engine, n))

    @pytest.mark.parametrize("q0", (2, 3))
    @pytest.mark.parametrize("n", (1, 2))
    def test_tube_pairing_values(self, n, q0):
        engine = get_brute_engine(kronecker_quiver(), q0)
        reg = one_reg(engine, n)
        value = green_form(kron_p0(engine, n), reg)
        assert value == Fraction(1, q0 ** n - 1)
        assert value == xi_partition_sum_value(n, q0)
        assert green_form(kron_pinf(engine, n), reg) == value
        assert green_form(kron_pK2(engine, n), reg).is_zero()

    def test_single_tube_primitives_not_full_primitive(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        assert not is_primitive(kron_p0(engine, 1))

    def test_restriction_of_full_primitive_is_tube_primitive(self):
        # restricting a full primitive to an extension-closed subcategory
        # keeps it primitive for the restricted coproduct
        engine = get_brute_engine(kronecker_quiver(), 2)
        p = kron_pK2(engine, 1)
        reg = lambda c: is_regular_kronecker(engine, c)
        restricted = p.restrict(reg)
        delta = comultiply(restricted, predicate=reg)
        zero = engine.zero_class()
        from hallalg.hallcore import TensorElement
        expected = {}
        for cls, coeff in restricted.terms.items():
            expected[(cls, zero)] = coeff
            expected[(zero, cls)] = coeff
        assert delta == TensorElement(engine, expected)

    def test_tube_classes_match_constructors(self):
        # the tubes at 0 and infinity hold the points (I, J_lambda) and (J_lambda, I)
        engine = get_brute_engine(kronecker_quiver(), 2)
        tubes = kronecker_tubes(engine, 2)
        for x, point in (((0, 1), lambda J, I: (I, J)), (None, lambda J, I: (J, I))):
            tube = kronecker_tube(engine, x, 2)
            assert tube.degree == 1
            assert tube.classes == {
                lam.parts: engine.class_of_point(point(jordan_matrix(lam), mat_identity(2)),
                                                 (2, 2))
                for lam in partitions_of(2)}
            assert [t.classes for t in tubes if t.point == x] == [tube.classes]

    def test_cap_validation(self):
        engine = get_brute_engine(kronecker_quiver(), 3)
        with pytest.raises(UsageError, match="point cap"):
            kron_p0(engine, 3)


class TestIdentityVerifiers:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_xi_identity(self, n):
        """The same verdict as the QPolynomial products of the reference."""
        lhs, rhs = xi_identity_sides(n)
        assert lhs == rhs
        assert verify_xi_identity(n).passed

    def test_xi_n2_by_hand(self):
        # 1/(q(q-1)) + (1-q)/(q(q-1)(q^2-1)) = 1/(q^2-1)
        for q0 in (2, 3, 5):
            lhs = Fraction(1, q0 * (q0 - 1)) + \
                Fraction(1 - q0, q0 * (q0 - 1) * (q0 ** 2 - 1))
            assert lhs == Fraction(1, q0 ** 2 - 1)
            assert xi_partition_sum_value(2, q0) == lhs

    @pytest.mark.parametrize("n", range(1, 14))
    def test_aut_sum_identities(self, n):
        """The same verdict as the QPolynomial products of the reference."""
        assert all(lhs == rhs for lhs, rhs in aut_sum_identity_sides(n))
        assert verify_aut_sum_identities(n).passed

    @pytest.mark.parametrize("n", range(1, 15))
    def test_bound_covers_every_coefficient(self, n):
        """B, from the factored terms alone, is at least every coefficient of
        both sides and of their difference in the QPolynomial products, and
        the terms are those polynomials (equal values at q = 2 and 4)."""
        (sq_lhs, sq_rhs), (pl_lhs, pl_rhs) = aut_sum_identity_sides(n)
        pairs = [(primitives._xi_terms(n), xi_identity_sides(n)),
                 (primitives._aut_sum_terms(n)[0], (sq_lhs, sq_rhs)),
                 (primitives._aut_sum_terms(n)[1], (pl_lhs, pl_rhs))]
        for (lhs_terms, rhs_terms), (lhs, rhs) in pairs:
            bound = primitives._l1_bound(lhs_terms + rhs_terms)
            for poly in (lhs, rhs, lhs - rhs):
                assert all(abs(c) <= bound for c in poly.coeffs.values())
            for bits in (1, 2):
                assert primitives._value_at(lhs_terms, bits) == lhs.evaluate(2 ** bits)
                assert primitives._value_at(rhs_terms, bits) == rhs.evaluate(2 ** bits)

    def test_unequal_sides_that_agree_at_a_small_point(self):
        # q and 2 agree at q = 2; B = 3 puts the evaluation at q = 8
        assert not primitives._sides_agree([(1, 1, [])], [(2, 0, [])])
        # (q - 1)^2 = q^2 - 2q + 1
        assert primitives._sides_agree([(1, 0, [1, 1])], [(1, 2, []), (-2, 1, []), (1, 0, [])])

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("drop", (0, -1), ids=("first", "last"))
    def test_dropped_partition_fails_both(self, monkeypatch, n, drop):
        def short(m):
            out = partitions_of(m)
            del out[drop]
            return out

        monkeypatch.setattr(primitives, "partitions_of", short)
        assert not verify_xi_identity(n).passed
        assert not verify_aut_sum_identities(n).passed

    @pytest.mark.parametrize("n", range(2, 13))
    def test_altered_jordan_coefficient_fails(self, monkeypatch, n):
        """A sign flip of P_(n-1,1) fails xi; autsum reads only P^2, so a
        dropped factor q - 1 of P_(n-1,1) fails it (and xi)."""
        exact = primitives._jordan_coeff_factored
        target = Partition((n - 1, 1))

        def flipped(lam):
            sign, factors = exact(lam)
            return (-sign if lam == target else sign), factors

        def shortened(lam):
            sign, factors = exact(lam)
            return sign, (factors[1:] if lam == target else factors)

        monkeypatch.setattr(primitives, "_jordan_coeff_factored", flipped)
        assert not verify_xi_identity(n).passed
        monkeypatch.setattr(primitives, "_jordan_coeff_factored", shortened)
        assert not verify_xi_identity(n).passed
        assert not verify_aut_sum_identities(n).passed

    def test_aut_sum_n2_by_hand(self):
        # sum 1/a_lambda at n=2: 1/(q(q-1)) + 1/(q(q-1)(q^2-1)) = q/((q-1)(q^2-1))
        for q0 in (2, 3):
            lhs = Fraction(1, q0 * (q0 - 1)) + \
                Fraction(1, q0 * (q0 - 1) * (q0 ** 2 - 1))
            assert lhs == Fraction(q0, (q0 - 1) * (q0 ** 2 - 1))

    @pytest.mark.parametrize("verify", [verify_xi_identity, verify_aut_sum_identities])
    def test_n_below_one_is_refused(self, verify):
        with pytest.raises(UsageError, match="n >= 1"):
            verify(0)


class TestPairing:
    @pytest.mark.parametrize("r", (1, 2, 3))
    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("q0", (2, 3))
    def test_pairing_identity(self, r, n, q0):
        rep = verify_key_pairing(r, n, q0)
        assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("r,n,q0", [(4, 1, 2), (2, 3, 3), (3, 3, 3), (1, 6, 2)])
    def test_pairing_identity_on_larger_cells(self, r, n, q0):
        rep = verify_key_pairing(r, n, q0)
        assert rep.passed, rep.to_json()
        assert rep.lhs == str(Fraction(1, q0 ** n - 1))

    def test_r1_n2_value(self):
        # {p_2, 1_2} = 1/a_(2) + (1-q)/a_(1,1) = 1/2 - 1/6 = 1/3 at q = 2
        engine = get_nilpotent_engine(1, 2)
        pairing = green_form(p_jordan(engine, 2), one_d(engine, (2,)))
        assert pairing == Fraction(1, 3)


class TestCentralFamily:
    @pytest.mark.parametrize("r,n,q0", [(2, 1, 2), (3, 2, 3), (2, 3, 3), (2, 4, 2), (3, 2, 5)])
    def test_central_family(self, r, n, q0):
        rep = central_family_check(r, n, q0)
        assert rep.passed, rep.to_json()

    def test_r1_is_refused(self):
        with pytest.raises(UsageError, match="r >= 2"):
            central_family_check(1, 1, 2)


# (n, q) cells of the two Kronecker statements: the full primitive space at
# (n, n) has dimension sum over s | n of phi(s), 4 at (3, 2)
KRONECKER_CELLS = [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


class TestMainTheoremChecks:
    @pytest.mark.parametrize("n,q0", KRONECKER_CELLS)
    def test_kernel_description(self, n, q0):
        rep = kernel_theorem_check(n, q0)
        assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("n,q0", KRONECKER_CELLS)
    def test_difference_basis(self, n, q0):
        rep = difference_basis_check(n, q0)
        assert rep.passed, rep.to_json()

    def test_dimensions_n3_q2(self):
        assert kernel_theorem_check(3, 2).lhs == "dim full=4, dim regular=5"
        assert difference_basis_check(3, 2).lhs == "4 differences"

    @pytest.mark.parametrize("check", [kernel_theorem_check, difference_basis_check])
    def test_past_the_point_cap_is_refused(self, check):
        with pytest.raises(UsageError, match="point cap"):
            check(4, 2)

    def test_dimensions_n1(self):
        # q = 2: three degree-1 points, dim regular-primitive 3, full 2
        engine = get_brute_engine(kronecker_quiver(), 2)
        reg = lambda c: is_regular_kronecker(engine, c)
        assert len(primitive_subspace(engine, (1, 1))) == 2
        assert len(primitive_subspace(engine, (1, 1), predicate=reg)) == 3

    def test_dimensions_n2_q2(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        reg = lambda c: is_regular_kronecker(engine, c)
        assert len(primitive_subspace(engine, (2, 2))) == 3  # phi_1 + phi_2
        assert len(primitive_subspace(engine, (2, 2), predicate=reg)) == 4


class TestFullCyclicPrimitiveBasis:
    def test_basis_of_full_two_cycle_at_delta(self):
        # over the full (not nilpotent) 2-cycle at q = 2 the primitive space at
        # (1,1) has dimension q = 2, spanned by the nilpotent normalized
        # primitive and the point classes of the invertible-loop orbits
        from hallalg.repengine import cyclic_quiver
        from hallalg.hallcore import in_span, rank_of_elements
        engine = get_brute_engine(cyclic_quiver(2), 2)
        s12 = engine.class_of_point((((1,),), ((0,),)), (1, 1))
        s22 = engine.class_of_point((((0,),), ((1,),)), (1, 1))
        ss = engine.class_of_point((((0,),), ((0,),)), (1, 1))
        p1 = HallElement(engine, {s12: 1, s22: 1, ss: -1})  # 1 - q at q = 2
        ex = HallElement.basis(engine, engine.class_of_point(
            (((1,),), ((1,),)), (1, 1)))
        assert is_primitive(p1)
        assert is_primitive(ex)
        basis = primitive_subspace(engine, (1, 1))
        assert len(basis) == 2
        assert rank_of_elements([p1, ex]) == 2
        assert in_span(basis, p1) and in_span(basis, ex)
