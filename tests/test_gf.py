from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from hallalg import gf
from hallalg.coeffring import CycloSqrt, SqrtExt
from hallalg.fourier import _cyclo, _zeta_coords
from hallalg.gf import FieldSpec, trace_to_prime
from reference_impl import mat_inverse, mat_mul, subspaces

SMALL_FIELDS = (2, 3, 4, 5, 7, 8, 9)


class TestFieldConstruction:
    def test_gf9_cardinality(self):
        spec = FieldSpec.from_order(9)
        assert (spec.p, spec.e, spec.q) == (3, 2, 9)
        # x^2 + 1 is the first monic quadratic over GF(3) without a root
        assert spec.modulus == (1, 0, 1)

    def test_gf4_modulus_is_lex_smallest(self):
        # the four monic quadratics over GF(2): x^2, x^2+1, x^2+x, x^2+x+1;
        # only the last has no roots
        spec = FieldSpec.from_order(4)
        assert spec.modulus == (1, 1, 1)

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            FieldSpec.from_order(6)

    def test_tables_past_the_field_order_cap_are_refused(self):
        """A field past the cap is described, not built: its order and
        modulus are there, and the first read of its tables is refused."""
        from hallalg.report import UsageError

        spec = FieldSpec.from_order(2 * gf.FIELD_ORDER_CAP)
        assert (spec.p, spec.e) == (2, 11)
        with pytest.raises(UsageError, match="field order 2048 exceeds the field order cap 1024"):
            spec.tables
        with pytest.raises(UsageError):
            trace_to_prime(FieldSpec.from_order(65537), 1)

    def test_modulus_irreducible_gf8_gf27(self):
        for q, p, e in ((8, 2, 3), (27, 3, 3)):
            spec = FieldSpec.from_order(q)
            assert spec.p == p and spec.e == e
            # no roots in the prime field
            for x in range(p):
                acc = 0
                for c in reversed(spec.modulus):
                    acc = (acc * x + c) % p
                assert acc != 0


class TestFieldAxioms:
    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_axioms_exhaustive(self, q):
        F = FieldSpec.from_order(q)
        for a in range(q):
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.sub(0, a)) == 0
            for b in range(q):
                assert F.add(a, b) == F.add(b, a)
                assert F.add(F.sub(a, b), b) == a
                assert F.mul(a, b) == F.mul(b, a)
                for c in range(q):
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_power_is_repeated_product(self, q):
        F = FieldSpec.from_order(q)
        for a in range(q):
            acc = 1
            for n in range(2 * q):
                assert F.power(a, n) == acc, (a, n)
                acc = F.mul(acc, a)

    def test_negative_power_is_refused(self):
        """n >>= 1 never reaches 0 from a negative n, so n < 0 is refused."""
        F = FieldSpec.from_order(5)
        with pytest.raises(ValueError, match="negative exponent -1"):
            F.power(2, -1)


class TestTrace:
    def test_identity_on_prime_field(self):
        F = FieldSpec.from_order(2)
        assert trace_to_prime(F, 1) == 1

    def test_gf4_generator(self):
        # g a root of x^2+x+1: g + g^2 = g + (g+1) = 1
        F = FieldSpec.from_order(4)
        assert trace_to_prime(F, 2) == 1

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_zero_and_additivity(self, q):
        F = FieldSpec.from_order(q)
        assert trace_to_prime(F, 0) == 0
        for a in range(q):
            for b in range(q):
                lhs = trace_to_prime(F, F.add(a, b))
                rhs = (trace_to_prime(F, a) + trace_to_prime(F, b)) % F.p
                assert lhs == rhs

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_trace_list(self, q):
        F = FieldSpec.from_order(q)
        assert F.traces == tuple(trace_to_prime(F, code) for code in range(q))


def _psi_factory(F, q0, conjugate):
    """psi(x) = zeta_p^(+-Tr x), from the field's trace list and the
    transform's power-basis coordinates, one fiber point at a time."""
    sign = -1 if conjugate else 1

    def psi(code):
        counts = [0] * F.p
        counts[F.traces[code]] = 1
        return _cyclo(_zeta_coords(counts, sign), SqrtExt.one(q0))

    return psi


class TestAdditiveCharacter:
    """psi(x) = zeta_p^Tr(x), the character the Fourier transform uses."""

    def test_zeta2(self):
        psi = _psi_factory(FieldSpec.from_order(2), 2, conjugate=False)
        assert psi(1) == SqrtExt(2, -1, 0)
        assert psi(0) == SqrtExt(2, 1, 0)

    def test_unit_sum_gf3(self):
        psi = _psi_factory(FieldSpec.from_order(3), 3, conjugate=False)
        assert psi(1) + psi(2) == CycloSqrt.from_scalar(3, 3, -1)

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_psi_is_zero_summing(self, q):
        F = FieldSpec.from_order(q)
        psi = _psi_factory(F, q, conjugate=False)
        total = CycloSqrt.zero(F.p, q)
        for code in range(q):
            total = total + psi(code)
        assert total.is_zero()

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_psi_is_homomorphism(self, q):
        F = FieldSpec.from_order(q)
        psi = _psi_factory(F, q, conjugate=False)
        psi_bar = _psi_factory(F, q, conjugate=True)
        for a in range(q):
            assert psi(a) * psi_bar(a) == CycloSqrt.one(F.p, q)
            for b in range(q):
                assert psi(F.add(a, b)) == psi(a) * psi(b)


class TestMatrices:
    def test_rank_and_inverse(self):
        F = FieldSpec.from_order(3)
        A = ((1, 2), (0, 1))
        assert gf.mat_rank(F, A) == 2
        inv = mat_inverse(F, A)
        assert mat_mul(F, A, inv) == gf.mat_identity(2)

    def test_kernel(self):
        F = FieldSpec.from_order(2)
        assert gf.mat_kernel_basis(F, ((1, 1),)) == [(1, 1)]

    def test_subspace_counts(self):
        # Gaussian binomials: [4 choose 2]_2 = 35, [2 choose 1]_3 = 4
        F2 = FieldSpec.from_order(2)
        F3 = FieldSpec.from_order(3)
        assert len(list(subspaces(F2, 4, 2))) == 35
        assert len(list(subspaces(F3, 2, 1))) == 4

    def test_gl_order(self):
        assert gf.gl_order(2, 2) == 6
        assert gf.gl_order(2, 3) == 168
        assert gf.gl_order(3, 2) == 48
        assert gf.gl_order(5, 0) == 1

    def test_gl_generators_generate(self):
        # closure of the generating set is the whole group for small cases
        for q, n in ((2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3), (2, 4), (4, 3), (7, 2),
                     (8, 2), (9, 2)):
            F = FieldSpec.from_order(q)
            gens = gf.gl_generators(F, n)
            assert len(gens) <= 3
            seen = {gf.mat_identity(n)}
            frontier = [gf.mat_identity(n)]
            while frontier:
                X = frontier.pop()
                for g in gens:
                    Y = mat_mul(F, g, X)
                    if Y not in seen:
                        seen.add(Y)
                        frontier.append(Y)
            assert len(seen) == gf.gl_order(q, n)


def _matrices(max_rows=3, max_cols=4, square=False):
    """(F, A) with F = GF(q), q in {2, 3, 4}, and A a small matrix over F."""

    @st.composite
    def build(draw):
        q = draw(st.sampled_from((2, 3, 4)))
        n = draw(st.integers(1, max_rows))
        m = n if square else draw(st.integers(1, max_cols))
        row = st.tuples(*[st.integers(0, q - 1)] * m)
        return FieldSpec.from_order(q), tuple(draw(st.lists(row, min_size=n, max_size=n)))

    return build()


def _combinations(F, vectors, length):
    """Every F-linear combination of the vectors, enumerated coefficient by coefficient."""
    if not vectors:
        return {(0,) * length}
    return {mat_mul(F, (c,), tuple(vectors))[0]
            for c in product(range(F.q), repeat=len(vectors))}


class TestEliminationKernelAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    def test_rank_counts_row_combinations(self, FA):
        F, A = FA
        assert len(_combinations(F, A, len(A[0]))) == F.q ** gf.mat_rank(F, A)

    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    def test_kernel_basis_spans_the_kernel(self, FA):
        F, A = FA
        ncols = len(A[0])
        kernel = _combinations(F, gf.mat_kernel_basis(F, A), ncols)
        assert len(kernel) == F.q ** (ncols - gf.mat_rank(F, A))
        for x in kernel:
            assert all(v == 0 for (v,) in mat_mul(F, A, tuple((c,) for c in x)))

    @settings(max_examples=150, deadline=None)
    @given(_matrices(square=True))
    @example((FieldSpec.from_order(3), ((1, 2), (2, 1))))
    @example((FieldSpec.from_order(4), ((1, 2), (2, 1))))
    def test_inverse_or_singular(self, FA):
        F, A = FA
        n = len(A)
        if gf.mat_rank(F, A) == n:
            assert mat_mul(F, mat_inverse(F, A), A) == gf.mat_identity(n)
        else:
            with pytest.raises(ZeroDivisionError):
                mat_inverse(F, A)


MAT_MUL_FIELDS = (2, 3, 4, 5, 8, 9)


def _mat_mul_by_field_methods(F, A, B):
    """A B with FieldSpec.add and FieldSpec.mul, entry by entry."""
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        out_row = []
        for j in range(cols):
            s = 0
            for t, a in enumerate(row):
                s = F.add(s, F.mul(a, B[t][j]))
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


@st.composite
def _mat_mul_operands(draw):
    """(F, A, B): A is n x k and B is k x m over GF(q), any of n, k, m zero."""
    q = draw(st.sampled_from(MAT_MUL_FIELDS), label="q")
    n, k, m = (draw(st.integers(0, 4), label=name) for name in "nkm")
    entry = st.integers(0, q - 1)

    def matrix(rows, cols):
        return tuple(draw(st.tuples(*[entry] * cols)) for _ in range(rows))

    return FieldSpec.from_order(q), matrix(n, k), matrix(k, m)


class TestMatMulAgainstFieldMethods:
    def test_tables_are_built_on_first_read(self):
        F = FieldSpec.from_order(1024)
        assert "tables" not in F.__dict__
        G = FieldSpec.from_order(4)
        assert G.tables is G.tables

    @pytest.mark.parametrize("q", MAT_MUL_FIELDS + (16, 25, 27, 81))
    def test_field_tables_match_methods(self, q):
        """The mul table is polynomial multiplication modulo F.modulus on
        the decoded digits, and inv[a] is a's inverse in it."""
        F = FieldSpec.from_order(q)
        _, _, mul, inv = F.tables
        for a, b in product(range(q), repeat=2):
            assert F.decode(mul[a][b]) == gf._poly_mod_mul(
                F.decode(a), F.decode(b), F.modulus, F.p)
        for a in range(1, q):
            assert mul[a][inv[a]] == 1

    @settings(max_examples=300, deadline=None)
    @given(_mat_mul_operands())
    @example((FieldSpec.from_order(4), (), ()))
    @example((FieldSpec.from_order(4), ((), ()), ()))
    @example((FieldSpec.from_order(9), ((1, 2),), ((), ())))
    @example((FieldSpec.from_order(8), ((7, 5), (3, 6)), ((2, 4, 1), (5, 7, 3))))
    def test_product(self, FAB):
        F, A, B = FAB
        assert mat_mul(F, A, B) == _mat_mul_by_field_methods(F, A, B)


class TestMatTraceAgainstFieldMethods:
    @staticmethod
    def _trace_by_field_methods(F, A):
        t = 0
        for i, row in enumerate(A):
            t = F.add(t, row[i])
        return t

    @pytest.mark.parametrize("q", (2, 3, 4, 5))
    def test_every_small_matrix(self, q):
        F = FieldSpec.from_order(q)
        for n in range(3):
            for flat in product(range(q), repeat=n * n):
                A = tuple(flat[r * n:(r + 1) * n] for r in range(n))
                assert gf.mat_trace(F, A) == self._trace_by_field_methods(F, A)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((2, 3, 4, 5)).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(0, 5).flatmap(
            lambda n: st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                               min_size=n, max_size=n)))))
    def test_square_matrices(self, qA):
        q, A = qA
        F = FieldSpec.from_order(q)
        assert gf.mat_trace(F, A) == self._trace_by_field_methods(F, A)
