import pytest

from hallalg.partitions import (
    Partition,
    a_lambda,
    parse_partition,
    partition_str,
    partitions_of,
    phi_irreducible_count,
)
from hallalg.coeffring import QPolynomial
from hallalg.repengine import get_brute_engine, jordan_matrix, jordan_quiver


class TestEnumeration:
    def test_empty(self):
        assert [p.parts for p in partitions_of(0)] == [()]

    def test_one(self):
        assert [p.parts for p in partitions_of(1)] == [(1,)]

    def test_four(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts_match_pentagonal_recurrence(self):
        # p(n) = sum_k (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
        counts = [len(partitions_of(n)) for n in range(31)]
        for n in range(1, 31):
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > n:
                    break
                sign = 1 if k % 2 == 1 else -1
                total += sign * counts[n - g1]
                if g2 <= n:
                    total += sign * counts[n - g2]
                k += 1
            assert counts[n] == total

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            partitions_of(31)
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((0,))


class TestAutomorphismCount:
    def test_single_box(self):
        assert a_lambda(Partition((1,))) == QPolynomial({1: 1, 0: -1})

    def test_two_boxes_column_at_q2(self):
        # |GL_2(F_2)| = 6
        assert a_lambda(Partition((1, 1)), 2) == 6

    def test_single_row_two(self):
        assert a_lambda(Partition((2,))) == QPolynomial({2: 1, 1: -1})
        assert a_lambda(Partition((2,)), 2) == 2

    def test_empty_partition(self):
        assert a_lambda(Partition(()), 5) == 1
        assert a_lambda(Partition(())) == QPolynomial.one()

    @pytest.mark.parametrize("q0", (2, 3))
    def test_matches_brute_stabilizer_counts(self, q0):
        engine = get_brute_engine(jordan_quiver(), q0, nilpotent=True)
        for n in range(1, 5):
            for lam in partitions_of(n):
                brute = engine.aut_order_point((jordan_matrix(lam),), (n,))
                assert a_lambda(lam, q0) == brute, lam.parts

    @pytest.mark.parametrize("parts,q0", [((3, 2, 1), 2), ((3, 2), 3), ((3, 1), 5)])
    def test_matches_brute_unit_counts_past_the_orbit_cap(self, parts, q0):
        """Orbits of more than 10^6 points, answered by counting the units
        of End, which has 2^14, 3^9 and 5^6 elements."""
        lam = Partition(parts)
        n = sum(parts)
        engine = get_brute_engine(jordan_quiver(), q0, nilpotent=True)
        assert engine.aut_order_point((jordan_matrix(lam),), (n,)) == a_lambda(lam, q0)

    def test_symbolic_specializes(self):
        for n in range(1, 5):
            for lam in partitions_of(n):
                poly = a_lambda(lam)
                for q0 in (2, 3, 5):
                    assert poly.evaluate(q0) == a_lambda(lam, q0)


class TestIrreducibleCount:
    def test_linear(self):
        assert phi_irreducible_count(1) == QPolynomial({1: 1})

    def test_quadratic_at_two(self):
        assert phi_irreducible_count(2, 2) == 1
        # cross-check (q^2 - q)/2
        assert phi_irreducible_count(2, 2) == (4 - 2) // 2

    def test_cubic_at_two_vs_exhaustive(self):
        # exhaustive irreducibility over GF(2): x^3+x+1 and x^3+x^2+1
        count = 0
        for c0 in (0, 1):
            for c1 in (0, 1):
                for c2 in (0, 1):
                    has_root = any(
                        (x ** 3 + c2 * x ** 2 + c1 * x + c0) % 2 == 0 for x in (0, 1))
                    if not has_root:
                        count += 1
        assert count == 2
        assert phi_irreducible_count(3, 2) == 2

    @pytest.mark.parametrize("q0", (2, 3, 4, 5))
    def test_necklace_identity(self, q0):
        for n in range(1, 7):
            total = sum(s * phi_irreducible_count(s, q0)
                        for s in range(1, n + 1) if n % s == 0)
            assert total == q0 ** n


class TestTextForms:
    def test_render(self):
        assert partition_str(Partition((3, 1, 1))) == "(3,1,1)"
        assert partition_str(Partition(())) == "()"

    def test_parse_plain(self):
        assert parse_partition("(3,1,1)") == Partition((3, 1, 1))

    def test_parse_exponential(self):
        assert parse_partition("(1^2,3^1)") == Partition((3, 1, 1))

    def test_round_trip(self):
        for n in range(6):
            for lam in partitions_of(n):
                assert parse_partition(partition_str(lam)) == lam
