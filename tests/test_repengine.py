from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallalg.coeffring import interpolate_q
from hallalg.gf import mat_identity
from hallalg.partitions import Partition, a_lambda, partitions_of, phi_irreducible_count
from hallalg.repengine import (
    BruteForceEngine,
    NilpotentCyclicEngine,
    a2_quiver,
    add_dim,
    cyclic_quiver,
    euler_form,
    get_brute_engine,
    get_nilpotent_engine,
    hall_polynomial,
    hom_dim_segments,
    is_regular_kronecker,
    jordan_matrix,
    jordan_quiver,
    kronecker_points,
    kronecker_quiver,
    kronecker_regular_classes,
    kronecker_tube_class,
    ms_dim_vector,
    multisegment_str,
    parse_multisegment,
)
from reference_impl import (
    class_of_point,
    hom_dim_segments_sum,
    hom_dim_solve,
    mat_inverse,
    mat_mul,
    socle_solve,
)


class TestEulerForm:
    def test_jordan_loop(self):
        assert euler_form(jordan_quiver(), (1,), (1,)) == 0

    def test_c2_simples(self):
        assert euler_form(cyclic_quiver(2), (1, 0), (0, 1)) == -1

    def test_kronecker_null_root(self):
        assert euler_form(kronecker_quiver(), (1, 1), (1, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euler_form(cyclic_quiver(2), (1,), (1, 1))


_ISOCLASS_BOXES = [(1, (15,), True), (2, (6, 6), True), (3, (4, 4, 4), True),
                   (4, (3, 3, 3, 3), True), (4, (4, 4, 4, 4), False)]
_ISOCLASS_BOX_IDS = ["C1", "C2", "C3", "C4", "C4-4444"]


class TestIsoclassEnumeration:
    def test_nilpotent_c2_delta(self):
        engine = get_nilpotent_engine(2, 2)
        classes = engine.classes((1, 1))
        assert sorted(c.render() for c in classes) == ["S1[1]+S2[1]", "S1[2]", "S2[2]"]

    def test_nilpotent_c2_delta_brute_oracle(self):
        brute = get_brute_engine(cyclic_quiver(2), 2, nilpotent=True)
        assert len(brute.classes((1, 1))) == 3

    def test_kronecker_11_q2(self):
        # orbits of (a, b) in F_2^2 under the trivial torus: all four pairs
        engine = get_brute_engine(kronecker_quiver(), 2)
        assert len(engine.classes((1, 1))) == 4

    def test_zero_grade(self):
        for engine in (get_nilpotent_engine(2, 2),
                       get_brute_engine(kronecker_quiver(), 2)):
            classes = engine.classes((0, 0))
            assert len(classes) == 1
            assert classes[0] == engine.zero_class()

    def test_jordan_counts_are_partition_counts(self):
        for q0 in (2, 3):
            engine = get_nilpotent_engine(1, q0)
            brute = get_brute_engine(jordan_quiver(), q0, nilpotent=True)
            for n in range(5 if q0 == 2 else 4):
                assert len(engine.classes((n,))) == len(partitions_of(n))
                if q0 == 2 or n <= 3:
                    assert len(brute.classes((n,))) == len(partitions_of(n))

    def test_a2_counts_are_rank_counts(self):
        engine = get_brute_engine(a2_quiver(), 2)
        for a in range(3):
            for b in range(3):
                assert len(engine.classes((a, b))) == min(a, b) + 1

    def test_brute_total_dim_cap(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        with pytest.raises(ValueError):
            engine.classes((5, 4))

    @pytest.mark.parametrize("r,top,whole_box", _ISOCLASS_BOXES, ids=_ISOCLASS_BOX_IDS)
    def test_multisegments_are_distinct_and_as_many_as_coin_change(self, r, top, whole_box):
        """classes(d) lists distinct multisegments of grade d, in order, as
        many as the coefficient of x^d in the product over segments s of
        1/(1 - x^dim s): every grade d <= top, or top alone."""
        count = _coin_change_counts(r, top)
        engine = NilpotentCyclicEngine(r, 2)
        for d in count if whole_box else [top]:
            classes = engine.classes(d)
            assert len(set(classes)) == len(classes) == count[d], d
            assert classes == sorted(classes)
            assert all(ms_dim_vector(c.key, r) == d for c in classes)

    @pytest.mark.parametrize("r,top,whole_box", _ISOCLASS_BOXES + [(5, (2, 2, 2, 2, 2), True)],
                             ids=_ISOCLASS_BOX_IDS + ["C5"])
    def test_rank_tables_of_multisegments_invert(self, r, top, whole_box):
        """_ranks_of_multisegment is the inverse of _multisegment_of_ranks
        on every multisegment of every grade d <= top, or of top alone."""
        from hallalg import repengine

        engine = NilpotentCyclicEngine(r, 2)
        grades = product(*(range(x + 1) for x in top)) if whole_box else [top]
        for d in grades:
            for c in engine.classes(d):
                rank = repengine._ranks_of_multisegment(r, c.key)
                assert repengine._multisegment_of_ranks(r, rank) == c.key, c.render()


def _coin_change_counts(r, top):
    """The coefficient of x^e for every e <= top in the product over the
    segments s of C_r of 1/(1 - x^dim s), by unbounded coin change."""
    grades = list(product(*(range(n + 1) for n in top)))  # e - dim s precedes e
    count = dict.fromkeys(grades, 0)
    count[grades[0]] = 1
    for l in range(1, sum(top) + 1):
        for i in range(r):
            dim = [0] * r
            for t in range(l):
                dim[(i + t) % r] += 1
            for e in grades:
                rest = tuple(a - b for a, b in zip(e, dim))
                if min(rest) >= 0:
                    count[e] += count[rest]
    return count


class TestOrbitPartition:
    @pytest.mark.parametrize("q0", (2, 3))
    def test_orbit_sizes_partition_variety(self, q0):
        engine = get_brute_engine(kronecker_quiver(), q0)
        for d in ((1, 1), (2, 1), (2, 2)):
            total = sum(engine.orbit_size(c) for c in engine.classes(d))
            points = q0 ** sum(d[t] * d[h] for (t, h) in engine.quiver.arrows)
            assert total == points

    def test_orbit_stabilizer_identity(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        for d in ((1, 1), (2, 1), (2, 2)):
            for c in engine.classes(d):
                assert engine.orbit_size(c) * engine.aut_order(c) == \
                    engine.group_order(d)

    def test_key_soundness_roundtrip(self):
        # a representative point always resolves back to its own class
        engine = get_brute_engine(kronecker_quiver(), 2)
        for d in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for c in engine.classes(d):
                mats, dims = engine.rep_point(c)
                assert engine.class_of_point(mats, dims) == c

    def test_structured_aut_orders_partition_nilpotent_variety(self):
        # sum over classes of |G_V| / a_M equals the number of nilpotent points
        for r, q0, d in ((1, 2, (3,)), (2, 2, (2, 1)), (2, 3, (1, 1))):
            engine = get_nilpotent_engine(r, q0)
            brute = get_brute_engine(cyclic_quiver(r), q0, nilpotent=True)
            points = sum(brute.orbit_size(c) for c in brute.classes(d))
            mass = sum(brute.group_order(d) // engine.aut_order(c)
                       for c in engine.classes(d))
            assert mass == points
        # for the Jordan quiver the count is the classical q^(n^2 - n)
        engine = get_nilpotent_engine(1, 2)
        brute = get_brute_engine(jordan_quiver(), 2, nilpotent=True)
        assert sum(brute.orbit_size(c) for c in brute.classes((3,))) == 2 ** 6

    def test_brute_and_structured_keys_biject(self):
        # each brute orbit over the nilpotent Jordan variety carries a distinct
        # multisegment, so orbit identity agrees with multisegment identity
        structured = get_nilpotent_engine(1, 2)
        brute = get_brute_engine(jordan_quiver(), 2, nilpotent=True)
        for n in range(1, 5):
            seen = set()
            for c in brute.classes((n,)):
                mats, dims = brute.rep_point(c)
                ms = class_of_point(structured, mats, dims).key
                assert ms not in seen
                seen.add(ms)
            assert len(seen) == len(structured.classes((n,)))

    @pytest.mark.parametrize("r,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    def test_a_point_with_a_nonzero_cycle_is_refused(self, r, n):
        from hallalg.report import InternalCheckError

        engine = NilpotentCyclicEngine(r, 2)
        mats = (mat_identity(n),) * r
        with pytest.raises(InternalCheckError, match="point identification failed"):
            class_of_point(engine, mats, (n,) * r)

    def test_nilpotent_points_have_nilpotent_cycle(self):
        engine = get_brute_engine(cyclic_quiver(2), 2, nilpotent=True)
        for c in engine.classes((2, 1)):
            mats, dims = engine.rep_point(c)
            M = mat_mul(engine.field, mats[1], mats[0])  # cycle at vertex 0
            P = M
            for _ in range(dims[0]):
                P = mat_mul(engine.field, P, M)
            assert all(x == 0 for row in P for x in row)


def _is_nilpotent_cycle(F, mats, d):
    """The cycle composite M at vertex 0 satisfies M^(d_0) = 0; a zero
    dimension anywhere breaks the cycle.  A nonzero trace rules M out at
    once, otherwise M is squared until its power reaches d_0."""
    from hallalg import gf

    if 0 in d:
        return True
    M = mats[0]
    for X in mats[1:]:
        M = mat_mul(F, X, M)
    if gf.mat_trace(F, M):
        return False
    power = 1
    while power < d[0]:
        M = mat_mul(F, M, M)
        power *= 2
    return not any(any(row) for row in M)


def _group_orbit_partition(engine, d):
    """Orbit partition of E_d by applying every element of prod_i GL(d_i).

    Independent of the engine's generators: each GL(d_i) is enumerated as
    all invertible matrices and acts through mat_mul / mat_inverse.  The
    factors commute, so an orbit is closed one vertex at a time, the
    largest group first.  Points are scanned in lexicographic order of their entries (arrow by
    arrow, row by row).  Returns (orbit_of keyed by flat entries, reps, sizes).
    Compare orbit_of with the engine's through _packed.
    """
    from hallalg import gf

    F = engine.field
    arrows = engine.quiver.arrows
    shapes = [(d[h], d[t]) for (t, h) in arrows]

    def matrix(flat, rows, cols):
        return tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows))

    group = []
    for n in d:
        invertible = [g for g in (matrix(flat, n, n)
                                  for flat in product(range(F.q), repeat=n * n))
                      if gf.mat_is_invertible(F, g)]
        group.append([(g, mat_inverse(F, g)) for g in invertible])

    def act(i, g, g_inv, mats):
        return tuple(mat_mul(F, mat_mul(F, g, X) if h == i else X, g_inv) if t == i
                     else mat_mul(F, g, X) if h == i else X
                     for X, (t, h) in zip(mats, arrows))

    def flat_of(mats):
        return tuple(x for X in mats for row in X for x in row)

    orbit_of, reps, sizes = {}, [], []
    for flat in product(range(F.q), repeat=sum(r * c for r, c in shapes)):
        if flat in orbit_of:
            continue
        mats, pos = [], 0
        for rows, cols in shapes:
            mats.append(matrix(flat[pos:pos + rows * cols], rows, cols))
            pos += rows * cols
        mats = tuple(mats)
        if engine.nilpotent and not _is_nilpotent_cycle(F, mats, d):
            continue
        orbit = {mats}
        for i in sorted(range(len(d)), key=lambda i: -len(group[i])):
            orbit = {act(i, g, g_inv, Y) for Y in orbit for g, g_inv in group[i]}
        orbit = {flat_of(Y) for Y in orbit}
        for point in orbit:
            orbit_of[point] = len(reps)
        reps.append(mats)
        sizes.append(len(orbit))
    return orbit_of, reps, sizes


def _unflatten(engine, flat, d):
    """The point of a flat code tuple as one matrix per arrow."""
    mats, pos = [], 0
    for t, h in engine.quiver.arrows:
        rows, cols = d[h], d[t]
        mats.append(tuple(tuple(flat[pos + r * cols:pos + (r + 1) * cols])
                          for r in range(rows)))
        pos += rows * cols
    return tuple(mats)


def _packed(engine, d, orbit_of):
    """A map keyed by flat code tuples, rekeyed by the engine's packed points."""
    return {engine._pack(_unflatten(engine, flat, d), d): idx for flat, idx in orbit_of.items()}


# q = 2, 3, 4 and the arithmetic branches past them: odd primes with a
# torus (5, 7), an F_2-linear multiplication with e = 3 (8), and odd
# prime-power digits (9)
_CLOSURE_CELLS = (
    [(q0, d) for q0 in (2, 3, 4) for d in ((0, 1), (1, 1), (1, 2), (2, 1))]
    + [(2, (2, 2)), (2, (0, 3)), (3, (2, 2))]
    + [(q0, d) for q0 in (5, 7, 8, 9) for d in ((1, 1), (1, 2), (2, 1))]
)


class TestOrbitClosureAgainstGroup:
    @pytest.mark.parametrize("quiver", (kronecker_quiver(), a2_quiver(), cyclic_quiver(2)),
                             ids=("k2", "a2", "c2full"))
    @pytest.mark.parametrize("q0,d", _CLOSURE_CELLS)
    def test_matches_full_group_action(self, quiver, q0, d):
        engine = BruteForceEngine(quiver, q0)
        data = engine.grade_data(d)
        orbit_of, reps, sizes = _group_orbit_partition(engine, d)
        assert data.reps == reps
        assert data.sizes == sizes
        assert data.orbit_of == _packed(engine, d, orbit_of)
        for c, rep in zip(data.classes, reps):
            assert engine.class_of_point(rep, d) == c

    @staticmethod
    def _check_nilpotent(engine, d):
        data = engine.grade_data(d)
        orbit_of, reps, sizes = _group_orbit_partition(engine, d)
        assert data.reps == reps
        assert data.sizes == sizes
        assert data.orbit_of == _packed(engine, d, orbit_of)

    @pytest.mark.parametrize("r,d", [(1, (n,)) for n in range(4)]
                             + [(2, d) for d in ((1, 0), (0, 2), (1, 1), (2, 1), (1, 2))])
    def test_nilpotent_cyclic_matches_full_group_action(self, r, d):
        self._check_nilpotent(BruteForceEngine(cyclic_quiver(r), 2, nilpotent=True), d)

    # n = 3 at q = 4 is left out: the oracle applies all 181,440 elements of
    # GL_3(F_4) to each orbit, about 20 s
    @pytest.mark.parametrize("q0,n", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_nilpotent_jordan_matches_full_group_action(self, q0, n):
        self._check_nilpotent(BruteForceEngine(jordan_quiver(), q0, nilpotent=True), (n,))

    def test_wrong_shape_is_rejected(self):
        engine = BruteForceEngine(kronecker_quiver(), 2)
        with pytest.raises(ValueError):
            engine.class_of_point((((0, 0),), ((0, 0),)), (1, 2))


def _lexicographic_scan(engine, d):
    """The nilpotent orbit partition as a scan of the whole variety finds it.

    Every flat point in lexicographic order; a non-nilpotent point is
    skipped, and an unseen nilpotent point closes its orbit under the
    engine's generators and is that orbit's representative.  Returns
    (orbit_of keyed by packed points, reps, sizes).
    """
    F = engine.field
    orbit_of, reps, sizes = {}, [], []
    for flat in product(range(F.q), repeat=engine._entry_count(d)):
        mats = _unflatten(engine, flat, d)
        point = engine._pack(mats, d)
        if point in orbit_of or not _is_nilpotent_cycle(F, mats, d):
            continue
        idx = len(reps)
        orbit_of[point] = idx
        queue = [point]
        size = 1
        while queue:
            x = queue.pop()
            for y in engine._moves(d, x):
                if y not in orbit_of:
                    orbit_of[y] = idx
                    size += 1
                    queue.append(y)
        reps.append(mats)
        sizes.append(size)
    return orbit_of, reps, sizes


_SEEDED_CELLS = (
    [(1, 2, (n,)) for n in range(5)] + [(1, 3, (n,)) for n in range(4)] + [(1, 4, (3,))]
    + [(2, 2, d) for d in ((1, 0), (0, 3), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2))]
    + [(2, 3, (2, 2)), (3, 2, (1, 1, 1)), (3, 2, (2, 2, 1)), (3, 3, (1, 1, 1)),
       (4, 2, (1, 1, 1, 1))]
)


class TestSeededNilpotentOrbits:
    @pytest.mark.parametrize("r,q0,d", _SEEDED_CELLS)
    def test_matches_lexicographic_scan(self, r, q0, d):
        engine = BruteForceEngine(cyclic_quiver(r), q0, nilpotent=True)
        data = engine.grade_data(d)
        orbit_of, reps, sizes = _lexicographic_scan(engine, d)
        assert data.reps == reps
        assert data.sizes == sizes
        assert data.orbit_of == orbit_of

    def test_jordan_seeds_are_strictly_upper_triangular(self):
        engine = BruteForceEngine(jordan_quiver(), 3, nilpotent=True)
        seeds = list(engine._iter_points((3,)))
        assert seeds == sorted(seeds) and len(seeds) == 3 ** 3
        assert all(X[r][c] == 0 for seed in seeds for (X,) in [engine._unpack(seed, (3,))]
                   for r in range(3) for c in range(r + 1))

    def test_point_cap_counts_nilpotent_matrices(self):
        # q^(n^2 - n) nilpotent matrices (Fine--Herstein): 3^12 fits under
        # the cap although the variety has 3^16 points, and 2^20 does not
        assert BruteForceEngine(jordan_quiver(), 3, nilpotent=True)._point_bound((4,)) == 3 ** 12
        engine = BruteForceEngine(jordan_quiver(), 2, nilpotent=True)
        with pytest.raises(ValueError, match="point cap"):
            engine.grade_data((5,))
        with pytest.raises(ValueError, match="point cap"):
            BruteForceEngine(jordan_quiver(), 3).grade_data((4,))


class TestAutOrders:
    def test_segment_examples(self):
        c2 = get_nilpotent_engine(2, 2)
        assert c2.aut_order(c2.segment_class(0, 2)) == 1  # q - 1
        c2q3 = get_nilpotent_engine(2, 3)
        ss = c2q3.make_class((((0, 1), 1), ((1, 1), 1)))
        assert c2q3.aut_order(ss) == 4  # (q-1)^2

    def test_gl2_from_semisimple(self):
        c1 = get_nilpotent_engine(1, 2)
        assert c1.aut_order(c1.make_class((((0, 1), 2),))) == 6

    @pytest.mark.parametrize("r,q0", [(r, q) for r in (1, 2, 3) for q in (2, 3)])
    def test_structured_matches_orbit_stabilizer(self, r, q0):
        engine = get_nilpotent_engine(r, q0)
        brute = get_brute_engine(cyclic_quiver(r), q0, nilpotent=True)
        for d in product(range(5), repeat=r):
            if not 0 < sum(d) <= 4:
                continue
            for c in engine.classes(d):
                mats, dims = engine.rep_point(c)
                assert engine.aut_order(c) == brute.aut_order_point(mats, dims), \
                    (r, q0, c.render())

    @pytest.mark.parametrize("r,q0", [(r, q) for r in (1, 2, 3) for q in (2, 3)])
    def test_both_walks_agree(self, r, q0, monkeypatch):
        """Counting the units of End and closing the orbit each give the
        closed-form order on the points of total dimension at most 4,
        whichever side the rule q^(2 dim End) <= |G_d| picks: a huge |G_d|
        forces the count, and the orbit is closed directly.  Each walk runs
        where it is short, End up to 2^12 elements and orbits up to 10^4
        points, which leaves no point unchecked."""
        engine = get_nilpotent_engine(r, q0)
        brute = BruteForceEngine(cyclic_quiver(r), q0, nilpotent=True)
        group_order = brute.group_order
        monkeypatch.setattr(brute, "group_order", lambda d: 10 ** 100)
        for d in product(range(5), repeat=r):
            if not 0 < sum(d) <= 4:
                continue
            for c in engine.classes(d):
                mats, dims = engine.rep_point(c)
                order, walks = engine.aut_order(c), 0
                if q0 ** engine.dim_end(c) <= 2 ** 12:
                    assert brute.aut_order_point(mats, dims) == order, c.render()
                    walks += 1
                if group_order(dims) // order <= 10 ** 4:
                    orbit = brute._orbits(dims, [brute._pack(mats, dims)], {})[1][0]
                    assert group_order(dims) // orbit == order, c.render()
                    walks += 1
                assert walks, c.render()

    def test_end_past_the_point_cap_is_refused(self, monkeypatch):
        """End(J_(3,1)) has 2^6 elements at q = 2 and 2^12 <= |GL_4(F_2)|,
        so its units are counted, and under a cap of 63 points refused."""
        from hallalg import repengine
        from hallalg.report import UsageError

        lam = Partition((3, 1))
        engine = BruteForceEngine(jordan_quiver(), 2, nilpotent=True)
        point = (jordan_matrix(lam),)
        monkeypatch.setattr(repengine, "POINT_CAP", 64)
        assert engine.aut_order_point(point, (4,)) == a_lambda(lam, 2) == 16
        monkeypatch.setattr(repengine, "POINT_CAP", 63)
        with pytest.raises(UsageError, match="endomorphisms of the point exceed the point cap"):
            engine.aut_order_point(point, (4,))

    def test_orbit_path_is_bounded_by_the_point_cap(self, monkeypatch):
        """End(J_(2,1,1,1)) has dimension 17 at q = 2, and 2^34 exceeds
        |GL_5(F_2)| = 9,999,360, so its Aut order comes from closing the
        orbit of 9,999,360 / 21,504 = 465 points."""
        from hallalg import repengine
        from hallalg.report import UsageError

        lam = Partition((2, 1, 1, 1))
        engine = BruteForceEngine(jordan_quiver(), 2, nilpotent=True)
        point = (jordan_matrix(lam),)
        assert engine.aut_order_point(point, (5,)) == a_lambda(lam, 2) == 21504
        monkeypatch.setattr(repengine, "POINT_CAP", 100)
        with pytest.raises(UsageError, match="point cap"):
            engine.aut_order_point(point, (5,))


class TestHallNumbers:
    def test_jordan_lines(self):
        c1 = get_nilpotent_engine(1, 2)
        i11 = c1.make_class((((0, 1), 2),))
        assert c1.hall_number(i11, c1.simple(0), c1.simple(0)) == 3  # q + 1

    def test_unique_socle_submodule(self):
        for q0 in (2, 3):
            c2 = get_nilpotent_engine(2, q0)
            s12 = c2.segment_class(0, 2)
            assert c2.hall_number(s12, c2.simple(0), c2.simple(1)) == 1
            assert c2.hall_number(s12, c2.simple(1), c2.simple(0)) == 0

    def test_zero_submodule(self):
        c2 = get_nilpotent_engine(2, 2)
        for d in ((1, 1), (2, 1)):
            for L in c2.classes(d):
                assert c2.hall_number(L, L, c2.zero_class()) == 1
                assert c2.hall_number(L, c2.zero_class(), L) == 1

    def test_grading_violation_gives_zero(self):
        c2 = get_nilpotent_engine(2, 2)
        s12 = c2.segment_class(0, 2)
        assert c2.hall_number(s12, c2.simple(0), c2.simple(0)) == 0

    def test_associativity_precursor(self):
        # sum_X F^L_{M,X} F^X_{N,P} = sum_Y F^L_{Y,P} F^Y_{M,N}
        engine = get_nilpotent_engine(2, 2)
        small = [engine.simple(0), engine.simple(1),
                 engine.segment_class(0, 2), engine.segment_class(1, 2)]
        for M in small:
            for N in small:
                for P in small:
                    target = add_dim(add_dim(M.grade, N.grade), P.grade)
                    if sum(target) > 5:
                        continue
                    for L in engine.classes(target):
                        lhs = sum(engine.hall_number(L, M, X)
                                  * engine.hall_number(X, N, P)
                                  for X in engine.classes(add_dim(N.grade, P.grade)))
                        rhs = sum(engine.hall_number(L, Y, P)
                                  * engine.hall_number(Y, M, N)
                                  for Y in engine.classes(add_dim(M.grade, N.grade)))
                        assert lhs == rhs


class TestOneHallNumber:
    """The nilpotent engine's hall_number walks only the submodules of N's
    rank table when L's table is not memoized."""

    @pytest.mark.parametrize("r,q0,top", [(1, 2, 6), (1, 3, 5), (2, 2, 5), (2, 3, 4),
                                          (3, 2, 5), (3, 3, 4), (4, 2, 4)])
    def test_equals_the_table_entry(self, r, q0, top):
        """For every L of total dimension <= top and every M, N of
        complementary sub-grades, including the pairs absent from L's table."""
        tables = NilpotentCyclicEngine(r, q0)
        engine = NilpotentCyclicEngine(r, q0)
        absent = 0
        for d in product(range(top + 1), repeat=r):
            if not 0 < sum(d) <= top:
                continue
            for L in tables.classes(d):
                table = tables.sub_table(L)
                for e in product(*(range(x + 1) for x in d)):
                    rest = tuple(a - b for a, b in zip(d, e))
                    for N in tables.classes(e):
                        for M in tables.classes(rest):
                            want = table.get((M.key, N.key), 0)
                            assert engine.hall_number(L, M, N) == want, (L, M, N)
                            absent += (M.key, N.key) not in table
        assert absent and not engine._subtables

    @pytest.mark.parametrize("r,q0,top", [(1, 2, 6), (2, 2, 4), (3, 3, 3)])
    def test_walk_yields_only_the_given_rank_table(self, r, q0, top):
        """_nilpotent_walk given a sub rank table yields the whole walk's
        counts of that rank table by quotient ranks, and nothing else."""
        from hallalg import repengine

        engine = NilpotentCyclicEngine(r, q0)
        for d in product(range(top + 1), repeat=r):
            if not 0 < sum(d) <= top:
                continue
            for L in engine.classes(d):
                point = (engine.field, engine.quiver) + engine.rep_point(L)
                whole = Counter()
                for quot, sub, count in repengine._nilpotent_walk(*point):
                    whole[sub, quot] += count
                for e in product(*(range(x + 1) for x in d)):
                    for N in engine.classes(e):
                        rank = repengine._ranks_of_multisegment(r, N.key)
                        walked = Counter()
                        for quot, sub, count in repengine._nilpotent_walk(*point, rank):
                            assert sub == rank
                            walked[sub, quot] += count
                        assert walked == Counter({k: n for k, n in whole.items()
                                                  if k[0] == rank}), (L, N)

    def test_cold_engine_walks_no_table(self, monkeypatch):
        walked = _count_walks(monkeypatch)
        engine = NilpotentCyclicEngine(1, 2)
        L, M, N = (engine.make_class(tuple(((0, l), 1) for l in parts))
                   for parts in ((5, 4, 3, 2, 1), (4, 3, 2, 1), (2, 1, 1, 1)))
        assert engine.hall_number(L, M, N) == 81
        assert walked == [] and not engine._subtables

    def test_filtered_walk_builds_no_cell_of_a_dimension_it_drops(self, monkeypatch):
        """(5,4,3,2,1,1,1,1) at q=2 is 8-dimensional at its socle, so the
        walk for N = (2,1,1,1,1) reads F_2^8 there, and keeps only its
        5-dimensional subspaces."""
        from hallalg import repengine

        requested = []
        cell = repengine._cell
        monkeypatch.setattr(repengine, "_cell",
                            lambda q, n, pivots: requested.append((n, pivots))
                            or cell(q, n, pivots))
        engine = NilpotentCyclicEngine(1, 2)
        L, M, N = (engine.make_class(tuple(((0, l), 1) for l in parts))
                   for parts in ((5, 4, 3, 2, 1, 1, 1, 1), (4, 3, 2, 1, 1, 1),
                                 (2, 1, 1, 1, 1)))
        assert engine.hall_number(L, M, N) == 5755
        wide = {pivots for n, pivots in requested if n == 8}
        assert wide and all(len(pivots) == 5 for pivots in wide)

    def test_memoized_table_is_read(self, monkeypatch):
        from hallalg import repengine

        engine = NilpotentCyclicEngine(2, 2)
        L = engine.make_class((((0, 2), 1), ((1, 1), 1)))
        M, N = engine.simple(1), engine.segment_class(0, 2)
        assert engine.hall_number(L, M, N) == 1
        engine.sub_table(L)
        engine._subtables[L.key] = {(M.key, N.key): 7}

        def refused(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(repengine, "_nilpotent_walk", refused)
        assert engine.hall_number(L, M, N) == 7
        assert engine.hall_number(L, N, M) == 0


def _reference_table(engine, mats, dims, classify):
    """Submodule table by a walk written apart from the engine's.

    Every tuple of subspaces from gf.subspaces is tried; a tuple is
    stable when, for every arrow, the images of the tail basis add
    nothing to the rank of the head basis.  Sub and quotient come from a
    change of basis: at each vertex the frame is the subspace basis
    followed by the unit vectors of the non-pivot columns, the arrow
    matrix is rewritten in the frames, and its upper-left block is the
    sub and its lower-right block the quotient.
    """
    from hallalg import gf

    F = engine.field
    arrows = engine.quiver.arrows

    def mul(A, B, rows, inner, cols):
        if rows == 0:
            return ()
        if inner == 0 or cols == 0:
            return tuple((0,) * cols for _ in range(rows))
        return mat_mul(F, A, B)

    def transpose(rows, n):
        return tuple(tuple(row[i] for row in rows) for i in range(n))

    per_vertex = [[b for k in range(n + 1) for b in gf.subspaces(F, n, k)] for n in dims]
    table = {}
    for bases in product(*per_vertex):
        stable = True
        for X, (t, h) in zip(mats, arrows):
            k_t, k_h = len(bases[t]), len(bases[h])
            images = mul(X, transpose(bases[t], dims[t]), dims[h], dims[t], k_t)
            stacked = tuple(bases[h]) + transpose(images, k_t)
            if stacked and gf.mat_rank(F, stacked) != k_h:
                stable = False
                break
        if not stable:
            continue
        frames, inverses = [], []
        for basis, n in zip(bases, dims):
            pivots = [row.index(1) for row in basis]
            units = tuple(tuple(int(j == c) for j in range(n))
                          for c in range(n) if c not in pivots)
            frame = transpose(tuple(basis) + units, n)  # frame vectors as columns
            frames.append(frame)
            inverses.append(mat_inverse(F, frame))
        sub_mats, quot_mats = [], []
        for X, (t, h) in zip(mats, arrows):
            n_t, n_h, k_t, k_h = dims[t], dims[h], len(bases[t]), len(bases[h])
            Y = mul(inverses[h], mul(X, frames[t], n_h, n_t, n_t), n_h, n_h, n_t)
            assert all(Y[i][j] == 0 for i in range(k_h, n_h) for j in range(k_t))
            sub_mats.append(tuple(tuple(Y[i][j] for j in range(k_t)) for i in range(k_h)))
            quot_mats.append(tuple(tuple(Y[i][j] for j in range(k_t, n_t))
                                   for i in range(k_h, n_h)))
        sub_dims = tuple(len(b) for b in bases)
        quot_dims = tuple(n - k for n, k in zip(dims, sub_dims))
        key = (classify(tuple(quot_mats), quot_dims), classify(tuple(sub_mats), sub_dims))
        table[key] = table.get(key, 0) + 1
    return table


_NIL_TABLE_CELLS = (
    [(1, q0, (n,)) for q0 in (2, 3, 4) for n in range(5)]
    + [(2, 2, d) for d in ((1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (3, 0))]
    + [(2, 3, d) for d in ((2, 1), (0, 2))]
    + [(3, 2, d) for d in ((1, 1, 1), (2, 1, 1), (1, 0, 1), (0, 2, 1))]
    + [(3, 3, (1, 1, 1))]
)

_BRUTE_TABLE_CELLS = [
    (quiver, q0, d)
    for quiver in (kronecker_quiver(), a2_quiver(), cyclic_quiver(2))
    for q0 in (2, 3)
    for d in ((1, 1), (2, 1), (1, 2), (0, 2), (2, 2))
    if q0 == 2 or d != (2, 2)
]


class TestSubmoduleTableAgainstReference:
    @pytest.mark.parametrize("r,q0,d", _NIL_TABLE_CELLS)
    def test_nilpotent_cyclic(self, r, q0, d):
        engine = NilpotentCyclicEngine(r, q0)
        classify = lambda m, dims: class_of_point(engine, m, dims).key
        for c in engine.classes(d):
            mats, dims = engine.rep_point(c)
            expected = _reference_table(engine, mats, dims, classify)
            assert engine.sub_table(c) == expected, c.render()

    @pytest.mark.parametrize("quiver,q0,d", _BRUTE_TABLE_CELLS,
                             ids=[f"{qv.name}-q{q0}-{d}" for qv, q0, d in _BRUTE_TABLE_CELLS])
    def test_brute_force(self, quiver, q0, d):
        engine = BruteForceEngine(quiver, q0)
        classify = lambda m, dims: (tuple(dims), engine.class_of_point(m, dims).key)
        for c in engine.classes(d):
            mats, dims = engine.rep_point(c)
            expected = _reference_table(engine, mats, dims, classify)
            assert engine.sub_table(c) == expected, c.render()


def _rotations(r, key):
    return [tuple(sorted((((i + k) % r, l), m) for (i, l), m in key)) for k in range(r)]


def _dihedral(r, key):
    """The 2r images of a multisegment under the dihedral group of C_r: the
    rotations, then the reflections i -> k - i, which send the segment (i, l)
    to (k - (i + l - 1), l)."""
    return _rotations(r, key) + [tuple(sorted((((k - i - l + 1) % r, l), m) for (i, l), m in key))
                                 for k in range(r)]


def _count_walks(monkeypatch):
    from hallalg import repengine

    walked = []
    original = repengine._submodule_table

    def counted(F, quiver, mats, dims, *rest):
        walked.append((mats, dims))
        return original(F, quiver, mats, dims, *rest)

    monkeypatch.setattr(repengine, "_submodule_table", counted)
    return walked


class TestRotatedTables:
    """The nilpotent engine walks one class per orbit of the dihedral group
    of C_r, its rotations and reflections, and relabels the table for the
    other classes of the orbit."""

    @pytest.mark.parametrize("r,q0,top", [(2, 2, 6), (2, 3, 5), (3, 2, 6), (3, 3, 5),
                                          (4, 2, 5), (4, 3, 5), (5, 2, 4)])
    def test_every_class_matches_its_own_walk(self, r, q0, top):
        from hallalg import repengine

        engine = NilpotentCyclicEngine(r, q0)
        classify = partial(repengine._multisegment_of_ranks, r)
        grades = [d for d in product(range(top + 1), repeat=r) if 0 < sum(d) <= top]
        if (r, q0) == (3, 2):
            grades += [(3, 2, 2), (2, 3, 2), (2, 2, 3)]
        classes = [c for d in grades for c in engine.classes(d)]
        # asymmetric classes and classes fixed by a rotation or reflection both occur
        fixed = [c for c in classes if len(set(_dihedral(r, c.key))) < 2 * r]
        assert fixed and len(fixed) < len(classes)
        if r == 2:
            assert engine.make_class((((0, 1), 1), ((1, 1), 1))) in fixed
        # some tables can only come through a reflection
        assert any(min(_dihedral(r, c.key)) < min(_rotations(r, c.key)) for c in classes)
        for c in reversed(classes):
            mats, dims = engine.rep_point(c)
            walked = repengine._submodule_table(engine.field, engine.quiver, mats, dims, {},
                                                classify, repengine._nilpotent_walk)
            assert engine.sub_table(c) == walked, c.render()

    def test_one_walk_per_rotation_orbit(self, monkeypatch):
        engine = NilpotentCyclicEngine(3, 2)
        walked = _count_walks(monkeypatch)
        classes = [c for d in ((3, 2, 2), (2, 3, 2), (2, 2, 3)) for c in engine.classes(d)]
        for c in classes:
            engine.sub_table(c)
        orbits = {min(_dihedral(3, c.key)) for c in classes}
        assert len(classes) == 162 and len(walked) == len(orbits) == 35
        assert {class_of_point(engine, *point).key for point in walked} == orbits
        # a warm engine walks nothing more
        for c in classes:
            engine.sub_table(c)
        assert len(walked) == 35

    def test_relabelled_keys_are_shared(self):
        engine = NilpotentCyclicEngine(3, 2)
        objects, words_of = {}, {}
        for d in ((3, 2, 2), (2, 3, 2), (2, 2, 3)):
            for c in engine.classes(d):
                keys = {key for pair in engine.sub_table(c) for key in pair}
                word = engine._canonical[c.key][1]
                if word:  # the table is relabelled
                    for key in keys:
                        objects.setdefault(key, set()).add(id(key))
                        words_of.setdefault(key, Counter())[word] += 1
        mixed = lambda word: len(set(word)) == 2  # the rotation and the reflection
        # some key is reached through tables carried by a rotation alone and
        # by words that mix both generators, and some through two tables
        # carried by one word; each is one object
        assert any(any(map(mixed, words)) and not all(map(mixed, words))
                   for words in words_of.values())
        assert any(n > 1 for words in words_of.values() for n in words.values())
        assert all(len(ids) == 1 for ids in objects.values())


def _k2_orbits(engine, grades):
    """The orbits of GL_2(F_q) x <D> on the K2 classes of the grades, which
    must be closed under (a, b) -> (b, a), as sets of (grade, key): every
    invertible [[a, b], [c, e]] sends (A, B) to (aA + bB, cA + eB), and D
    transposes both matrices and swaps the vertices."""
    F = engine.field
    add, _, mul, _ = F.tables
    group = [g for g in product(product(range(F.q), repeat=2), repeat=2)
             if F.sub(mul[g[0][0]][g[1][1]], mul[g[0][1]][g[1][0]])]
    orbits = {}
    for d in grades:
        for c in engine.classes(d):
            if (d, c.key) in orbits:
                continue
            A, B = engine.rep_point(c)[0]
            points = [((A, B), d),
                      (tuple(tuple(tuple(row[k] for row in X) for k in range(d[0]))
                             for X in (A, B)), (d[1], d[0]))]
            orbit = frozenset(
                (dims, engine.class_of_point(tuple(
                    tuple(tuple(add[mul[a][x]][mul[b][y]] for x, y in zip(u, v))
                          for u, v in zip(*mats)) for a, b in g), dims).key)
                for mats, dims in points for g in group)
            orbits.update((key, orbit) for key in orbit)
    return set(orbits.values())


class TestKroneckerSymmetricTables:
    """On K2 the brute-force engine walks one class per orbit of PGL_2(F_q),
    acting on the arrow space, and of the duality D, and carries its table
    to the other classes of the orbit."""

    @pytest.mark.parametrize("q0,top", [(2, 5), (3, 4)])
    def test_every_class_matches_its_own_walk(self, q0, top):
        from hallalg import repengine

        engine = BruteForceEngine(kronecker_quiver(), q0)
        classify = lambda point: (point[1], engine.class_of_point(*point).key)
        grades = [d for d in product(range(top + 1), repeat=2) if 0 < sum(d) <= top]
        orbits = _k2_orbits(engine, grades)
        # orbits across two grades (D) and within one grade (PGL_2) both occur
        assert any(len({d for d, _ in orbit}) == 2 for orbit in orbits)
        assert any(len(orbit) > len({d for d, _ in orbit}) for orbit in orbits)
        for d in reversed(grades):
            for c in engine.classes(d):
                mats, dims = engine.rep_point(c)
                walked = repengine._submodule_table(engine.field, engine.quiver, mats, dims,
                                                    {}, classify, repengine._product_walk)
                assert engine.sub_table(c) == walked, c.render()

    @pytest.mark.parametrize("q0,top,walks", [(2, 4, 19), (3, 3, 8)])
    def test_one_walk_per_symmetry_orbit(self, monkeypatch, q0, top, walks):
        engine = BruteForceEngine(kronecker_quiver(), q0)
        grades = [d for d in product(range(top + 1), repeat=2) if 0 < sum(d) <= top]
        orbits = _k2_orbits(engine, grades)
        walked = _count_walks(monkeypatch)
        classes = [c for d in grades for c in engine.classes(d)]
        for c in classes:
            engine.sub_table(c)
        assert len(walked) == len(orbits) == walks < len(classes)
        # the walked class of an orbit is its least (grade, key)
        assert ({(dims, engine.class_of_point(mats, dims).key) for mats, dims in walked}
                == {min(orbit) for orbit in orbits})
        # a warm engine walks nothing more
        for c in classes:
            engine.sub_table(c)
        assert len(walked) == walks


class TestEnginesWithoutSymmetries:
    """An engine whose classes have no symmetries walks every class's
    table itself, once."""

    @pytest.mark.parametrize("make,classify,top", [
        (lambda: NilpotentCyclicEngine(1, 2), lambda e, p: class_of_point(e, *p), 6),
        (lambda: BruteForceEngine(a2_quiver(), 2), lambda e, p: e.class_of_point(*p), 4),
        (lambda: BruteForceEngine(cyclic_quiver(2), 2), lambda e, p: e.class_of_point(*p), 4),
    ], ids=["C1", "A2", "c2full"])
    def test_each_class_is_walked_once(self, monkeypatch, make, classify, top):
        engine = make()
        assert not engine._symmetries
        grades = [d for d in product(range(top + 1), repeat=engine.quiver.nv)
                  if 0 < sum(d) <= top]
        classes = [c for d in grades for c in engine.classes(d)]
        walked = _count_walks(monkeypatch)
        for c in classes:
            engine.sub_table(c)
        assert sorted(classify(engine, point) for point in walked) == sorted(classes)
        # a warm engine walks none
        for c in classes:
            engine.sub_table(c)
        assert len(walked) == len(classes) > 20


class TestSubmoduleWalkOnRandomMultisegments:
    """The nilpotent engine's tables, which walk T(U), against the
    reference walk over every subspace tuple, on random classes of C1, C2
    and C3."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_counts_match_the_reference(self, data):
        r = data.draw(st.sampled_from((1, 2, 3)), label="r")
        q0 = data.draw(st.sampled_from((2, 3, 4)), label="q")
        budget = data.draw(st.integers(1, 5 if q0 == 2 else 4), label="dimension")
        segments = []
        while budget:
            length = data.draw(st.integers(1, budget))
            segments.append(((data.draw(st.integers(0, r - 1)), length), 1))
            budget -= length
        engine = NilpotentCyclicEngine(r, q0)
        c = engine.make_class(segments)
        mats, dims = engine.rep_point(c)
        classify = lambda m, d: class_of_point(engine, m, d).key
        expected = _reference_table(engine, mats, dims, classify)
        assert engine.sub_table(c) == expected, c.render()

    @pytest.mark.parametrize("r,q0,d", [(1, 3, (5,)), (1, 2, (6,)), (1, 4, (5,)),
                                        (2, 2, (4, 3)), (1, 3, (6,)), (3, 2, (2, 2, 2)),
                                        (1, 2, (3,)), (2, 3, (2, 1)), (3, 2, (1, 0, 1)),
                                        (4, 2, (1, 1, 1, 1))])
    def test_sub_table_agrees_with_the_product_walk(self, monkeypatch, r, q0, d):
        """At the top level of the walk over T(U), V = 0 counts the U_i by
        pivot cells, and a nonzero V, which T does not map onto itself,
        lists the W that pass the onto test: a grade with classes that
        are not semisimple takes both.  The small grades, down to one
        with a zero vertex, walk T(U) as the large ones do."""
        from hallalg import repengine

        engine = NilpotentCyclicEngine(r, q0)
        classify = lambda point: class_of_point(engine, *point).key
        counted = []
        cells = repengine._pivot_cells
        monkeypatch.setattr(repengine, "_pivot_cells",
                            lambda q, n: counted.append(n) or cells(q, n))
        for c in engine.classes(d):
            mats, dims = engine.rep_point(c)
            walked = repengine._submodule_table(engine.field, engine.quiver, mats, dims,
                                                {}, classify, repengine._product_walk)
            assert engine.sub_table(c) == walked, c.render()
        assert counted

    @pytest.mark.parametrize("r,q0,d", [(1, 2, (6,)), (2, 2, (4, 3))])
    def test_walk_over_T_U_builds_and_identifies_no_point(self, monkeypatch, r, q0, d):
        from hallalg import repengine

        def refused(*args):
            raise AssertionError("a point or an image table was built")

        engine = NilpotentCyclicEngine(r, q0)
        monkeypatch.setattr(repengine, "_sub_quotient_point", refused)
        monkeypatch.setattr(repengine, "_image_codes", refused)
        assert all(engine.sub_table(c) for c in engine.classes(d))
        assert engine._rank_classes
        assert not hasattr(engine, "class_of_point")

    def test_a_basis_not_ordered_by_height_is_refused(self):
        from hallalg import repengine
        from hallalg.report import InternalCheckError

        engine = NilpotentCyclicEngine(1, 2)
        c = engine.make_class((((0, 2), 2),))
        classify = partial(repengine._multisegment_of_ranks, 1)
        # 2*S1[2] with each segment's vectors adjacent: J maps e0 to e1 and
        # e2 to e3, so the image of J is not a tail of the basis
        J = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0))
        assert class_of_point(engine, (J,), (4,)) == c
        with pytest.raises(InternalCheckError, match="not a tail of the basis"):
            repengine._submodule_table(engine.field, engine.quiver, (J,), (4,), {},
                                       classify, repengine._nilpotent_walk)
        # in height order, as rep_point builds it, J maps e0 to e2 and e1 to e3
        assert engine.rep_point(c) == ((((0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0),
                                         (0, 1, 0, 0)),), (4,))
        mats, dims = engine.rep_point(c)
        assert repengine._submodule_table(engine.field, engine.quiver, mats, dims, {},
                                          classify, repengine._nilpotent_walk) == \
            _reference_table(engine, mats, dims,
                             lambda m, d: class_of_point(engine, m, d).key)


def _riedtmann_sums(engine, d):
    """sum_L F^L_{M,N} a_M a_N / a_L over the classes L of grade d, for
    every pair (M, N) that some table of grade d counts."""
    sums = {}
    for L in engine.classes(d):
        for (m, n), count in engine.sub_table(L).items():
            sums[m, n] = sums.get((m, n), 0) + Fraction(count, engine.aut_order(L))
    out = {}
    for (m, n), value in sums.items():
        M, N = engine.class_from_key(m), engine.class_from_key(n)
        out[M, N] = value * engine.aut_order(M) * engine.aut_order(N)
    return out


def _grades_up_to(nv, total):
    return [d for d in product(range(total + 1), repeat=nv) if sum(d) <= total]


_RIEDTMANN_CELLS = (
    [(lambda: BruteForceEngine(kronecker_quiver(), 2), d) for d in _grades_up_to(2, 5)]
    + [(lambda: BruteForceEngine(a2_quiver(), 3), d) for d in _grades_up_to(2, 4)]
    + [(lambda: BruteForceEngine(cyclic_quiver(2), 2), d) for d in _grades_up_to(2, 4)]
    + [(lambda: BruteForceEngine(jordan_quiver(), 2, nilpotent=True), (n,)) for n in range(5)]
    + [(lambda: NilpotentCyclicEngine(1, 2), (6,)), (lambda: NilpotentCyclicEngine(1, 3), (5,)),
       (lambda: NilpotentCyclicEngine(2, 2), (4, 3)),
       (lambda: NilpotentCyclicEngine(3, 2), (3, 3, 2))]
    + [(lambda: NilpotentCyclicEngine(2, 3), d) for d in _grades_up_to(2, 4)]
    + [(lambda: NilpotentCyclicEngine(3, 2), d) for d in _grades_up_to(3, 4)]
    + [(lambda: NilpotentCyclicEngine(4, 2), d) for d in _grades_up_to(4, 4)]
)


class TestRiedtmannSums:
    """Riedtmann's formula summed over L: in a hereditary category
    sum_L F^L_{M,N} a_M a_N / a_L = |Ext^1(M,N)| / |Hom(M,N)|
    = q^(-<dim M, dim N>).  Every term is positive, so one wrong table
    entry or automorphism order changes a sum; the tables are checked
    against a count that takes no submodule."""

    @pytest.mark.parametrize("make,d", _RIEDTMANN_CELLS, ids=[
        f"{make().engine_id.replace('|', '-')}-{d}" for make, d in _RIEDTMANN_CELLS])
    def test_every_pair_of_a_grade(self, make, d):
        engine = make()
        sums = _riedtmann_sums(engine, d)
        pairs = {(M, N) for e in product(*(range(n + 1) for n in d))
                 for M in engine.classes(e)
                 for N in engine.classes(tuple(n - m for n, m in zip(d, e)))}
        assert set(sums) == pairs
        q0 = engine.q0
        for (M, N), value in sums.items():
            assert value == Fraction(q0) ** -euler_form(engine.quiver, M.grade, N.grade), \
                (M.render(), N.render())


def _gaussian_binomial(n, k, q):
    top = bottom = 1
    for i in range(k):
        top *= q ** (n - i) - 1
        bottom *= q ** (i + 1) - 1
    return top // bottom


class TestSemisimpleTables:
    """A semisimple L has T(L) = 0, so its table is the walk's top level
    alone with no onto test: it counts pivot cells and lists nothing."""

    @pytest.fixture
    def unlisted(self, monkeypatch):
        """Refuse every cell of F_q^n for the given n."""
        from hallalg import repengine

        def refuse(n):
            listed = repengine._cell

            def guarded(q, m, pivots):
                if m == n:
                    raise AssertionError(f"listed subspaces of F_{q}^{m}")
                return listed(q, m, pivots)

            monkeypatch.setattr(repengine, "_cell", guarded)

        return refuse

    def test_jordan_table_is_gaussian_binomials(self, unlisted):
        unlisted(6)
        engine = NilpotentCyclicEngine(1, 3)
        c = engine.make_class((((0, 1), 6),))
        table = engine.sub_table(c)
        assert table == {((((0, 1), 6 - k),) if k < 6 else (), (((0, 1), k),) if k else ()):
                         _gaussian_binomial(6, k, 3) for k in range(7)}
        assert table[(((0, 1), 3),), (((0, 1), 3),)] == 33880

    def test_c2_table_is_a_product_of_gaussian_binomials(self, unlisted):
        from hallalg import repengine

        unlisted(3)
        engine = NilpotentCyclicEngine(2, 2)
        c = engine.make_class(parse_multisegment("3*S1[1]+3*S2[1]", 2))
        mats, dims = engine.rep_point(c)
        table = repengine._submodule_table(
            engine.field, engine.quiver, mats, dims, {},
            partial(repengine._multisegment_of_ranks, 2), repengine._nilpotent_walk)

        def semisimple(a, b):
            return repengine.ms_canonical([((0, 1), a), ((1, 1), b)])

        assert table == {(semisimple(3 - a, 3 - b), semisimple(a, b)):
                         _gaussian_binomial(3, a, 2) * _gaussian_binomial(3, b, 2)
                         for a in range(4) for b in range(4)}

    def test_count_past_the_point_cap_is_refused_as_a_cell_is(self):
        """At q=5 the 3,583,232 subspaces of F_5^6 are neither listed nor
        counted: the table exits with a cell's usage error."""
        from hallalg import repengine
        from hallalg.report import UsageError

        engine = NilpotentCyclicEngine(1, 5)
        c = engine.make_class((((0, 1), 6),))
        message = "the subspaces of F_5^6 exceed the point cap"
        with pytest.raises(UsageError) as listed:
            repengine._cell(5, 6, ())
        with pytest.raises(UsageError) as counted:
            engine.sub_table(c)
        assert str(listed.value) == str(counted.value) == message


_CELL_SPACES = [(q0, n) for q0 in (2, 3, 4, 5, 7, 8, 9) for n in range(6 if q0 <= 4 else 4)]


class TestSubspaceCells:
    @pytest.mark.parametrize("q0,n", _CELL_SPACES)
    def test_cells_in_pivot_order_are_gf_subspaces(self, q0, n):
        """Concatenated in _pivot_cells order, the cells list every
        subspace of F_q^n in gf.subspaces order, dimension by dimension."""
        from hallalg import gf, repengine
        from hallalg.gf import FieldSpec

        F = FieldSpec.from_order(q0)
        vectors = repengine._vector_cache(F, n)[0]
        for k in range(n + 1):
            listed = [tuple(map(vectors.__getitem__, codes))
                      for pivots in repengine._pivot_cells(q0, n) if len(pivots) == k
                      for codes in repengine._cell(q0, n, pivots)]
            assert listed == list(gf.subspaces(F, n, k)), k

    @pytest.mark.parametrize("q0,n", _CELL_SPACES)
    def test_cell_sizes_are_the_pivot_cells(self, q0, n):
        from hallalg import repengine

        cells = repengine._pivot_cells(q0, n)
        assert all(len(repengine._cell(q0, n, pivots)) == size
                   for pivots, size in cells.items())
        assert sum(cells.values()) == repengine._subspace_count(q0, n)

    def test_counts_quoted_at_the_walk_threshold(self):
        from hallalg import repengine

        assert repengine._subspace_count(2, 5) == 374
        assert repengine._subspace_count(3, 5) == 2664

    def test_cell_past_the_point_cap_is_refused_before_listing(self, monkeypatch):
        """F_5^6 has 3,583,232 subspaces: a cell of it is refused before a
        single vector or code is built."""
        from hallalg import repengine
        from hallalg.report import UsageError

        def no_listing(*args):
            raise AssertionError("listed past the subspace cap")

        monkeypatch.setattr(repengine, "_vector_cache", no_listing)
        monkeypatch.setattr(repengine, "product", no_listing)
        assert repengine._subspace_count(4, 6) <= repengine.POINT_CAP
        assert repengine._subspace_count(5, 6) == 3583232 > repengine.POINT_CAP
        for pivots in ((), (0, 1, 2)):
            with pytest.raises(UsageError, match="point cap"):
                repengine._cell(5, 6, pivots)

    def test_product_walk_entries_of_a_cell_share_one_pivot_pair(self, monkeypatch):
        """On the zero point of K2 at (4, 1) every subspace tuple is a
        submodule, so the walk hands every entry of F_2^4 to
        _sub_quotient_point; the entries of one cell share its (pivots,
        nonpivots) tuples."""
        from hallalg import repengine
        from hallalg.gf import FieldSpec

        shared = {}
        point = repengine._sub_quotient_point

        def record(arrows, vectors, images, choice, sub, mul):
            _, _, pivots, nonpivots = choice[0]
            first = shared.setdefault(pivots, (pivots, nonpivots))
            assert first[0] is pivots and first[1] is nonpivots
            return point(arrows, vectors, images, choice, sub, mul)

        monkeypatch.setattr(repengine, "_sub_quotient_point", record)
        zero = ((0, 0, 0, 0),)
        walked = list(repengine._product_walk(FieldSpec.from_order(2), kronecker_quiver(),
                                              (zero, zero), (4, 1)))
        assert len(walked) == repengine._subspace_count(2, 4) * 2
        assert len(shared) == 16
        assert shared[()] == ((), (0, 1, 2, 3))
        assert shared[(1, 3)] == ((1, 3), (0, 2))


_MEMO_CELLS = [
    # (engine factory, grades built first, grade compared); the nilpotent
    # tables walk T(U) and name rank tables, the Kronecker tables walk the
    # product of subspace lists and name points
    (lambda: NilpotentCyclicEngine(1, 3), [(3,), (4,)], (5,)),
    (lambda: NilpotentCyclicEngine(2, 3), [(1, 1), (2, 1), (1, 2)], (2, 2)),
    (lambda: NilpotentCyclicEngine(3, 2), [(1, 1, 1), (2, 1, 1), (1, 2, 1)], (2, 2, 1)),
    (lambda: BruteForceEngine(kronecker_quiver(), 2), [(1, 1), (2, 1), (1, 2)], (2, 2)),
]


def _count_classifications(engine, monkeypatch):
    """Record the invariants the engine's tables classify: the rank tables
    a nilpotent engine reads multisegments off, the points a brute-force
    engine's class_of_point is called on."""
    from hallalg import repengine

    calls = []
    if isinstance(engine, NilpotentCyclicEngine):
        original = repengine._multisegment_of_ranks

        def counted(r, rank):
            calls.append(rank)
            return original(r, rank)

        monkeypatch.setattr(repengine, "_multisegment_of_ranks", counted)
    else:
        original = engine.class_of_point

        def counted(mats, dims):
            calls.append((mats, tuple(dims)))
            return original(mats, dims)

        monkeypatch.setattr(engine, "class_of_point", counted)
    return calls


class TestPointClassMemo:
    """Each engine keeps one invariant -> class memo over all its tables:
    rank tables on the nilpotent engine, points on the brute-force one."""

    @pytest.mark.parametrize("make,warm,d", _MEMO_CELLS,
                             ids=["C1-q3-(5,)", "C2-q3-(2,2)", "C3-q2-(2,2,1)",
                                  "K2-q2-(2,2)"])
    def test_warm_engine_matches_fresh_engine(self, make, warm, d):
        engine = make()
        for grade in warm:
            for c in engine.classes(grade):
                engine.sub_table(c)
        nilpotent = isinstance(engine, NilpotentCyclicEngine)
        assert engine._rank_classes if nilpotent else engine._point_classes
        for i, c in enumerate(engine.classes(d)):
            fresh = make()
            expected = fresh.sub_table(fresh.classes(d)[i])
            assert engine.sub_table(c) == expected, c.render()

    @pytest.mark.parametrize("make,d", [
        (lambda: NilpotentCyclicEngine(1, 2), (2,)),
        (lambda: NilpotentCyclicEngine(2, 3), (1, 1)),
        (lambda: BruteForceEngine(kronecker_quiver(), 2), (1, 1)),
    ], ids=["C1-q2", "C2-q3", "K2-q2"])
    def test_one_classification_per_distinct_point(self, monkeypatch, make, d):
        alone = make()
        alone_calls = _count_classifications(alone, monkeypatch)
        alone.sub_table(alone.classes(d)[1])
        # the second engine's calls are counted on their own
        monkeypatch.undo()
        engine = make()
        calls = _count_classifications(engine, monkeypatch)
        first, second = engine.classes(d)[:2]
        engine.sub_table(first)
        first_points = set(calls)
        assert first_points & set(alone_calls), "the two tables share no point"
        engine.sub_table(second)
        assert len(calls) == len(set(calls))
        assert set(calls[len(first_points):]) == set(alone_calls) - first_points

    def test_engines_of_different_q_keep_their_own_classes(self):
        for q0 in (3, 2):
            engine = BruteForceEngine(kronecker_quiver(), q0)
            classify = lambda m, dims: (tuple(dims), engine.class_of_point(m, dims).key)
            for d in ((1, 1), (2, 1), (1, 2)):
                for c in engine.classes(d):
                    mats, dims = engine.rep_point(c)
                    expected = _reference_table(engine, mats, dims, classify)
                    assert engine.sub_table(c) == expected, \
                        (q0, c.render())


class TestHomAndSocle:
    @pytest.mark.parametrize("r,q0", [(r, q) for r in (1, 2, 3) for q in (2, 3)])
    def test_hom_rule_matches_linear_solve(self, r, q0):
        engine = get_nilpotent_engine(r, q0)
        segments = [engine.segment_class(i, l)
                    for i in range(r) for l in range(1, 5)]
        for c1 in segments:
            for c2 in segments:
                assert engine.hom_dim(c1, c2) == hom_dim_solve(engine, c1, c2)

    def test_hom_closed_form_matches_the_sum(self):
        for r in range(1, 7):
            for seg1 in product(range(r), range(1, 15)):
                for seg2 in product(range(r), range(1, 15)):
                    assert hom_dim_segments(r, seg1, seg2) == \
                        hom_dim_segments_sum(r, seg1, seg2), (r, seg1, seg2)

    def test_hom_examples(self):
        c2 = get_nilpotent_engine(2, 2)
        assert c2.hom_dim(c2.segment_class(0, 2), c2.segment_class(0, 2)) == 1
        assert c2.hom_dim(c2.simple(0), c2.simple(1)) == 0
        c1 = get_nilpotent_engine(1, 2)
        i11 = c1.make_class((((0, 1), 2),))
        assert c1.hom_dim(i11, i11) == 4

    def test_socle_examples(self):
        c2 = get_nilpotent_engine(2, 2)
        assert c2.socle(c2.segment_class(0, 2)) == (0, 1)
        assert c2.socle(c2.make_class((((0, 1), 1), ((1, 1), 1)))) == (1, 1)
        c1 = get_nilpotent_engine(1, 2)
        assert c1.socle(c1.make_class((((0, 2), 1), ((0, 1), 1)))) == (2,)

    @pytest.mark.parametrize("r,q0", [(r, q) for r in (2, 3) for q in (2, 3)])
    def test_socle_rule_matches_kernel(self, r, q0):
        engine = get_nilpotent_engine(r, q0)
        for d in product(range(5), repeat=r):
            if not 0 < sum(d) <= 4:
                continue
            for c in engine.classes(d):
                assert engine.socle(c) == socle_solve(engine, c)


class TestKroneckerHelpers:
    def test_regular_count_q2(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        regs = kronecker_regular_classes(engine, 1)
        assert len(regs) == 3  # P^1(F_2)
        non_reg = [c for c in engine.classes((1, 1)) if c not in regs]
        assert len(non_reg) == 1  # S1 + S2

    def test_regular_count_q3(self):
        engine = get_brute_engine(kronecker_quiver(), 3)
        assert len(kronecker_regular_classes(engine, 1)) == 4  # P^1(F_3)

    def test_matrix_constructors(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        lam = Partition((2, 1))
        J, I = jordan_matrix(lam), mat_identity(3)
        zero = kronecker_tube_class(engine, (0, 1), lam)
        infinity = kronecker_tube_class(engine, None, lam)
        assert zero == engine.class_of_point((I, J), (3, 3))
        assert infinity == engine.class_of_point((J, I), (3, 3))
        assert zero != infinity
        assert is_regular_kronecker(engine, zero)
        assert is_regular_kronecker(engine, infinity)

    def test_companion_matrices(self):
        # x^2 + x + 1 over F_2 gives C(f) = [[0, 1], [1, 1]]; x + 1 over F_3
        # gives C((x + 1)^2) = C(x^2 + 2x + 1) = [[0, 2], [1, 1]]
        k2 = get_brute_engine(kronecker_quiver(), 2)
        assert kronecker_tube_class(k2, (1, 1, 1), Partition((1,))) == k2.class_of_point(
            (mat_identity(2), ((0, 1), (1, 1))), (2, 2))
        k3 = get_brute_engine(kronecker_quiver(), 3)
        assert kronecker_tube_class(k3, (1, 1), Partition((2,))) == k3.class_of_point(
            (mat_identity(2), ((0, 2), (1, 1))), (2, 2))

    @pytest.mark.parametrize("q0", (2, 3, 4))
    def test_closed_points(self, q0):
        assert kronecker_points(q0, 1) == [None] + [(a, 1) for a in range(q0)]
        for d in (2, 3):
            assert len(kronecker_points(q0, d)) == phi_irreducible_count(d, q0)
        with pytest.raises(ValueError):
            kronecker_points(q0, 4)

    def test_closed_points_q2(self):
        assert kronecker_points(2, 2) == [(1, 1, 1)]
        assert kronecker_points(2, 3) == [(1, 0, 1, 1), (1, 1, 0, 1)]

    @pytest.mark.parametrize("q0,n,count", [(2, 1, 3), (2, 2, 10), (2, 3, 27), (3, 1, 4),
                                            (3, 2, 17), (4, 1, 5), (4, 2, 26)])
    def test_regular_count_is_the_tube_generating_function(self, q0, n, count):
        # t^n coefficient of prod_d P(t^d)^(N_d), P the partition generating
        # function, N_1 = q + 1 and N_d = phi_d(q): one tube per closed point
        series = [1] + [0] * n
        for d in range(1, n + 1):
            for _ in range(q0 + 1 if d == 1 else phi_irreducible_count(d, q0)):
                for k in range(d, n + 1, d):
                    for i in range(k, n + 1):
                        series[i] += series[i - k]
        assert series[n] == count
        engine = get_brute_engine(kronecker_quiver(), q0)
        assert len(kronecker_regular_classes(engine, n)) == count

    @pytest.mark.parametrize("q0,d", [(2, (1, 1)), (2, (2, 2)), (2, (2, 3)), (2, (3, 2)),
                                      (2, (3, 3)), (2, (2, 4)), (3, (2, 2))])
    def test_class_count_is_kroneckers(self, q0, d):
        """Kronecker's classification counts the classes with no orbit.

        The indecomposables are one preprojective at (n, n+1) and one
        preinjective at (n+1, n) for each n >= 0, and at (n, n), n >= 1, one
        regular module per closed point of P^1 of degree dividing n: q + 1
        of degree 1 and phi_irreducible_count(s, q) of degree s >= 2.  A
        class is a multiset of them, counted item by item as in a coin
        change with unlimited coins.
        """
        a, b = d
        kinds = []
        for n in range(max(a, b) + 1):
            kinds += [(n, n + 1), (n + 1, n)]
            if n:
                kinds += [(n, n)] * sum(q0 + 1 if s == 1 else phi_irreducible_count(s, q0)
                                        for s in range(1, n + 1) if n % s == 0)
        count = [[1 if (i, j) == (0, 0) else 0 for j in range(b + 1)] for i in range(a + 1)]
        for x, y in kinds:
            for i in range(x, a + 1):
                for j in range(y, b + 1):
                    count[i][j] += count[i - x][j - y]
        engine = get_brute_engine(kronecker_quiver(), q0)
        assert len(engine.classes(d)) == count[a][b]

    def test_regular_needs_a_square_grade(self):
        engine = get_brute_engine(kronecker_quiver(), 2)
        for d in ((1, 0), (0, 1), (2, 1), (1, 2)):
            assert not any(is_regular_kronecker(engine, c) for c in engine.classes(d))
        assert is_regular_kronecker(engine, engine.zero_class())

    def test_jordan_matrix(self):
        assert jordan_matrix(Partition((2, 1))) == ((0, 0, 0), (1, 0, 0), (0, 0, 0))


class TestHallPolynomial:
    def test_lines(self):
        poly = hall_polynomial(1, (((0, 1), 2),), (((0, 1), 1),), (((0, 1), 1),))
        assert poly.render() == "q+1"
        # evaluates back to the sampled counts 3, 4, 6 at q = 2, 3, 5
        for q0, count in ((2, 3), (3, 4), (5, 6)):
            assert poly.evaluate(q0) == count

    def test_unique_submodule(self):
        poly = hall_polynomial(1, (((0, 2), 1),), (((0, 1), 1),), (((0, 1), 1),))
        assert poly.render() == "1"

    def test_c2_extension(self):
        poly = hall_polynomial(
            2, (((0, 1), 1), ((1, 1), 1)), (((0, 1), 1),), (((1, 1), 1),))
        assert poly.render() == "1"

    @pytest.mark.parametrize("lam,mu,nu,degree", [
        ((2, 1, 1), (2, 1), (1,), 2),
        ((2, 1, 1), (1, 1), (2,), 2),
        ((2, 2), (2, 1), (1,), 1),
        ((3, 1), (3,), (1,), 1),
        ((4,), (3,), (1,), 0),
        ((1, 1, 1), (1, 1), (1,), 2),
    ])
    def test_default_bound_is_macdonald_plus_check_sample(self, monkeypatch, lam, mu, nu,
                                                          degree):
        from hallalg import repengine

        fits = []

        def recording(points, degree_bound):
            fits.append((len(points), degree_bound))
            return interpolate_q(points, degree_bound)

        monkeypatch.setattr(repengine, "interpolate_q", recording)
        key = lambda parts: tuple(sorted(((0, p), parts.count(p)) for p in set(parts)))
        L, M, N = key(lam), key(mu), key(nu)
        poly = hall_polynomial(1, L, M, N)
        assert fits == [(degree + 2, degree)]
        wide = sum(mu) * sum(nu)  # dim M * dim N, the bound this default replaced
        assert hall_polynomial(1, L, M, N, degree_bound=wide).coeffs == poly.coeffs
        assert fits[-1] == (wide + 2, wide)

    def test_c2_takes_per_vertex_bound(self, monkeypatch):
        from hallalg import repengine

        fits = []

        def recording(points, degree_bound):
            fits.append((len(points), degree_bound))
            return interpolate_q(points, degree_bound)

        monkeypatch.setattr(repengine, "interpolate_q", recording)
        # L = S1[2] + S1[1] has d = (2, 1); M = S1[1], N = S1[2]: sum_i m_i n_i = 1
        L, M, N = (((0, 1), 1), ((0, 2), 1)), (((0, 1), 1),), (((0, 2), 1),)
        poly = hall_polynomial(2, L, M, N)
        assert fits == [(3, 1)]
        engine = NilpotentCyclicEngine(2, 5)
        assert poly.evaluate(5) == engine.hall_number(
            engine.class_from_key(L), engine.class_from_key(M), engine.class_from_key(N))

    @pytest.mark.parametrize("r,d", [(2, (2, 2)), (2, (3, 1)), (2, (3, 2)), (2, (1, 4)),
                                     (3, (1, 2, 1)), (3, (2, 0, 2)), (3, (2, 2, 1))])
    def test_riedtmann_bound_covers_the_interpolated_degree(self, r, d):
        """Each Hall polynomial of grade d, interpolated under the bound
        sum_i dim M_i dim N_i, has degree at most _hall_degree_bound."""
        from hallalg import repengine

        engines = {}
        tighter = 0
        for L in NilpotentCyclicEngine(r, 2).classes(d):
            pairs = set()
            for q0 in repengine._PRIME_POWERS[:sum(d) ** 2 // 4 + 2]:
                engine = engines.setdefault(q0, NilpotentCyclicEngine(r, q0))
                pairs |= set(engine.sub_table(engine.class_from_key(L.key)))
            for M, N in pairs:
                wide = sum(m * n for m, n in zip(repengine.ms_dim_vector(M, r),
                                                 repengine.ms_dim_vector(N, r)))
                samples = [(q0, engines[q0].sub_table(engines[q0].class_from_key(L.key))
                            .get((M, N), 0)) for q0 in repengine._PRIME_POWERS[:wide + 2]]
                degree = max(interpolate_q(samples, wide).coeffs, default=0)
                bound = repengine._hall_degree_bound(r, L.key, M, N)
                assert degree <= bound <= wide, (L.render(), M, N)
                tighter += bound < wide
        assert tighter

    def test_jordan_321_triple(self):
        L = (((0, 1), 1), ((0, 2), 1), ((0, 3), 1))
        M = N = (((0, 1), 1), ((0, 2), 1))
        assert hall_polynomial(1, L, M, N).render() == "2*q^2+q-1"

    @pytest.mark.parametrize("q0,count", [(4, 35), (5, 54)])
    def test_jordan_321_counts(self, q0, count):
        engine = NilpotentCyclicEngine(1, q0)
        L = engine.make_class((((0, 1), 1), ((0, 2), 1), ((0, 3), 1)))
        M = engine.make_class((((0, 1), 1), ((0, 2), 1)))
        assert engine.hall_number(L, M, M) == count

    def test_evaluates_to_hall_numbers(self):
        L, M, N = (((0, 2), 1), ((0, 1), 1)), (((0, 1), 1),), (((0, 2), 1),)
        poly = hall_polynomial(1, L, M, N)
        for q0 in (2, 3, 4, 5):
            engine = NilpotentCyclicEngine(1, q0)
            assert poly.evaluate(q0) == engine.hall_number(
                engine.class_from_key(L), engine.class_from_key(M),
                engine.class_from_key(N))


class TestTextForms:
    def test_multisegment_render(self):
        assert multisegment_str((((0, 2), 1), ((1, 1), 1))) == "S1[2]+S2[1]"
        assert multisegment_str((((0, 3), 2),)) == "2*S1[3]"
        assert multisegment_str(()) == "0"

    def test_multisegment_parse(self):
        assert parse_multisegment("S1[2]+S2[1]", 2) == (((0, 2), 1), ((1, 1), 1))
        assert parse_multisegment("2*S1[3]", 2) == (((0, 3), 2),)
        assert parse_multisegment("0", 2) == ()

    def test_parse_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            parse_multisegment("S3[1]", 2)

    def test_orbit_class_render(self):
        engine = BruteForceEngine(kronecker_quiver(), 2)
        cls = engine.classes((1, 1))[3]
        assert cls.render() == "Q:K2|q:2|d:(1,1)|#3"

    def test_render_stable_across_instances(self):
        a = BruteForceEngine(kronecker_quiver(), 2)
        b = BruteForceEngine(kronecker_quiver(), 2)
        assert [c.render() for c in a.classes((2, 1))] == \
            [c.render() for c in b.classes((2, 1))]
