import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hallalg.coeffring import (
    CycloSqrt,
    QPolynomial,
    SqrtExt,
    interpolate_q,
    quantum_factorial,
    v_power,
)
from hallalg.partitions import Partition, a_lambda, phi_irreducible_count
from hallalg.primitives import p_jordan_symbolic
from reference_impl import is_rational

Q0S = (2, 3, 4, 5)


def random_sqrtext(rng, q0):
    return SqrtExt(q0, Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                   Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


class TestRationalFunctionArithmetic:
    """Identities of rational functions in v, checked as values at
    v = sqrt(q0): Q(sqrt(q0)) is where every such value is computed."""

    def test_difference_of_squares(self):
        for q0 in Q0S:
            v, vi = v_power(1, q0), v_power(-1, q0)
            assert (v - vi) * (v + vi) == v_power(2, q0) - v_power(-2, q0)

    def test_q_substitution(self):
        # q^2/(q-1) = v^4/(v^2-1)
        for q0 in Q0S:
            q = SqrtExt(q0, q0)
            assert q ** 2 / (q - 1) == v_power(4, q0) / (v_power(2, q0) - 1)
            assert q ** 2 / (q - 1) == Fraction(q0 * q0, q0 - 1)

    def test_pairing_sum_reduces(self):
        # 1/(q-1) + 1/(q-1) - (q-1)/(q-1)^2 = 1/(q-1)
        for q0 in Q0S:
            q = v_power(2, q0)
            lhs = 1 / (q - 1) + 1 / (q - 1) - (q - 1) / ((q - 1) * (q - 1))
            assert lhs == 1 / (q - 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            SqrtExt.one(2) / SqrtExt.zero(2)
        with pytest.raises(ZeroDivisionError):
            SqrtExt.zero(3).inverse()

    def test_canonical_equality_is_congruence(self):
        for q0 in Q0S:
            q = v_power(2, q0)
            a = (q - 1) / (q ** 2 - 1)
            b = 1 / (q + 1)
            assert a == b and hash(a) == hash(b)
            assert a + v_power(1, q0) == b + v_power(1, q0)
            assert a * (q + 1) == 1

    def test_canonical_vs_cross_multiplication_randomized(self):
        rng = random.Random(20240611)
        checked = equal = 0
        while checked < 200:
            q0 = rng.choice(Q0S)
            a, b, c, d = (random_sqrtext(rng, q0) for _ in range(4))
            if rng.random() < 0.5:
                # scaling numerator and denominator together keeps the value
                s = random_sqrtext(rng, q0)
                c, d = a * s, b * s
            if b.is_zero() or d.is_zero():
                continue
            assert (a / b == c / d) == (a * d == c * b)
            equal += a / b == c / d
            checked += 1
        assert 50 < equal < 150


class TestEvalV:
    """Specialising v to sqrt(q0) with v_power."""

    def test_pure_q_value(self):
        assert v_power(2, 3) == SqrtExt(3, 3, 0)

    def test_twisted_quotient(self):
        # v^3/(v - v^-1) simplifies to v^4/(v^2-1), which is 4 at q=2
        value = v_power(3, 2) / (v_power(1, 2) - v_power(-1, 2))
        assert value == SqrtExt(2, 4, 0)
        assert v_power(4, 2) / (v_power(2, 2) - 1) == value

    def test_perfect_square_folding(self):
        assert v_power(-1, 4) == SqrtExt(4, Fraction(1, 2), 0)
        assert is_rational(v_power(3, 9))

    def test_pole_detection(self):
        # 1/(q - q0) has a pole at v = sqrt(q0)
        for q0 in Q0S:
            with pytest.raises(ZeroDivisionError):
                1 / (v_power(2, q0) - q0)

    def test_ring_homomorphism_randomized(self):
        # evaluating Laurent polynomials in v at sqrt(q0), and polynomials in
        # q at q0, respects sums and products
        rng = random.Random(7)

        def laurent():
            return {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(3)}

        def at(f, q0):
            total = SqrtExt.zero(q0)
            for k, c in f.items():
                total = total + c * v_power(k, q0)
            return total

        for _ in range(60):
            f, g = laurent(), laurent()
            fg = {}
            for k1, c1 in f.items():
                for k2, c2 in g.items():
                    fg[k1 + k2] = fg.get(k1 + k2, 0) + c1 * c2
            qf = QPolynomial({k + 3: c for k, c in f.items()})
            qg = QPolynomial({k + 3: c for k, c in g.items()})
            for q0 in (2, 3, 5):
                assert at(fg, q0) == at(f, q0) * at(g, q0)
                assert (qf * qg).evaluate(q0) == qf.evaluate(q0) * qg.evaluate(q0)
                assert (qf + qg).evaluate(q0) == qf.evaluate(q0) + qg.evaluate(q0)


class TestInterpolation:
    def test_collinear_points(self):
        assert interpolate_q([(2, 3), (3, 4), (5, 6)], 2) == QPolynomial({1: 1, 0: 1})

    def test_constant(self):
        assert interpolate_q([(2, 1), (3, 1)], 1) == QPolynomial({0: 1})

    def test_reproduces_samples(self):
        pts = [(2, 7), (3, 13), (5, 31), (7, 57)]
        poly = interpolate_q(pts, 2)
        for q0, val in pts:
            assert poly.evaluate(q0) == val

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            interpolate_q([(2, 1)], 1)

    def test_inconsistent_extra_point_named(self):
        with pytest.raises(ValueError, match="q=7"):
            interpolate_q([(2, 3), (3, 4), (7, 999)], 1)


def defining_product(n, q0):
    """prod_{s=1..n} (v^s - v^-s)/(v - v^-1) at v = sqrt(q0)."""
    out = SqrtExt.one(q0)
    for s in range(1, n + 1):
        out = out * (v_power(s, q0) - v_power(-s, q0)) / (v_power(1, q0) - v_power(-1, q0))
    return out


class TestQuantumFactorial:
    def test_base_cases(self):
        for q0 in Q0S:
            assert quantum_factorial(0, q0) == SqrtExt.one(q0)
            assert quantum_factorial(1, q0) == SqrtExt.one(q0)

    def test_two(self):
        for q0 in Q0S:
            assert quantum_factorial(2, q0) == v_power(1, q0) + v_power(-1, q0)

    def test_three_against_defining_product(self):
        for n in range(5):
            for q0 in Q0S:
                assert quantum_factorial(n, q0) == defining_product(n, q0)

    def test_quantum_integer(self):
        # [s]!/[s-1]! = [s] = v^(s-1) + v^(s-3) + ... + v^(1-s)
        for q0 in Q0S:
            for s in range(1, 6):
                qint = SqrtExt.zero(q0)
                for i in range(s):
                    qint = qint + v_power(s - 1 - 2 * i, q0)
                assert quantum_factorial(s, q0) / quantum_factorial(s - 1, q0) == qint

    @pytest.mark.parametrize("n,values", [
        (2, ((0, Fraction(3, 2)), (0, Fraction(4, 3)), (Fraction(5, 2), 0), (0, Fraction(6, 5)))),
        (3, ((0, Fraction(21, 4)), (0, Fraction(52, 9)), (Fraction(105, 8), 0),
             (0, Fraction(186, 25)))),
        (4, ((Fraction(315, 8), 0), (Fraction(2080, 27), 0), (Fraction(8925, 64), 0),
             (Fraction(29016, 125), 0))),
    ])
    def test_pinned_values(self, n, values):
        for q0, (a, b) in zip(Q0S, values):
            got = quantum_factorial(n, q0)
            assert (got.base, got.a, got.b) == (q0, a, b)
            assert got == defining_product(n, q0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantum_factorial(-1, 2)


class TestSqrtExt:
    def test_rational_value_hashes_like_its_int_or_fraction(self):
        for base in (2, 3, 4, 9):
            for value in (0, 3, -7, Fraction(1, 3), Fraction(-5, 4)):
                x = SqrtExt(base, value, 0)
                assert x == value and hash(x) == hash(value)
                assert len({x, value}) == 1
        assert len({SqrtExt(2, 3, 0), 3}) == 1
        assert SqrtExt(4, 0, 1) == 2 and hash(SqrtExt(4, 0, 1)) == hash(2)  # sqrt(4) folds to 2
        assert SqrtExt(2, 3, 1) != 3

    def test_rational_embedding(self):
        rng = random.Random(99)
        for _ in range(50):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            x, y = SqrtExt(3, a, 0), SqrtExt(3, b, 0)
            assert (x + y).a == a + b and (x + y).b == 0
            assert (x * y).a == a * b and (x * y).b == 0
            if b:
                assert (x / y).a == a / b

    def test_irrational_arithmetic(self):
        x = SqrtExt(2, 1, 1)  # 1 + sqrt(2)
        assert x * x == SqrtExt(2, 3, 2)
        assert x * x.inverse() == SqrtExt(2, 1, 0)

    def test_base_mixing_rejected(self):
        with pytest.raises(TypeError):
            SqrtExt(2, 1, 1) + SqrtExt(3, 1, 1)

    def test_square_base_folds(self):
        assert SqrtExt(9, 0, 1) == SqrtExt(9, 3, 0)

    def test_v_power(self):
        assert v_power(2, 3) == SqrtExt(3, 3, 0)
        assert v_power(-1, 2) == SqrtExt(2, 0, Fraction(1, 2))
        assert v_power(3, 2) * v_power(-3, 2) == SqrtExt(2, 1, 0)


# -- SqrtExt against a plain Fraction-pair reference ---------------------------

SQUARE_ROOTS = {4: 2, 9: 3}
BASES = (2, 3, 5, 7, 8, 4, 9)


def ref(base, a, b):
    """(a, b) of a + b*sqrt(base) as Fractions, the root folded in when base
    is a perfect square."""
    a, b = Fraction(a), Fraction(b)
    if base in SQUARE_ROOTS:
        return a + b * SQUARE_ROOTS[base], Fraction(0)
    return a, b


def ref_mul(base, x, y):
    return ref(base, x[0] * y[0] + x[1] * y[1] * base, x[0] * y[1] + x[1] * y[0])


def ref_inverse(base, x):
    norm = x[0] * x[0] - x[1] * x[1] * base
    return ref(base, x[0] / norm, -x[1] / norm)


def coords(x):
    return x.a, x.b


_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
_bases = st.sampled_from(BASES)


@st.composite
def _elements(draw, count):
    base = draw(_bases)
    return base, [(draw(_fractions), draw(_fractions)) for _ in range(count)]


def _scalars():
    return st.one_of(st.integers(-40, 40), _fractions)


class TestSqrtExtAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(_elements(2))
    def test_operations_match_reference(self, data):
        base, [(a1, b1), (a2, b2)] = data
        x, y = SqrtExt(base, a1, b1), SqrtExt(base, a2, b2)
        rx, ry = ref(base, a1, b1), ref(base, a2, b2)
        assert coords(x) == rx
        assert coords(x + y) == ref(base, rx[0] + ry[0], rx[1] + ry[1])
        assert coords(x - y) == ref(base, rx[0] - ry[0], rx[1] - ry[1])
        assert coords(-x) == ref(base, -rx[0], -rx[1])
        assert coords(x * y) == ref_mul(base, rx, ry)
        if any(ry):
            assert coords(y.inverse()) == ref_inverse(base, ry)
            assert coords(x / y) == ref_mul(base, rx, ref_inverse(base, ry))

    @settings(max_examples=150, deadline=None)
    @given(_elements(3))
    def test_ring_axioms(self, data):
        base, pairs = data
        x, y, z = (SqrtExt(base, a, b) for a, b in pairs)
        zero, one = SqrtExt.zero(base), SqrtExt.one(base)
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x and x * zero == zero
        assert x + (-x) == zero and x - y == x + (-y)

    @settings(max_examples=150, deadline=None)
    @given(_elements(2), st.integers(-4, 4))
    def test_inverse_division_and_powers(self, data, n):
        base, [(a1, b1), (a2, b2)] = data
        x, y = SqrtExt(base, a1, b1), SqrtExt(base, a2, b2)
        one = SqrtExt.one(base)
        if x:
            assert x * x.inverse() == one
            assert x.inverse().inverse() == x
            assert (y / x) * x == y
            power = one
            for _ in range(abs(n)):
                power = power * (x if n >= 0 else x.inverse())
            assert x ** n == power
        assert x ** 0 == one

    @settings(max_examples=50, deadline=None)
    @given(_elements(1), _scalars())
    def test_zero_division(self, data, k):
        base, [(a, b)] = data
        x, zero = SqrtExt(base, a, b), SqrtExt.zero(base)
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            x / zero
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(ZeroDivisionError):
            k / zero
        with pytest.raises(ZeroDivisionError):
            zero ** -1

    @settings(max_examples=150, deadline=None)
    @given(_elements(1), _scalars())
    def test_rational_coercion_on_both_sides(self, data, k):
        base, [(a, b)] = data
        x, kx = SqrtExt(base, a, b), SqrtExt(base, k, 0)
        assert x + k == k + x == x + kx
        assert x - k == x - kx and k - x == kx - x
        assert x * k == k * x == x * kx
        if k:
            assert x / k == x / kx
        if x:
            assert k / x == kx / x
        assert kx == k and kx == Fraction(k) and hash(kx) == hash(SqrtExt(base, Fraction(k)))
        assert (x == k) == (coords(x) == (Fraction(k), 0))

    @settings(max_examples=150, deadline=None)
    @given(_elements(3))
    def test_equality_and_hash_agree(self, data):
        base, pairs = data
        x, y, z = (SqrtExt(base, a, b) for a, b in pairs)
        if y:
            # the same value reached two ways: reduced forms must coincide
            w = (x * y) / y
            assert w == x and hash(w) == hash(x)
        assert (x + z) - z == x and hash((x + z) - z) == hash(x)
        assert (x == y) == (coords(x) == coords(y))
        if x == y:
            assert hash(x) == hash(y)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((4, 9)), st.lists(st.tuples(_fractions, _fractions),
                                             min_size=2, max_size=2))
    def test_perfect_square_base_stays_rational(self, base, pairs):
        (a1, b1), (a2, b2) = pairs
        x, y = SqrtExt(base, a1, b1), SqrtExt(base, a2, b2)
        results = [x, y, x + y, x - y, x * y, -x, x ** 3, v_power(3, base), v_power(-1, base)]
        if y:
            results += [x / y, y.inverse()]
        for r in results:
            assert is_rational(r)

    @pytest.mark.parametrize("args,text", [
        ((2, 0, 0), "0"),
        ((2, 3, 0), "3"),
        ((2, Fraction(-3, 2), 0), "-3/2"),
        ((2, 0, 1), "1*sqrt(2)"),
        ((2, 0, Fraction(-1, 2)), "-1/2*sqrt(2)"),
        ((3, 1, 1), "1+1*sqrt(3)"),
        ((3, Fraction(1, 3), Fraction(-2, 5)), "1/3-2/5*sqrt(3)"),
        ((5, Fraction(-7, 4), Fraction(3, 4)), "-7/4+3/4*sqrt(5)"),
        ((4, 1, 1), "3"),
        ((4, Fraction(1, 2), Fraction(-1, 3)), "-1/6"),
        ((9, 0, Fraction(-1, 3)), "-1"),
        ((7, -2, -1), "-2-1*sqrt(7)"),
        ((8, Fraction(5, 6), Fraction(-5, 6)), "5/6-5/6*sqrt(8)"),
    ])
    def test_pinned_render(self, args, text):
        x = SqrtExt(*args)
        assert x.render() == text
        assert repr(x) == f"SqrtExt({text})"

    def test_pinned_derived_renders(self):
        assert [v_power(k, q0).render() for k in (-3, -1, 0, 1, 2, 5) for q0 in (2, 3, 4)] == [
            "1/4*sqrt(2)", "1/9*sqrt(3)", "1/8", "1/2*sqrt(2)", "1/3*sqrt(3)", "1/2",
            "1", "1", "1", "1*sqrt(2)", "1*sqrt(3)", "2", "2", "3", "4",
            "4*sqrt(2)", "9*sqrt(3)", "32"]
        assert (SqrtExt(3, 1, 1) / SqrtExt(3, 2, -1)).render() == "5+3*sqrt(3)"
        assert (CycloSqrt.zeta(3, 3, 1) * SqrtExt(3, Fraction(1, 2), 1)).to_json() == {
            "a": ["0", "1/2"], "b": ["0", "1"]}


# -- QPolynomial against a plain Fraction-dict reference -------------------------

def qref(coeffs):
    """{exponent: Fraction} with the zero terms dropped."""
    return {int(k): Fraction(c) for k, c in coeffs.items() if c}


def qref_add(f, g):
    return qref({k: f.get(k, 0) + g.get(k, 0) for k in set(f) | set(g)})


def qref_mul(f, g):
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return qref(out)


def qref_render(f):
    """The documented rendering: terms by descending exponent."""
    out = ""
    for k in sorted(f, reverse=True):
        c = f[k]
        mono = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
        if not mono:
            term = str(abs(c))
        elif abs(c) == 1:
            term = mono
        else:
            term = f"{abs(c)}*{mono}"
        out += ("-" if c < 0 else "+" if out else "") + term
    return out or "0"


_small_ints = st.integers(-20, 20)
_qpolys = st.one_of(
    st.dictionaries(st.integers(0, 6), _fractions, max_size=5),
    st.dictionaries(st.integers(0, 6), _small_ints, max_size=5))


class TestQPolynomialAgainstReference:
    def test_constant_hashes_like_its_int_or_fraction(self):
        for value in (0, 3, -7, Fraction(2, 3)):
            x = QPolynomial.const(value)
            assert x == value and hash(x) == hash(value)
            assert len({x, value}) == 1
        assert len({QPolynomial.const(3), 3}) == 1
        assert QPolynomial.zero() == 0 and hash(QPolynomial.zero()) == hash(0)
        assert QPolynomial.q(1) != 1

    @settings(max_examples=200, deadline=None)
    @given(_qpolys, _qpolys)
    def test_operations_match_reference(self, a, b):
        x, y = QPolynomial(a), QPolynomial(b)
        f, g = qref(a), qref(b)
        assert x.coeffs == f and y.coeffs == g
        assert (x + y).coeffs == qref_add(f, g)
        assert (x - y).coeffs == qref_add(f, {k: -c for k, c in g.items()})
        assert (-x).coeffs == {k: -c for k, c in f.items()}
        assert (x * y).coeffs == qref_mul(f, g)
        for result, want in ((x + y, qref_add(f, g)), (x * y, qref_mul(f, g))):
            assert result == QPolynomial(want) and hash(result) == hash(QPolynomial(want))
            assert result.degree() == (max(want) if want else -1)
            assert result.is_zero() == (not want)

    @settings(max_examples=100, deadline=None)
    @given(_qpolys, st.integers(0, 4))
    def test_powers(self, a, n):
        want = {0: Fraction(1)}
        for _ in range(n):
            want = qref_mul(want, qref(a))
        assert (QPolynomial(a) ** n).coeffs == want

    @settings(max_examples=100, deadline=None)
    @given(_qpolys, _scalars())
    def test_rational_coercion_on_both_sides(self, a, k):
        x, kx = QPolynomial(a), QPolynomial.const(k)
        assert x + k == k + x == x + kx
        assert x - k == x - kx and k - x == kx - x
        assert x * k == k * x == x * kx
        assert kx == k and kx == Fraction(k) and hash(kx) == hash(QPolynomial({0: Fraction(k)}))
        assert (x == k) == (qref(a) == qref({0: k}))

    @settings(max_examples=150, deadline=None)
    @given(_qpolys, _qpolys)
    def test_equality_and_hash_agree(self, a, b):
        x, y = QPolynomial(a), QPolynomial(b)
        assert (x == y) == (qref(a) == qref(b))
        if x == y:
            assert hash(x) == hash(y)
        # the same value reached two ways: reduced forms must coincide
        w = (x + y) - y
        assert w == x and hash(w) == hash(x)
        # a constant hashes like the int or Fraction it equals
        ref = qref(a)
        assert hash(x) == (hash(ref.get(0, 0)) if set(ref) <= {0}
                           else hash(frozenset(ref.items())))

    @settings(max_examples=150, deadline=None)
    @given(_qpolys, st.one_of(st.integers(-6, 9), _fractions))
    def test_evaluate_and_render(self, a, q0):
        f = qref(a)
        value = QPolynomial(a).evaluate(q0)
        assert isinstance(value, Fraction)
        assert value == sum((c * Fraction(q0) ** k for k, c in f.items()), Fraction(0))
        assert QPolynomial(a).render() == qref_render(f)
        assert repr(QPolynomial(a)) == f"QPolynomial({qref_render(f)})"

    @settings(max_examples=50, deadline=None)
    @given(_qpolys)
    def test_coeffs_is_a_read_only_view(self, a):
        x = QPolynomial(a)
        with pytest.raises(TypeError):
            x.coeffs[7] = 1
        assert x.coeffs == qref(a)
        assert all(type(c) in (int, Fraction) for c in x.coeffs.values())

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            QPolynomial({-1: 1})
        with pytest.raises(ValueError):
            QPolynomial({2: Fraction(1, 3), -2: 5})
        assert QPolynomial({-1: 0}).is_zero()

    def test_zero_terms_dropped(self):
        x = QPolynomial({3: 0, 2: Fraction(0), 1: 4})
        assert x.coeffs == {1: 4} and x.degree() == 1
        assert (x - x).coeffs == {} and (x - x).degree() == -1
        assert (QPolynomial({1: 1, 0: 1}) * QPolynomial({1: 1, 0: -1})).coeffs == {2: 1, 0: -1}

    def test_cancelled_denominator_is_the_integer_polynomial(self):
        half_q = QPolynomial({1: Fraction(1, 2)})
        assert half_q * 2 == QPolynomial.q(1) and hash(half_q * 2) == hash(QPolynomial.q(1))
        assert half_q + half_q == QPolynomial.q(1)
        assert (half_q * 2).coeffs == {1: 1}
        third = QPolynomial({2: Fraction(1, 3), 0: Fraction(2, 3)})
        assert third * 3 - QPolynomial({0: 2}) == QPolynomial.q(2)

    def test_non_rational_coefficient_rejected(self):
        with pytest.raises(TypeError):
            QPolynomial({1: 0.5})
        with pytest.raises(TypeError):
            QPolynomial.q(1) + 0.5


class TestCycloSqrt:
    def test_value_of_the_subfield_hashes_like_it(self):
        for p, base in ((2, 2), (3, 3), (5, 5)):
            for value in (0, 3, Fraction(-2, 3), SqrtExt(base, 1, 1)):
                x = CycloSqrt.from_scalar(p, base, value)
                assert x == value and hash(x) == hash(value)
                assert len({x, value}) == 1
        assert len({CycloSqrt.from_scalar(3, 3, 3), 3}) == 1
        assert CycloSqrt.zeta(2, 2, 1) == -1 and hash(CycloSqrt.zeta(2, 2, 1)) == hash(-1)
        assert CycloSqrt.zeta(3, 3, 1) != SqrtExt(3, 1, 0)

    def test_sqrt5_is_equal_in_both_coordinate_forms(self):
        """At p = 5 the Gauss sum zeta - zeta^2 - zeta^3 + zeta^4, that is
        -1 - 2 zeta^2 - 2 zeta^3, is sqrt(5), so sqrt(5) lies in Q(zeta_5)
        and a value has more than one stored form."""
        surd = CycloSqrt(5, 5, [SqrtExt(5, 0, 1), 0, 0, 0])
        gauss = CycloSqrt(5, 5, [-1, 0, -2, -2])
        assert surd == gauss and (surd - gauss).is_zero() and not surd - gauss
        assert hash(surd) == hash(gauss) == hash(SqrtExt(5, 0, 1))
        assert gauss.is_sqrtext() and gauss == SqrtExt(5, 0, 1) and len({surd, gauss}) == 1
        assert CycloSqrt(5, 125, [-5, 0, -10, -10]) == SqrtExt(125, 0, 1)  # 5 sqrt(5)
        z = CycloSqrt.zeta(5, 5, 1)
        assert not z.is_sqrtext() and z != surd and z != 1
        for k in range(5):
            w = CycloSqrt.zeta(5, 5, k) * SqrtExt(5, Fraction(2, 3), -1)
            assert w + surd == w + gauss and hash(w + surd) == hash(w + gauss)
        assert gauss.render() == "(-1)*1 + (-2)*z5^2 + (-2)*z5^3"  # the stored form

    def test_zeta2_is_minus_one(self):
        assert CycloSqrt.zeta(2, 2, 1) == SqrtExt(2, -1, 0)

    def test_cubic_relation(self):
        z = CycloSqrt.zeta(3, 3, 1)
        assert z + z * z == CycloSqrt.from_scalar(3, 3, -1)
        assert z * z * z == CycloSqrt.one(3, 3)

    def test_p5_and_p7_cycles(self):
        for p, q0 in ((5, 5), (7, 7)):
            z = CycloSqrt.zeta(p, q0, 1)
            total = CycloSqrt.zero(p, q0)
            acc = CycloSqrt.one(p, q0)
            for _ in range(p):
                total = total + acc
                acc = acc * z
            assert total.is_zero()
            assert acc == CycloSqrt.one(p, q0)

    def test_scalar_division(self):
        z = CycloSqrt.zeta(3, 3, 1)
        assert (z + z) / 2 == z

    def test_context_mixing_rejected(self):
        with pytest.raises(TypeError):
            CycloSqrt.zeta(3, 3, 1) + CycloSqrt.zeta(5, 5, 1)

    def test_json_coords(self):
        z = CycloSqrt.zeta(3, 2, 1)
        assert z.to_json() == {"a": ["0", "1"], "b": ["0", "0"]}


class TestRendering:
    def test_documented_form(self):
        assert QPolynomial({4: Fraction(1, 4), 2: Fraction(-1, 4)}).render() == "1/4*q^4-1/4*q^2"
        assert QPolynomial({1: -1, 0: 1}).render() == "-q+1"
        assert QPolynomial({0: Fraction(-3, 2)}).render() == "-3/2"
        assert QPolynomial({2: 2, 1: -3}).render() == "2*q^2-3*q"
        assert QPolynomial.zero().render() == "0"
        assert repr(QPolynomial.q(2)) == "QPolynomial(q^2)"

    @pytest.mark.parametrize("parts,text", [
        ((1,), "q-1"),
        ((2,), "q^2-q"),
        ((1, 1), "q^4-q^3-q^2+q"),
        ((2, 1), "q^5-2*q^4+q^3"),
        ((1, 1, 1), "q^9-q^8-q^7+q^5+q^4-q^3"),
        ((3, 2, 1), "q^14-3*q^13+3*q^12-q^11"),
    ])
    def test_a_lambda_renders(self, parts, text):
        assert a_lambda(Partition(parts)).render() == text

    def test_fractional_coefficients(self):
        assert phi_irreducible_count(4).render() == "1/4*q^4-1/4*q^2"
        assert phi_irreducible_count(6).render() == "1/6*q^6-1/6*q^3-1/6*q^2+1/6*q"

    def test_jordan_symbolic_coefficients(self):
        assert [(lam.parts, poly.render()) for lam, poly in p_jordan_symbolic(3)] == [
            ((3,), "1"), ((2, 1), "-q+1"), ((1, 1, 1), "q^3-q^2-q+1")]
