"""The full verification suite: one runnable cell per acceptance criterion.

Every cell returns a VerificationReport; run_all executes them in cell-key
order, and the CLI and the test suite both drive the same functions.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import SqrtExt
from .fourier import (
    a2_image_check,
    a2_reversal,
    check_homomorphism,
    divided_power_check,
    double_transform_check,
    gl_character_sum,
    kronecker_to_c2,
    transform_primitive_check,
    verify_lemma62_route,
)
from .hallcore import (
    HallElement,
    adjointness_check,
    associativity_check,
    coassociativity_check,
    is_primitive,
)
from .partitions import a_lambda, partitions_of
from .primitives import (
    central_family_check,
    difference_basis_check,
    kernel_theorem_check,
    kron_pK2,
    p_cyclic,
    p_jordan,
    verify_aut_sum_identities,
    verify_key_pairing,
    verify_xi_identity,
    x_element,
)
from .repengine import (
    get_brute_engine,
    get_nilpotent_engine,
    jordan_matrix,
    jordan_quiver,
    kronecker_quiver,
)
from .report import UsageError, VerificationReport, timed_report

__all__ = ["CRITERIA", "run_all", "CHECK_RUNNERS", "FOURIER_RUNNERS", "refuse_unused"]


def _aggregate(name, params, cells):
    """One report for a criterion's cells: cells() runs them and returns
    their reports under the criterion's own clock, so the criterion's time
    is the whole run, not a sum of the cells' truncated milliseconds."""

    def run():
        reports = cells()
        bad = [r for r in reports if not r.passed]
        return (not bad, f"{len(reports) - len(bad)} passed", f"{len(reports)} cells",
                "; ".join(f"{r.check}{r.params}" for r in bad))

    return timed_report(name, params, run)


# -- criterion 1 -------------------------------------------------------------

def criterion_alambda() -> VerificationReport:
    """Closed-form automorphism counts match brute counts on the Jordan
    points, each the units of End or orbit-stabilizer, as
    BruteForceEngine.aut_order_point picks; both run here.  The report's
    rhs reads "orbit-stabilizer", as the golden output pins it."""

    def run():
        for q in (2, 3):
            engine = get_brute_engine(jordan_quiver(), q)
            for n in range(1, 5):
                for lam in partitions_of(n):
                    formula = a_lambda(lam, q)
                    brute = engine.aut_order_point((jordan_matrix(lam),), (n,))
                    if formula != brute:
                        return (False, str(formula), str(brute),
                                f"lambda={lam.parts} q={q}")
        return True, "formula", "orbit-stabilizer", ""

    return timed_report("alambda", {"n": "1..4", "q": "2,3"}, run)


# -- criteria 2 and 3 --------------------------------------------------------

def criterion_xi() -> VerificationReport:
    return _aggregate("xi", {"n": "1..12"},
                      lambda: [verify_xi_identity(n) for n in range(1, 13)])


def criterion_autsum() -> VerificationReport:
    return _aggregate("autsum", {"n": "1..10"},
                      lambda: [verify_aut_sum_identities(n) for n in range(1, 11)])


# -- criterion 4 -------------------------------------------------------------

def criterion_primitivity() -> VerificationReport:
    """All constructed primitive elements satisfy Delta(x) = x ox 1 + 1 ox x."""

    def run():
        for q in (2, 3):
            c1 = get_nilpotent_engine(1, q)
            for n in range(1, 5):
                if not is_primitive(p_jordan(c1, n)):
                    return False, f"p_{n}", "primitive", f"C1 q={q}"
            for r in (2, 3):
                engine = get_nilpotent_engine(r, q)
                for n in (1, 2):
                    if not is_primitive(x_element(engine, n)):
                        return False, f"x_{n}", "primitive", f"C{r} q={q}"
                    if not is_primitive(p_cyclic(engine, n)):
                        return False, f"p_{n}^({r})", "primitive", f"C{r} q={q}"
            k2 = get_brute_engine(kronecker_quiver(), q)
            for n in (1, 2):
                if not is_primitive(kron_pK2(k2, n)):
                    return False, f"p_{n}^K2", "primitive", f"q={q}"
        return True, "all elements", "primitive", ""

    return timed_report("primitivity", {"q": "2,3"}, run)


# -- criteria 5, 6, 7 ---------------------------------------------------------

def criterion_central() -> VerificationReport:
    return _aggregate("central", {"r": "2,3", "n": "1,2", "q": "2,3"},
                      lambda: [central_family_check(r, n, q)
                               for r in (2, 3) for n in (1, 2) for q in (2, 3)])


def criterion_pairing() -> VerificationReport:
    return _aggregate("pairing", {"r": "1..3", "n": "1,2", "q": "2,3"},
                      lambda: [verify_key_pairing(r, n, q)
                               for r in (1, 2, 3) for n in (1, 2) for q in (2, 3)])


def criterion_explicit() -> VerificationReport:
    """p_1^(2) = [S1[2]] + [S2[2]] - (q-1)[S1+S2], exactly."""

    def run():
        for q in (2, 3):
            engine = get_nilpotent_engine(2, q)
            expected = HallElement(engine, {
                engine.segment_class(0, 2): 1,
                engine.segment_class(1, 2): 1,
                engine.make_class((((0, 1), 1), ((1, 1), 1))): Fraction(1 - q),
            })
            got = p_cyclic(engine, 1)
            if got != expected:
                return False, got.render(), expected.render(), f"q={q}"
        return True, "p_1^(2)", "explicit element", ""

    return timed_report("explicit", {"q": "2,3"}, run)


# -- criterion 8 ---------------------------------------------------------------

def criterion_glsum() -> VerificationReport:
    """GL_n trace character sums match (-1)^n q^(n(n-1)/2)."""

    def run():
        for n, q in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)):
            value = gl_character_sum(n, q)
            expected = (-1) ** n * q ** (n * (n - 1) // 2)
            if value != SqrtExt(q, expected, 0):
                return False, value.render(), str(expected), f"n={n} q={q}"
        return True, "character sums", "closed form", ""

    return timed_report("glsum", {"pairs": "6"}, run)


# -- criterion 9 ---------------------------------------------------------------

def _unit_box_pairs():
    grades = [(a, b) for a in (0, 1) for b in (0, 1)]
    return [(d1, d2) for d1 in grades for d2 in grades]


_REVERSALS = {"a2": a2_reversal, "k2c2": kronecker_to_c2}


def _homomorphism_check(pair, q) -> VerificationReport:
    """The transform of the named reversal pair on the grades (a, b), a, b <= 1."""
    return check_homomorphism(_REVERSALS[pair](), q, _unit_box_pairs())


def criterion_fourier() -> VerificationReport:
    return _aggregate("fourier", {"q": "2,3"}, lambda: [
        rep for q in (2, 3)
        for rep in (a2_image_check(q), _homomorphism_check("a2", q),
                    _homomorphism_check("k2c2", q), transform_primitive_check(q))])


# -- criteria 10 and 11 ----------------------------------------------------------

_KRON_RANGE = ((1, 2), (1, 3), (2, 2))


def criterion_kernel() -> VerificationReport:
    return _aggregate("kernel", {"cells": str(_KRON_RANGE)},
                      lambda: [kernel_theorem_check(n, q) for n, q in _KRON_RANGE])


def criterion_basis() -> VerificationReport:
    return _aggregate("basis", {"cells": str(_KRON_RANGE)},
                      lambda: [difference_basis_check(n, q) for n, q in _KRON_RANGE])


# -- criterion 12 -----------------------------------------------------------------

def criterion_bialgebra() -> VerificationReport:
    def cells():
        engines = [get_nilpotent_engine(1, 2), get_nilpotent_engine(2, 2),
                   get_brute_engine(kronecker_quiver(), 2)]
        return [check(engine, 5) for engine in engines
                for check in (associativity_check, coassociativity_check, adjointness_check)]

    return _aggregate("bialgebra", {"bound": 5, "q": 2}, cells)


# -- registry ----------------------------------------------------------------------

CRITERIA = (
    (1, "alambda", criterion_alambda),
    (2, "xi", criterion_xi),
    (3, "autsum", criterion_autsum),
    (4, "primitivity", criterion_primitivity),
    (5, "central", criterion_central),
    (6, "pairing", criterion_pairing),
    (7, "explicit", criterion_explicit),
    (8, "glsum", criterion_glsum),
    (9, "fourier", criterion_fourier),
    (10, "kernel", criterion_kernel),
    (11, "basis", criterion_basis),
    (12, "bialgebra", criterion_bialgebra),
)


def run_all():
    """Run every criterion; results are ordered by criterion number."""
    return [(num, name, fn()) for num, name, fn in CRITERIA]


# Check runners for the CLI, beyond whole criteria: CHECK_RUNNERS for
# `verify`, FOURIER_RUNNERS for `fourier`'s report checks; the CLI builds
# its other modes' runners the same way.  Each is called with the mode's
# name and the dict of its command's flag values, None where a flag is
# absent, and refuses, before any work, a flag its mode does not read.

def _flags(names):
    return ", ".join(f"--{name.replace('_', '-')}" for name in names)


def refuse_unused(check, args, names):
    """Raise UsageError naming every flag given in args that is not in names."""
    unused = [name for name, value in args.items() if value is not None and name not in names]
    if unused:
        raise UsageError(f"{check} takes no {_flags(unused)}")


def _runner(cell, *flags, criterion=None, **defaults):
    """run(check, args, *head) runs cell(*head, *flags); run.flags names the
    flags.  It refuses a flag the check does not read, runs criterion, if
    any, when no flag is set, gives an absent flag its default, and refuses
    an absent flag without one and a count defaulting to 1 given below 1."""

    def run(check, args, *head):
        refuse_unused(check, args, flags)
        given = {name: args[name] for name in flags if args.get(name) is not None}
        if criterion is not None and not given:
            return criterion()
        values = {**defaults, **given}
        missing = [name for name in flags if name not in values]
        if missing:
            raise UsageError(f"{check} runs one cell on {_flags(flags)} together, "
                             f"or its criterion on none of them; missing {_flags(missing)}")
        low = [name for name in flags if defaults.get(name) == 1 and values[name] < 1]
        if low:
            raise UsageError(f"need {low[0]} >= 1")
        return cell(*head, *(values[name] for name in flags))

    run.flags = flags
    return run


CHECK_RUNNERS = {
    "alambda": _runner(criterion_alambda),
    "xi": _runner(verify_xi_identity, "n", criterion=criterion_xi),
    "autsum": _runner(verify_aut_sum_identities, "n", criterion=criterion_autsum),
    "primitivity": _runner(criterion_primitivity),
    "central": _runner(central_family_check, "r", "n", "q", criterion=criterion_central),
    "pairing": _runner(verify_key_pairing, "r", "n", "q", criterion=criterion_pairing),
    "explicit": _runner(criterion_explicit),
    "glsum": _runner(criterion_glsum),
    "fourier": _runner(criterion_fourier),
    "kernel": _runner(kernel_theorem_check, "n", "q", criterion=criterion_kernel),
    "basis": _runner(difference_basis_check, "n", "q", criterion=criterion_basis),
    "bialgebra": _runner(criterion_bialgebra),
    "lemma-route": _runner(verify_lemma62_route, "n", "q", n=1, q=2),
}

FOURIER_RUNNERS = {
    "a2": _runner(a2_image_check, "q", q=2),
    "hom": _runner(_homomorphism_check, "pair", "q", pair="k2c2", q=2),
    "divided": _runner(divided_power_check, "n", "q", n=2, q=2),
    "lemma": CHECK_RUNNERS["lemma-route"],
    "double": _runner(double_transform_check, "q", q=2),
    "prim": _runner(transform_primitive_check, "q", q=2),
}
