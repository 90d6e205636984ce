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

__all__ = ["CRITERIA", "run_all", "CHECK_RUNNERS", "refuse_unused"]


def _aggregate(name, params, reports):
    bad = [r for r in reports if not r.passed]
    status = "fail" if bad else "pass"
    detail = "; ".join(f"{r.check}{r.params}" for r in bad)
    elapsed = sum(r.elapsed_ms for r in reports)
    return VerificationReport(name, params, status,
                              lhs=f"{len(reports) - len(bad)} passed",
                              rhs=f"{len(reports)} cells",
                              elapsed_ms=elapsed, detail=detail)


# -- criterion 1 -------------------------------------------------------------

def criterion_alambda() -> VerificationReport:
    """Closed-form automorphism counts match brute counts on the Jordan
    points, each the units of End or orbit-stabilizer, as
    BruteForceEngine.aut_order_point picks; both run here.  The report's
    rhs reads "orbit-stabilizer", as the golden output pins it."""

    def run():
        for q in (2, 3):
            engine = get_brute_engine(jordan_quiver(), q, nilpotent=True)
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
                      [verify_xi_identity(n) for n in range(1, 13)])


def criterion_autsum() -> VerificationReport:
    return _aggregate("autsum", {"n": "1..10"},
                      [verify_aut_sum_identities(n) for n in range(1, 11)])


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
    reports = [central_family_check(r, n, q)
               for r in (2, 3) for n in (1, 2) for q in (2, 3)]
    return _aggregate("central", {"r": "2,3", "n": "1,2", "q": "2,3"}, reports)


def criterion_pairing() -> VerificationReport:
    reports = [verify_key_pairing(r, n, q)
               for r in (1, 2, 3) for n in (1, 2) for q in (2, 3)]
    return _aggregate("pairing", {"r": "1..3", "n": "1,2", "q": "2,3"}, reports)


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


def criterion_fourier() -> VerificationReport:
    reports = []
    for q in (2, 3):
        reports.append(a2_image_check(q))
        reports.append(check_homomorphism(a2_reversal(), q, _unit_box_pairs()))
        reports.append(check_homomorphism(kronecker_to_c2(), q, _unit_box_pairs()))
        reports.append(transform_primitive_check(q))
    return _aggregate("fourier", {"q": "2,3"}, reports)


# -- criteria 10 and 11 ----------------------------------------------------------

_KRON_RANGE = ((1, 2), (1, 3), (2, 2))


def criterion_kernel() -> VerificationReport:
    reports = [kernel_theorem_check(n, q) for n, q in _KRON_RANGE]
    return _aggregate("kernel", {"cells": str(_KRON_RANGE)}, reports)


def criterion_basis() -> VerificationReport:
    reports = [difference_basis_check(n, q) for n, q in _KRON_RANGE]
    return _aggregate("basis", {"cells": str(_KRON_RANGE)}, reports)


# -- criterion 12 -----------------------------------------------------------------

def criterion_bialgebra() -> VerificationReport:
    reports = []
    engines = [get_nilpotent_engine(1, 2), get_nilpotent_engine(2, 2),
               get_brute_engine(kronecker_quiver(), 2)]
    for engine in engines:
        reports.append(associativity_check(engine, 5))
        reports.append(coassociativity_check(engine, 5))
        reports.append(adjointness_check(engine, 5))
    return _aggregate("bialgebra", {"bound": 5, "q": 2}, reports)


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


# Individual check runners for the CLI (beyond whole criteria).  Each is
# called with the check's name and the dict of verify's --r, --n and --q
# values, None where a flag is absent, and refuses, before any work, a flag
# its check does not read.

def _flags(names):
    return ", ".join(f"--{name}" for name in names)


def refuse_unused(check, args, names):
    """Raise UsageError naming every flag given in args that is not in names."""
    unused = [name for name, value in args.items() if value is not None and name not in names]
    if unused:
        raise UsageError(f"{check} takes no {_flags(unused)}")


def _criterion_only(criterion):
    def run(check, args):
        refuse_unused(check, args, ())
        return criterion()

    return run


def _cell_or_criterion(cell, criterion, *names):
    """Run cell on the named arguments when every one is given, the whole
    criterion when none is; a partial set is refused."""

    def run(check, args):
        refuse_unused(check, args, names)
        missing = [name for name in names if args.get(name) is None]
        if not missing:
            return cell(*(args[name] for name in names))
        if len(missing) == len(names):
            return criterion()
        raise UsageError(f"{check} runs one cell on {_flags(names)} together, "
                         f"or its criterion on none of them; missing {_flags(missing)}")

    return run


def _run_lemma_route(check, args):
    refuse_unused(check, args, ("n", "q"))
    n, q = args.get("n"), args.get("q")
    return verify_lemma62_route(1 if n is None else n, 2 if q is None else q)


CHECK_RUNNERS = {
    "alambda": _criterion_only(criterion_alambda),
    "xi": _cell_or_criterion(verify_xi_identity, criterion_xi, "n"),
    "autsum": _cell_or_criterion(verify_aut_sum_identities, criterion_autsum, "n"),
    "primitivity": _criterion_only(criterion_primitivity),
    "central": _cell_or_criterion(central_family_check, criterion_central, "r", "n", "q"),
    "pairing": _cell_or_criterion(verify_key_pairing, criterion_pairing, "r", "n", "q"),
    "explicit": _criterion_only(criterion_explicit),
    "glsum": _criterion_only(criterion_glsum),
    "fourier": _criterion_only(criterion_fourier),
    "kernel": _cell_or_criterion(kernel_theorem_check, criterion_kernel, "n", "q"),
    "basis": _cell_or_criterion(difference_basis_check, criterion_basis, "n", "q"),
    "bialgebra": _criterion_only(criterion_bialgebra),
    "lemma-route": _run_lemma_route,
}
