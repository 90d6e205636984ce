"""The one cap rule: repengine.POINT_CAP is read when a call runs, and a
memo built under one cap is not read under another.

Each row makes a warm call (after a warm-up call, where it has one),
lowers the cap to one below the largest listing its build makes, and
expects the exact UsageError that a fresh engine raises; one more point
of cap lets a fresh engine answer, and the restored cap gives the warm
value back.  The hall_number row reads a memoized table through
NilpotentCyclicEngine.hall_number's test for one.  Every row but
_point_auts, whose hits once checked the cap by hand, was served past a
lowered cap before its memo was keyed by the cap.
"""

import importlib
import pkgutil

import pytest

import hallalg
from hallalg import repengine
from hallalg.fourier import gl_character_sum, kronecker_to_c2, transform_grade
from hallalg.hallcore import HallElement, comultiply, multiply
from hallalg.partitions import Partition
from hallalg.primitives import x_element
from hallalg.repengine import (
    BruteForceEngine,
    NilpotentCyclicEngine,
    jordan_matrix,
    jordan_quiver,
    kronecker_quiver,
)
from hallalg.report import UsageError


def _basis_product(engine):
    A, B = engine.classes((1, 1))[0], engine.classes((1, 0))[0]
    return multiply(HallElement.basis(engine, A), HallElement.basis(engine, B))


def _hall_number(engine):
    """F^{S1[3]}_{S1[1], S1[2]} on C1: read off S1[3]'s table if it is
    memoized, or else by the walk over S1[2]'s rank table."""
    L, M, N = (engine.segment_class(0, l) for l in (3, 1, 2))
    return engine.hall_number(L, M, N)


def _transform_pair():
    spec = kronecker_to_c2()
    return spec, BruteForceEngine(spec.source, 2), BruteForceEngine(spec.target, 2)


# (id, fresh state, warm-up, call, cap one below the largest listing,
# refusal); the module-level cell caches have no engine, so each of their
# calls at a cap not seen before is the build
_ROWS = [
    ("_cell", lambda: None, None,
     lambda _: repengine._cell(2, 6, (0, 1, 2), repengine.POINT_CAP),
     2824, "the subspaces of F_2^6 exceed the point cap"),
    ("_pivot_cells", lambda: None, None,
     lambda _: repengine._pivot_cells(2, 6, repengine.POINT_CAP),
     2824, "the subspaces of F_2^6 exceed the point cap"),
    ("_grades", lambda: BruteForceEngine(kronecker_quiver(), 2), None,
     lambda engine: engine.classes((2, 2)),
     255, "representation variety exceeds the point cap"),
    ("_subtables", lambda: NilpotentCyclicEngine(1, 2), None,
     lambda engine: engine.sub_table(engine.segment_class(0, 3)),
     7, "vector space F_2^3 exceeds the point cap"),
    ("hall_number", lambda: NilpotentCyclicEngine(1, 2),
     lambda engine: engine.sub_table(engine.segment_class(0, 3)), _hall_number,
     7, "vector space F_2^3 exceeds the point cap"),
    ("_products", lambda: BruteForceEngine(kronecker_quiver(), 2), None, _basis_product,
     15, "representation variety exceeds the point cap"),
    ("xelt", lambda: NilpotentCyclicEngine(2, 2), None, lambda engine: x_element(engine, 2),
     4, "the subspaces of F_2^2 exceed the point cap"),
    ("gl_character_sum", lambda: None, None, lambda _: gl_character_sum(2, 2),
     15, "the 2^4 matrices of M_2(F_2) exceed the point cap"),
    ("_coproducts", lambda: NilpotentCyclicEngine(1, 2), None,
     lambda engine: comultiply(HallElement.basis(engine, engine.make_class((((0, 1), 3),)))),
     15, "the subspaces of F_2^3 exceed the point cap"),
    ("_point_auts", lambda: BruteForceEngine(jordan_quiver(), 2, nilpotent=True), None,
     lambda engine: engine.aut_order_point((jordan_matrix(Partition((3, 1))),), (4,)),
     63, "the endomorphisms of the point exceed the point cap"),
    ("_transforms", _transform_pair, None,
     lambda state: transform_grade(*state, (1, 1)),
     3, "representation variety exceeds the point cap"),
]


@pytest.mark.parametrize("make,warm_up,call,cap,message", [row[1:] for row in _ROWS],
                         ids=[row[0] for row in _ROWS])
def test_a_warm_call_refuses_what_a_fresh_one_does(monkeypatch, make, warm_up, call, cap,
                                                   message):
    warm = make()
    if warm_up:
        warm_up(warm)
    value = call(warm)
    monkeypatch.setattr(repengine, "POINT_CAP", cap)
    for state in (make(), warm):
        with pytest.raises(UsageError) as refused:
            call(state)
        assert str(refused.value) == message
    monkeypatch.setattr(repengine, "POINT_CAP", cap + 1)
    assert call(make()) == value
    monkeypatch.undo()
    assert call(warm) == value


def test_only_repengine_binds_the_point_cap():
    """Another module holding the cap by value would not see it change."""
    names = [info.name for info in pkgutil.iter_modules(hallalg.__path__)]
    assert "repengine" in names and "fourier" in names
    for name in names:
        module = importlib.import_module(f"hallalg.{name}")
        assert ("POINT_CAP" in vars(module)) == (name == "repengine"), name
