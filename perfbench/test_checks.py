"""Each benchmark check accepts good data and rejects a corrupted value;
the speed probe scales times by the speed measured around them.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from hallalg.repengine import (NilpotentCyclicEngine, get_brute_engine,  # noqa: E402
                               kronecker_quiver)

P = checks.partition_key


def _corrupt(table, bump=1):
    table = dict(table)
    key = sorted(table)[len(table) // 2]
    table[key] += bump
    return table


def test_closed_forms_agree():
    for q in (2, 3, 4):
        for n in range(1, 6):
            assert checks.macdonald_a((1,) * n, q) == checks.gl_order(n, q)
            for lam in checks.partitions(n):
                assert checks.macdonald_a(lam, q) == checks.multisegment_aut(P(lam), 1, q)
    assert [checks.gauss_binom(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]


def test_jordan_count_small_cases():
    for q in (2, 3):
        assert checks.jordan_hall_table((1, 1), q)[(P((1,)), P((1,)))] == q + 1
        assert checks.jordan_hall_table((2,), q)[(P((1,)), P((1,)))] == 1
    # the Hall polynomial of (3,2,1)/(2,1)/(2,1) is 2q^2 + q - 1
    assert checks.jordan_hall_table((3, 2, 1), 2)[(P((2, 1)), P((2, 1)))] == 9


def test_riedtmann_rejects_corruption():
    tables = {P(lam): checks.jordan_hall_table(lam, 2) for lam in checks.partitions(3)}
    assert checks.check_riedtmann(1, 2, (3,), tables) == []
    for L in tables:
        assert checks.check_riedtmann(1, 2, (3,), tables | {L: _corrupt(tables[L])})
    missing = dict(tables)
    missing.pop(P((2, 1)))
    assert checks.check_riedtmann(1, 2, (3,), missing)

    engine = NilpotentCyclicEngine(2, 3)
    d = (2, 1)
    c2 = {c.key: engine.sub_table(c) for c in engine.classes(d)}
    assert checks.check_riedtmann(2, 3, d, c2) == []
    L = sorted(c2)[0]
    assert checks.check_riedtmann(2, 3, d, c2 | {L: _corrupt(c2[L], bump=-1)})


def test_semisimple_rejects_corruption():
    engine = NilpotentCyclicEngine(2, 2)
    L = (((0, 1), 2), ((1, 1), 1))
    table = engine.sub_table(engine.class_from_key(L))
    assert table == checks.semisimple_table(2, 2, L)
    assert checks.check_semisimple(2, 2, L, table) == []
    assert checks.check_semisimple(2, 2, L, _corrupt(table))


def test_symmetry_rejects_corruption():
    table = checks.jordan_hall_table((2, 1, 1), 2)
    assert checks.check_symmetry(2, P((2, 1, 1)), table) == []
    bad = dict(table)
    bad[(P((2,)), P((1, 1)))] += 1
    assert checks.check_symmetry(2, P((2, 1, 1)), bad)


def test_hall_polynomial_rejects_corruption():
    good = {2: 2, 1: 1, 0: -1}
    assert checks.check_hall_polynomial("p", good, 2, 5, 54) == []
    assert checks.check_hall_polynomial("p", good, 2, 5, 53)
    assert checks.check_hall_polynomial("p", {3: 1} | good, 2, 5, 54 + 125)
    assert checks.check_hall_polynomial("p", {1: 1}, 0, 5, 5)


def test_mass_formula_rejects_corruption():
    k2 = get_brute_engine(kronecker_quiver(), 2)
    d = (1, 2)
    rows = [(k2.aut_order(c), k2.orbit_size(c)) for c in k2.classes(d)]
    arrows = workloads.QUIVER_ARROWS["k2"]
    assert checks.check_mass("k2", 2, d, arrows, rows) == []
    assert checks.check_mass("k2", 2, d, arrows, rows[1:])
    (aut, size), rest = rows[0], rows[1:]
    assert checks.check_mass("k2", 2, d, arrows, [(aut * 2, size)] + rest)


def test_fine_herstein_rejects_corruption():
    group = checks.gl_order(3, 3)
    rows = [(checks.macdonald_a(lam, 3), group // checks.macdonald_a(lam, 3))
            for lam in checks.partitions(3)]
    assert checks.check_fine_herstein("jordan", 3, 3, rows) == []
    assert checks.check_fine_herstein("jordan", 3, 3, rows[:-1])
    assert checks.check_fine_herstein("jordan", 3, 3, [(rows[0][0], rows[0][1] + 1)] + rows[1:])


def test_identical_rejects_difference():
    assert checks.check_identical("x", [(0, "9\n")], [(0, "9\n")]) == []
    assert checks.check_identical("x", [(0, "9\n")], [(0, "0\n")])


def test_known_fault_counts_as_failed_not_incorrect():
    rnd = workloads.Round()
    rnd.op(True)
    rnd.op(False, "known", known_fault=True)
    assert (rnd.attempted, rnd.failed, rnd.problems) == (2, 1, [])
    rnd.op(False, "unexpected")
    assert (rnd.failed, rnd.problems) == (2, ["unexpected"])


def test_inputs_depend_only_on_seed():
    for name in workloads.RUNNERS:
        assert workloads.build_inputs(name, 7) == workloads.build_inputs(name, 7)
    a = workloads.build_inputs("hall_numbers", 1)
    b = workloads.build_inputs("hall_numbers", 2)
    assert a["queries"] != b["queries"]
    assert len(a["queries"]) == len(b["queries"])
    assert sum(q["known_fault"] for q in a["queries"]) == len(workloads.KNOWN_FAULT_QUERIES)


def test_benchmark_json_matches_metric_lists():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layertrace.PER_LAYER)


def test_probe_scales_by_the_samples_near_an_item():
    probe = speed.Probe()
    probe.at = array("d", [0.1 * i for i in range(100)])                  # 0 .. 9.9 s
    probe.factor = array("d", [2.0 if i < 50 else 0.5 for i in range(100)])
    assert probe.scale(speed.Item(1.0, 2.0, 1.0)) == 2.0                  # all fast samples
    assert probe.scale(speed.Item(8.0, 8.5, 0.4)) == 0.2                  # all slow samples
    # a long item takes the mean factor over its whole stretch
    assert abs(probe.scale(speed.Item(0.0, 9.9, 10.0)) - 12.5) < 1e-9
    assert speed.Probe(active=False).scale(speed.Item(0.0, 1.0, 0.7)) == 0.7


def test_probe_samples_and_takes_its_own_time_out():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    probe = speed.Probe()
    with probe:
        result, item = probe.timed(busy, 0.3)
    assert result == "done"
    assert len(probe.factor) >= 5
    assert 0 < item.raw_s < item.end - item.start
    assert abs(item.end - item.start - item.raw_s - probe.spent) < 0.01
    assert probe.scale(item) > 0
