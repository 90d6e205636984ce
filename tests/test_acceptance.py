"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with pytest -s or in
the captured output on failure) and asserts the criterion's full stated
parameter range.  `hallalg verify --all` drives the same cells.

Each criterion's report, minus its timing, must also equal the record in
golden/verify_all.json, the `verify --all --format json` lines without
`elapsed_ms`; a change that alters any report field fails here.
"""

import json
from pathlib import Path

import pytest

from hallalg.suite import CRITERIA

GOLDEN = {row["criterion"]: row for row in json.loads(
    (Path(__file__).parent / "golden" / "verify_all.json").read_text())}


def _run(number, name, fn):
    report = fn()
    line = f"[acceptance] criterion {number:2d} ({name}): " \
           f"{'PASS' if report.passed else 'FAIL'} ({report.elapsed_ms} ms)"
    print(line)
    assert report.passed, f"{line}\n{report.to_json()}"
    record = {"criterion": number, **report.to_dict()}
    del record["elapsed_ms"]
    assert record == GOLDEN[number]


@pytest.mark.parametrize("number,name,fn", CRITERIA,
                         ids=[f"criterion-{num:02d}-{name}" for num, name, _ in CRITERIA])
def test_acceptance_criterion(number, name, fn):
    _run(number, name, fn)


def test_warm_rerun_matches_golden():
    """Every criterion run twice in a row, the second time on warm engines
    and memos: both reports, minus their timing, equal the golden record."""
    for _ in range(2):
        for number, name, fn in CRITERIA:
            _run(number, name, fn)


def test_aggregated_criterion_times_its_whole_run(monkeypatch):
    """A criterion of many fast cells reports the time of the whole run,
    not a sum of each cell's milliseconds cut to an int: with the clock
    advancing 0.6 ms a read, each of xi's 12 cells reads 0 ms."""
    from types import SimpleNamespace

    from hallalg import report
    from hallalg.suite import criterion_xi

    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(report, "time", SimpleNamespace(monotonic=lambda: next(ticks) * 0.0006))
    assert criterion_xi().elapsed_ms >= 7
