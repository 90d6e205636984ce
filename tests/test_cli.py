import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from hallalg.cli import CACHE_VERSION, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _run_capped(argv):
    """Run the CLI in a child whose address space is capped at 1 GiB, so a
    table that does list past a cap fails at once instead of exhausting
    memory."""
    import resource

    import hallalg

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(hallalg.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "hallalg.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=src))


class TestIsoclasses:
    def test_kronecker_delta_rows(self):
        code, out = run_cli(["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 4 classes
        assert lines[0].split() == ["class", "aut", "orbit_size"]

    def test_nilpotent_selector(self):
        code, out = run_cli(["isoclasses", "--quiver", "cr:2", "--q", "2",
                             "--d", "1,1", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert sorted(r["class"] for r in rows) == ["S1[1]+S2[1]", "S1[2]", "S2[2]"]

    @pytest.mark.parametrize("quiver,d,classes", [
        ("a2", (0, 9), 1), ("a2", (1, 8), 2), ("c2full", (9, 1), 5)])
    def test_few_point_grades_of_high_total_dimension(self, quiver, d, classes):
        """Only the point, vector and subspace caps refuse a brute-force
        grade: these of total dimension 9 and 10 have 1 to 2^18 points."""
        from hallalg import cli

        code, out = run_cli(["isoclasses", "--quiver", quiver, "--q", "2",
                             "--d", ",".join(map(str, d)), "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == classes
        assert cli._class_rows_hold(rows, cli._parse_selector(quiver)[1], 2, d)

    def test_bad_selector(self):
        code, _ = run_cli(["isoclasses", "--quiver", "q9", "--d", "1,1"])
        assert code == 2

    def test_bad_dimension(self):
        code, _ = run_cli(["isoclasses", "--quiver", "k2", "--d", "1,1,1"])
        assert code == 2


class TestHallNum:
    def test_documented_example(self):
        code, out = run_cli(["hallnum", "--quiver", "c1", "--q", "2",
                             "--L", "(1,1)", "--M", "(1)", "--N", "(1)"])
        assert code == 0
        assert out.strip() == "3"

    def test_multisegment_syntax(self):
        code, out = run_cli(["hallnum", "--quiver", "cr:2", "--q", "3",
                             "--L", "S1[2]", "--M", "S1[1]", "--N", "S2[1]",
                             "--format", "json"])
        assert code == 0
        assert json.loads(out)["value"] == 1

    @pytest.mark.parametrize("L,M,N,value", (("(3,2,1)", "(2,1)", "(2,1)", "9"),
                                             ("(3,1)", "(2,1)", "(1)", "1"),
                                             ("(2,1)", "0", "(2,1)", "1"),
                                             ("(2,1)", "(2,1)", "()", "1")))
    def test_partition_syntax_regressions(self, L, M, N, value):
        code, out = run_cli(["hallnum", "--quiver", "c1", "--q", "2",
                             "--L", L, "--M", M, "--N", N])
        assert code == 0
        assert out.strip() == value

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_partition_and_multisegment_spellings_agree(self, data):
        def partition(n):
            parts = []
            while n:
                part = data.draw(st.integers(1, n))
                parts.append(part)
                n -= part
            return parts

        def spellings(parts):
            if not parts:
                return data.draw(st.sampled_from(("()", "0"))), "0"
            shuffled = data.draw(st.permutations(parts))
            mult = {p: parts.count(p) for p in shuffled}
            segs = [f"S1[{p}]" if m == 1 else f"{m}*S1[{p}]" for p, m in mult.items()]
            return "(" + ",".join(map(str, shuffled)) + ")", "+".join(segs)

        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(0, n))
        triple = [spellings(partition(n)), spellings(partition(k)),
                  spellings(partition(n - k))]
        outputs = []
        for which in (0, 1):
            code, out = run_cli(["hallnum", "--quiver", "c1", "--q", "2",
                                 "--L", triple[0][which], "--M", triple[1][which],
                                 "--N", triple[2][which]])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_engine_inconsistency_exits_3(self, monkeypatch, capsys):
        from hallalg import cli, gf, repengine

        # a fresh engine whose realization of a class is not nilpotent, so
        # identifying the points of its submodule table must fail
        monkeypatch.setattr(cli, "get_nilpotent_engine", repengine.NilpotentCyclicEngine)
        monkeypatch.setattr(repengine.NilpotentCyclicEngine, "rep_point",
                            lambda self, c: ((gf.mat_identity(sum(c.grade)),), c.grade))
        code, _ = run_cli(["hallnum", "--quiver", "c1", "--q", "2",
                           "--L", "(2)", "--M", "(1)", "--N", "(1)"])
        assert code == 3
        assert "point identification failed" in capsys.readouterr().err

    def test_brute_selector_rejected(self):
        code, _ = run_cli(["hallnum", "--quiver", "k2", "--q", "2",
                           "--L", "(1)", "--M", "(1)", "--N", "(1)"])
        assert code == 2

    def test_vector_space_past_the_point_cap_exits_2(self):
        """F_1024^3 has about 1.07e9 vectors: the table is refused before
        any is listed."""
        proc = _run_capped(["hallnum", "--quiver", "c1", "--q", "1024",
                                 "--L", "(2,1)", "--M", "(1,1)", "--N", "(1)"])
        assert proc.returncode == 2
        assert "point cap" in proc.stderr

    def test_subspaces_past_the_point_cap_exit_2(self):
        """A semisimple L of size 6 lists every subspace of F_5^6, 3.6e6 of
        them: the list is refused before it is built."""
        proc = _run_capped(["hallnum", "--quiver", "c1", "--q", "5",
                                 "--L", "(1,1,1,1,1,1)", "--M", "(1,1,1)",
                                 "--N", "(1,1,1)"])
        assert proc.returncode == 2
        assert "subspaces of F_5^6 exceed the point cap" in proc.stderr


class TestHallPoly:
    def test_lines_polynomial(self):
        code, out = run_cli(["hallpoly", "--quiver", "c1",
                             "--L", "(1,1)", "--M", "(1)", "--N", "(1)"])
        assert code == 0
        assert out.strip() == "q+1"


class TestPinnedSymbolicOutputs:
    """Exact stdout of the commands that print polynomials in q."""

    @pytest.mark.parametrize("argv,expected", [
        (["hallpoly", "--quiver", "c1", "--L", "(1,1)", "--M", "(1)", "--N", "(1)"],
         "q+1\n"),
        (["hallpoly", "--quiver", "c1", "--L", "(1,1,1)", "--M", "(1)", "--N", "(1,1)"],
         "q^2+q+1\n"),
        (["hallpoly", "--quiver", "cr:2", "--L", "2*S1[1]+2*S2[1]", "--M", "S1[1]+S2[1]",
          "--N", "S1[1]+S2[1]"],
         "q^2+2*q+1\n"),
        (["hallpoly", "--quiver", "cr:2", "--L", "S1[2]+S2[1]", "--M", "S1[2]",
          "--N", "S2[1]", "--format", "json"],
         '{"L": "S1[2]+S2[1]", "M": "S1[2]", "N": "S2[1]", "polynomial": "q"}\n'),
        (["hallnum", "--quiver", "c1", "--L", "(1,1,1)", "--M", "(1)", "--N", "(1,1)",
          "--symbolic", "--format", "json"],
         '{"L": "3*S1[1]", "M": "S1[1]", "N": "2*S1[1]", "polynomial": "q^2+q+1"}\n'),
        (["element", "--family", "jordan_pn", "--n", "3", "--symbolic"],
         '{"family": "jordan_pn", "n": 3, "terms": [{"class": "I[3]", "coeff": "1"}, '
         '{"class": "I[2, 1]", "coeff": "-q+1"}, '
         '{"class": "I[1, 1, 1]", "coeff": "q^3-q^2-q+1"}]}\n'),
        (["element", "--family", "jordan_pn", "--n", "2", "--symbolic", "--format", "json"],
         '{"family": "jordan_pn", "n": 2, "terms": [{"class": "I[2]", "coeff": "1"}, '
         '{"class": "I[1, 1]", "coeff": "-q+1"}]}\n'),
        (["element", "--family", "jordan_pn", "--n", "3", "--symbolic", "--format", "table"],
         "(1)*[I[3]] + (-q+1)*[I[2, 1]] + (q^3-q^2-q+1)*[I[1, 1, 1]]\n"),
    ], ids=["hallpoly-c1", "hallpoly-c1-quadratic", "hallpoly-cr2", "hallpoly-cr2-json",
            "hallnum-symbolic-json", "element-jordan-symbolic", "element-jordan-symbolic-json",
            "element-jordan-symbolic-table"])
    def test_stdout(self, argv, expected):
        assert run_cli(argv) == (0, expected)


class TestPrimitive:
    def test_full_dimension(self):
        code, out = run_cli(["primitive", "--quiver", "k2", "--q", "2",
                             "--d", "1,1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_regular_restriction(self):
        code, out = run_cli(["primitive", "--quiver", "k2", "--q", "2",
                             "--d", "1,1", "--reg", "--format", "json"])
        assert code == 0
        assert json.loads(out)["dim"] == 3

    def test_reg_requires_k2(self):
        code, _ = run_cli(["primitive", "--quiver", "a2", "--q", "2",
                           "--d", "1,1", "--reg"])
        assert code == 2

    @pytest.mark.parametrize("quiver, d", [("k2", "0,0"), ("c1", "0"), ("cr:2", "0,0")])
    def test_grade_zero_has_no_primitive(self, quiver, d):
        assert run_cli(["primitive", "--quiver", quiver, "--q", "2",
                        "--d", d]) == (0, "dimension 0\n")


class TestVerify:
    def test_xi_json(self):
        code, out = run_cli(["verify", "xi", "--n", "8", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["check"] == "xi"
        assert data["params"] == {"n": 8}
        assert data["status"] == "pass"
        assert "elapsed_ms" in data

    def test_single_cells(self):
        code, out = run_cli(["verify", "pairing", "--r", "2", "--n", "1",
                             "--q", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_unknown_check(self):
        code, _ = run_cli(["verify", "nonsense"])
        assert code == 2

    def test_missing_check(self):
        code, _ = run_cli(["verify"])
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["verify", "central", "--r", "4", "--n", "1"],
         "central runs one cell on --r, --n, --q together, or its criterion on none of them;"
         " missing --q"),
        (["verify", "kernel", "--n", "3"], "kernel runs one cell on --n, --q together"),
        (["verify", "glsum", "--n", "3"], "glsum takes no --n"),
        (["verify", "xi", "--q", "3"], "xi takes no --q"),
        (["verify", "--all", "--n", "2"], "verify --all takes no --n"),
        (["verify", "lemma-route", "--r", "2"], "lemma-route takes no --r"),
        (["verify", "xi", "--all"], "verify --all takes no check name; got 'xi'"),
    ], ids=["central", "kernel", "glsum", "xi", "all", "lemma-route", "all-and-check"])
    def test_partial_or_unused_parameters_exit_2_before_any_check(self, monkeypatch, capsys,
                                                                  argv, message):
        """Every check starts its clock in report.timed_report; with that
        clock made to raise, a check that ran would exit 3."""
        from types import SimpleNamespace

        from hallalg import report

        def started():
            raise AssertionError("a check started")

        monkeypatch.setattr(report, "time", SimpleNamespace(monotonic=started))
        assert run_cli(["verify", "xi", "--n", "2"]) == (3, "")
        capsys.readouterr()
        assert run_cli(argv) == (2, "")
        assert message in capsys.readouterr().err


class TestElement:
    def test_cyclic_pnr_explicit(self):
        code, out = run_cli(["element", "--family", "cyclic_pnr", "--r", "2",
                             "--n", "1", "--q", "3"])
        assert code == 0
        assert "(-2)*[S1[1]+S2[1]]" in out  # 1 - q at q = 3

    def test_jordan_symbolic(self):
        code, out = run_cli(["element", "--family", "jordan_pn", "--n", "2",
                             "--symbolic"])
        assert code == 0
        data = json.loads(out)
        assert {t["coeff"] for t in data["terms"]} == {"1", "-q+1"}

    def test_kron_difference(self):
        code, out = run_cli(["element", "--family", "kron_pk2", "--n", "1",
                             "--q", "2", "--format", "json"])
        assert code == 0
        assert len(json.loads(out)["terms"]) == 2

    def test_symbolic_hallnum(self):
        code, out = run_cli(["hallnum", "--quiver", "c1", "--L", "(1,1)",
                             "--M", "(1)", "--N", "(1)", "--symbolic"])
        assert code == 0
        assert out.strip() == "q+1"

    def test_bad_family(self, capsys):
        import pytest as _pytest
        with _pytest.raises(SystemExit):
            run_cli(["element", "--family", "mystery"])


class TestVerifyAll:
    def test_full_suite_exits_zero(self):
        code, out = run_cli(["verify", "--all"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert all("PASS" in line for line in lines)

    def test_failure_exits_one(self, monkeypatch):
        from hallalg import suite
        from hallalg.report import VerificationReport

        def failing():
            return VerificationReport("stub", {}, "fail", "L", "R", 0, "forced")

        monkeypatch.setattr(suite, "CRITERIA",
                            ((1, "stub", failing),))
        import hallalg.cli as cli
        monkeypatch.setattr(cli, "run_all",
                            lambda: [(1, "stub", failing())])
        code, out = run_cli(["verify", "--all"])
        assert code == 1
        assert "FAIL" in out


class TestFourierCommand:
    def test_a2_check(self):
        code, out = run_cli(["fourier", "--check", "a2", "--q", "2",
                             "--format", "json"])
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_glsum(self):
        code, out = run_cli(["fourier", "--check", "glsum", "--n", "2", "--q", "3",
                             "--format", "json"])
        assert code == 0
        assert json.loads(out)["value"] == "3"

    def test_glsum_table_prints_the_value_line(self):
        argv = ["fourier", "--check", "glsum", "--n", "2", "--q", "3"]
        assert run_cli(argv) == run_cli(argv + ["--format", "table"]) == (0, "3\n")

    @pytest.mark.parametrize("argv,message", [
        (["--check", "a2", "--n", "3"], "a2 takes no --n"),
        (["--check", "a2", "--pair", "k2c2"], "a2 takes no --pair"),
        (["--check", "hom", "--n", "1"], "hom takes no --n"),
        (["--check", "glsum", "--pair", "a2"], "glsum takes no --pair"),
        (["--check", "divided", "--n", "2", "--pair", "a2"], "divided takes no --pair"),
        (["--check", "lemma", "--pair", "k2c2"], "lemma takes no --pair"),
        (["--check", "double", "--n", "2"], "double takes no --n"),
        (["--check", "prim", "--q", "3", "--pair", "a2"], "prim takes no --pair"),
        (["--n", "2"], "a2 takes no --n"),
    ], ids=["a2-n", "a2-pair", "hom", "glsum", "divided", "lemma", "double", "prim",
            "default-check"])
    def test_unread_flag_exits_2_before_any_check(self, monkeypatch, capsys, argv, message):
        """As for verify: report checks start their clock in
        report.timed_report, and glsum calls gl_character_sum; with both
        made to raise, a check that ran would exit 3."""
        from types import SimpleNamespace

        from hallalg import cli, report

        def started(*args):
            raise AssertionError("a check started")

        monkeypatch.setattr(report, "time", SimpleNamespace(monotonic=started))
        monkeypatch.setattr(cli, "gl_character_sum", started)
        assert run_cli(["fourier", "--check", "prim"]) == (3, "")
        assert run_cli(["fourier", "--check", "glsum"]) == (3, "")
        capsys.readouterr()
        assert run_cli(["fourier", *argv]) == (2, "")
        assert message in capsys.readouterr().err

    @staticmethod
    def _masked(argv):
        code, out = run_cli(argv)
        return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": X', out)

    @pytest.mark.parametrize("flags", [[], ["--n", "1", "--q", "2"], ["--n", "2", "--q", "3"],
                                       ["--q", "3"], ["--n", "2"]])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_lemma_is_verify_lemma_route(self, flags, fmt):
        from hallalg.suite import CHECK_RUNNERS, FOURIER_RUNNERS

        assert FOURIER_RUNNERS["lemma"] is CHECK_RUNNERS["lemma-route"]
        fourier = self._masked(["fourier", "--check", "lemma", *flags, "--format", fmt])
        assert fourier[0] == 0
        assert fourier == self._masked(["verify", "lemma-route", *flags, "--format", fmt])

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_hom_pair_defaults_to_k2c2(self, q):
        argv = ["fourier", "--check", "hom", "--q", q, "--format", "json"]
        absent = self._masked(argv)
        assert absent[0] == 0 and '"source": "K2"' in absent[1]
        assert absent == self._masked(argv + ["--pair", "k2c2"])
        assert absent != self._masked(argv + ["--pair", "a2"])


class TestCache:
    def test_warm_run_byte_identical(self, tmp_path):
        args = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "2,1",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code1, cold = run_cli(args)
        assert code1 == 0
        files = os.listdir(tmp_path)
        assert files, "cache file was not written"
        code2, warm = run_cli(args)
        assert code2 == 0
        assert cold == warm

    def test_stored_file_is_the_sorted_json_text(self, tmp_path):
        """A store writes exactly json.dumps(payload, sort_keys=True), and a
        replay from what a command stored prints the cold output."""
        from hallalg.cli import _store_cache

        payload = {"z": [3, {"b": 1, "a": "(2,1)"}], "a": {"y": [], "x": None}}
        _store_cache(str(tmp_path / "sub" / "p.json"), payload)
        assert (tmp_path / "sub" / "p.json").read_text() == json.dumps(payload, sort_keys=True)
        assert os.listdir(tmp_path / "sub") == ["p.json"]

        args = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "2,1",
                "--cache-dir", str(tmp_path / "k2"), "--format", "json"]
        code, cold = run_cli(args)
        text = (tmp_path / "k2" / "k2_q2_d2-1.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert run_cli(args) == (code, cold) == (0, cold)

    def test_hallnum_cache_roundtrip(self, tmp_path):
        args = ["hallnum", "--quiver", "c1", "--q", "2", "--L", "(2,1)",
                "--M", "(1)", "--N", "(2)", "--cache-dir", str(tmp_path)]
        code1, cold = run_cli(args)
        code2, warm = run_cli(args)
        assert code1 == code2 == 0
        assert cold == warm == "2\n"

    def test_corrupt_cache_recomputed(self, tmp_path):
        args = ["hallnum", "--quiver", "c1", "--q", "2", "--L", "(1,1)",
                "--M", "(1)", "--N", "(1)", "--cache-dir", str(tmp_path)]
        code1, cold = run_cli(args)
        for name in os.listdir(tmp_path):
            with open(tmp_path / name, "w") as fh:
                fh.write("{ not json")
        code2, warm = run_cli(args)
        assert code1 == code2 == 0
        assert cold == warm

    def test_stale_version_ignored(self, tmp_path):
        args = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code1, cold = run_cli(args)
        for name in os.listdir(tmp_path):
            path = tmp_path / name
            data = json.loads(path.read_text())
            data["version"] = "something-older"
            data["classes"] = []
            path.write_text(json.dumps(data))
        code2, warm = run_cli(args)
        assert code2 == 0
        assert warm == cold  # stale entry was ignored and rebuilt

    def test_fresh_file_holds_no_rep(self, tmp_path):
        args = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "2,1",
                "--cache-dir", str(tmp_path), "--format", "json"]
        assert run_cli(args)[0] == 0
        data = json.loads((tmp_path / "k2_q2_d2-1.json").read_text())
        assert data["version"].endswith("-cache-2")
        assert data["classes"] and all(set(row) == {"class", "aut", "orbit_size"}
                                       for row in data["classes"])

    def test_cache_1_file_is_ignored(self, tmp_path):
        args = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code, cold = run_cli(args)
        path = tmp_path / "k2_q2_d1-1.json"
        data = json.loads(path.read_text())
        data["version"] = data["version"].replace("-cache-2", "-cache-1")
        for row in data["classes"]:
            row["aut"] += 1
            row["rep"] = [[[0]], [[0]]]
        path.write_text(json.dumps(data))
        assert run_cli(args) == (code, cold) == (0, cold)
        assert json.loads(path.read_text())["version"].endswith("-cache-2")

    def test_non_object_cache_file_is_rebuilt(self, tmp_path):
        args = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code1, cold = run_cli(args)
        (tmp_path / "k2_q2_d1-1.json").write_text("[]")
        assert run_cli(args) == (code1, cold) == (0, cold)

    def test_cache_file_of_another_grade_is_rebuilt(self, tmp_path):
        def isoclasses(d, cache):
            argv = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", d, "--format", "json"]
            return run_cli(argv + (["--cache-dir", str(tmp_path)] if cache else []))

        assert isoclasses("2,1", cache=True)[0] == 0
        code, expected = isoclasses("1,2", cache=False)
        assert code == 0
        (tmp_path / "k2_q2_d1-2.json").write_text((tmp_path / "k2_q2_d2-1.json").read_text())
        assert isoclasses("1,2", cache=True) == (0, expected)
        assert json.loads((tmp_path / "k2_q2_d1-2.json").read_text())["grade"] == [1, 2]
        assert sorted(os.listdir(tmp_path)) == ["k2_q2_d1-2.json", "k2_q2_d2-1.json"]


class TestCacheEntryChecks:
    """A warm run serves a cache file only if its Hall entries are well
    formed; a well-formed but wrong count cannot be detected."""

    ARGS = ["hallnum", "--quiver", "c1", "--q", "2", "--L", "(2,1)", "--M", "(1)", "--N", "(2)"]

    def tampered_warm_run(self, tmp_path, extra):
        args = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert run_cli(args) == (0, "2\n")
        (path,) = tmp_path.iterdir()
        data = json.loads(path.read_text())
        (key,) = data["hall"]
        data["hall"][key] = 5  # served as is unless the whole file is rejected
        data["hall"].update(extra)
        path.write_text(json.dumps(data))
        result = run_cli(args)
        return result, key, json.loads(path.read_text())["hall"]

    def test_well_formed_wrong_count_is_served(self, tmp_path):
        result, key, hall = self.tampered_warm_run(tmp_path, {})
        assert result == (0, "5\n")

    @pytest.mark.parametrize("value", [-1, True, False, 2.0, "2", None, [2]])
    def test_non_count_value_is_rebuilt(self, tmp_path, value):
        result, key, hall = self.tampered_warm_run(tmp_path, {"S1[3]|S1[1]|S1[2]": value})
        assert result == (0, "2\n")
        assert hall == {key: 2}

    @pytest.mark.parametrize("bad_key", ["S1[1]|0|S1[1]", "S1[3]|S1[1]", "S1[3]|S1[1]|S1[2]|0",
                                         "S1[3]|X|S1[2]", "S2[3]|0|S1[3]", "(2,1)|(1)|(2)"])
    def test_key_not_naming_classes_of_the_grade_is_rebuilt(self, tmp_path, bad_key):
        result, key, hall = self.tampered_warm_run(tmp_path, {bad_key: 1})
        assert result == (0, "2\n")
        assert hall == {key: 2}

    def test_hall_entry_in_a_brute_force_file_is_rebuilt(self, tmp_path):
        args = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code, cold = run_cli(args)
        path = tmp_path / "k2_q2_d1-1.json"
        data = json.loads(path.read_text())
        data["classes"] = []
        data["hall"] = {"S1[1]|0|S1[1]": 1}
        path.write_text(json.dumps(data))
        assert run_cli(args) == (code, cold) == (0, cold)
        assert "hall" not in json.loads(path.read_text())

    def test_nonzero_entry_that_grade_makes_zero_is_rebuilt(self, tmp_path):
        """The grades of M and N, 3 and 3, do not add up to L's grade 3, so
        the count is 0 by grade alone and a stored nonzero value is rebuilt."""
        args = ["hallnum", "--quiver", "c1", "--q", "2", "--L", "(3)", "--M", "(3)",
                "--N", "(3)", "--cache-dir", str(tmp_path)]
        assert run_cli(args) == (0, "0\n")
        path = tmp_path / "c1nil_q2_d3.json"
        data = json.loads(path.read_text())
        assert data["hall"] == {"S1[3]|S1[3]|S1[3]": 0}
        data["hall"]["S1[3]|S1[3]|S1[3]"] = 5
        path.write_text(json.dumps(data))
        assert run_cli(args) == (0, "0\n")
        assert json.loads(path.read_text())["hall"] == {"S1[3]|S1[3]|S1[3]": 0}


def _set(key, value):
    def tamper(data):
        data[key] = value
    return tamper


def _set_in_first_row(key, value):
    def tamper(data):
        data["classes"][0][key] = value
    return tamper


def _aut_off_by_one(data):
    data["classes"][0]["aut"] += 1


def _name_first_row_as_second(data):
    data["classes"][0]["class"] = data["classes"][1]["class"]


def _drop_first_row(data):
    del data["classes"][0]


def _drop_orbit_size(data):
    del data["classes"][0]["orbit_size"]


_K2 = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1"]
_C1 = ["isoclasses", "--quiver", "c1", "--q", "2", "--d", "3"]
_TAMPERED_ROWS = [
    ("k2-classes-5", _K2, _set("classes", 5)),
    ("k2-classes-x", _K2, _set("classes", ["x"])),
    ("k2-classes-missing", _K2, lambda data: data.pop("classes")),
    ("k2-aut-off-by-one", _K2, _aut_off_by_one),
    ("k2-row-dropped", _K2, _drop_first_row),
    ("k2-orbit-size-missing", _K2, _drop_orbit_size),
    ("k2-extra-key", _K2, _set_in_first_row("rep", [[[0]], [[0]]])),
    ("k2-bool-aut", _K2, _set_in_first_row("aut", True)),
    ("k2-class-not-a-string", _K2, _set_in_first_row("class", 0)),
    ("k2-class-renamed", _K2, _set_in_first_row("class", "bogus")),
    ("k2-class-of-another-index", _K2, _name_first_row_as_second),
    ("c1-classes-5", _C1, _set("classes", 5)),
    ("c1-aut-zero", _C1, _set_in_first_row("aut", 0)),
    ("c1-aut-a-string", _C1, _set_in_first_row("aut", "1")),
    ("c1-aut-8-to-7", _C1, _set_in_first_row("aut", 7)),
]


class TestCacheClassRows:
    """A warm run serves a brute-force cache file only if its class rows
    hold: a list of dicts with exactly the printed keys, row i's class the
    name the engine prints for orbit i, and positive int counts, aut *
    orbit_size = |G_d| for every row and the orbit sizes summing to
    q^(sum_arrows d_t d_h).  Any other file is
    rebuilt, and the warm run prints the cold output.  Nilpotent
    isoclasses refuses --cache-dir, so a nilpotent file with class rows,
    as older trees wrote, is never read and is left as it is."""

    @pytest.mark.parametrize("argv,tamper", [(argv, tamper) for _, argv, tamper in _TAMPERED_ROWS],
                             ids=[name for name, _, _ in _TAMPERED_ROWS])
    def test_tampered_rows_are_rebuilt(self, tmp_path, capsys, argv, tamper):
        for fmt in ("table", "json"):
            cache = tmp_path / fmt
            args = argv + ["--format", fmt, "--cache-dir", str(cache)]
            if argv is _C1:
                cache.mkdir()
                rows = json.loads(run_cli(argv + ["--format", "json"])[1])
                (cache / "c1nil_q2_d3.json").write_text(json.dumps(
                    {"version": CACHE_VERSION, "quiver": "c1nil", "q": 2, "grade": [3],
                     "classes": rows, "hall": {}}))
            else:
                code, cold = run_cli(args)
                assert code == 0
            (path,) = cache.iterdir()
            stored = json.loads(path.read_text())
            tampered = json.loads(path.read_text())
            tamper(tampered)
            path.write_text(json.dumps(tampered))
            capsys.readouterr()
            if argv is _C1:
                assert run_cli(args) == (2, "")
                err = capsys.readouterr().err
                assert err == "usage error: isoclasses --quiver c1 takes no --cache-dir\n"
            else:
                assert run_cli(args) == (0, cold)
            assert json.loads(path.read_text()) == (tampered if argv is _C1 else stored)

    def test_rows_that_hold_are_served(self, tmp_path, monkeypatch):
        """A warm run of a file whose rows hold computes nothing."""
        from hallalg import cli

        args = _K2 + ["--format", "json", "--cache-dir", str(tmp_path)]
        code, cold = run_cli(args)
        assert code == 0

        def refused(*args):
            raise AssertionError("class rows were recomputed")

        monkeypatch.setattr(cli, "_compute_class_rows", refused)
        assert run_cli(args) == (0, cold)


class TestExitCodes:
    @pytest.mark.parametrize("exc", [ValueError("deep fault"), ZeroDivisionError("deep fault"),
                                     TypeError("deep fault"), RuntimeError("deep fault")],
                             ids=["ValueError", "ZeroDivisionError", "TypeError", "RuntimeError"])
    def test_error_inside_an_engine_exits_3(self, monkeypatch, capsys, exc):
        from hallalg import repengine

        def hall_number(self, *classes):
            raise exc

        monkeypatch.setattr(repengine.NilpotentCyclicEngine, "hall_number", hall_number)
        code, out = run_cli(["hallnum", "--quiver", "c1", "--q", "2",
                             "--L", "(1,1)", "--M", "(1)", "--N", "(1)"])
        assert (code, out) == (3, "")
        assert "deep fault" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["hallnum", "--quiver", "c1", "--q", "6", "--L", "(1,1)", "--M", "(1)", "--N", "(1)"],
        ["isoclasses", "--quiver", "k2", "--q", "1", "--d", "1,1"],
        ["verify", "pairing", "--r", "2", "--n", "1", "--q", "6"],
        ["fourier", "--check", "a2", "--q", "10"],
        ["element", "--family", "cyclic_pnr", "--q", "two"],
    ], ids=["hallnum", "isoclasses", "verify", "fourier", "element"])
    def test_q_not_a_prime_power_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["verify", "kernel", "--n", "4", "--q", "2"],
         "representation variety exceeds the point cap"),
        (["verify", "lemma-route", "--n", "3", "--q", "3"],
         "representation variety exceeds the point cap"),
        (["fourier", "--check", "divided", "--n", "5", "--q", "2"],
         "representation variety exceeds the point cap"),
        (["fourier", "--check", "divided", "--n", "5", "--q", "3"],
         "representation variety exceeds the point cap"),
        (["fourier", "--check", "glsum", "--n", "4", "--q", "4"],
         "the 4^16 matrices of M_4(F_4) exceed the point cap"),
        (["fourier", "--check", "glsum", "--n", "1", "--q", "11"],
         "cyclotomic prime 11 is outside 2..7, the cyclotomic prime cap"),
        (["fourier", "--check", "a2", "--q", "11"],
         "cyclotomic prime 11 is outside 2..7, the cyclotomic prime cap"),
        (["verify", "xi", "--n", "31"], "partition size 31 is outside 0..30, the partition cap"),
        (["verify", "autsum", "--n", "31"],
         "partition size 31 is outside 0..30, the partition cap"),
    ])
    def test_cell_past_an_engine_cap_exits_2(self, argv, message, capsys):
        assert run_cli(argv) == (2, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,expected", [
        (["verify", "xi", "--n", "13"], '"n": 13'),
        (["verify", "pairing", "--r", "4", "--n", "1", "--q", "2"], '"r": 4'),
        (["verify", "kernel", "--n", "2", "--q", "3"], "dim full=6, dim regular=7"),
        (["verify", "lemma-route", "--n", "3", "--q", "2"], "3/4*sqrt(2) / 3/4*sqrt(2)"),
        (["fourier", "--check", "divided", "--n", "4", "--q", "2"], '"n": 4'),
        (["fourier", "--check", "divided", "--n", "1", "--q", "4"], '"q": 4'),
        (["fourier", "--check", "lemma", "--n", "1", "--q", "5"],
         "1/5*sqrt(5) / 1/5*sqrt(5)"),
        (["fourier", "--check", "glsum", "--n", "3", "--q", "3", "--format", "json"],
         '"value": "-27"'),
    ])
    def test_cell_past_the_old_ranges_passes(self, argv, expected):
        code, out = run_cli(argv)
        assert code == 0 and expected in out

    @pytest.mark.parametrize("argv", [
        ["hallnum", "--quiver", "c1", "--q", "823543", "--L", "(1)", "--M", "(1)",
         "--N", "0"],
        ["primitive", "--quiver", "c1", "--q", "65537", "--d", "1"],
        ["isoclasses", "--quiver", "a2", "--q", "65537", "--d", "1,1"],
    ], ids=["hallnum", "primitive", "isoclasses"])
    def test_field_past_the_field_order_cap_exits_2(self, argv):
        """Each of these built q x q field tables, minutes of work, before
        the field order cap refused the first read of them."""
        proc = _run_capped(argv)
        assert proc.returncode == 2
        assert "exceeds the field order cap 1024" in proc.stderr

    def test_large_prime_q_exits_2_within_a_second(self):
        """--q is factored by trial division up to isqrt(q) only, so a prime
        near 2^31 reaches the caps at once; a composite is still refused."""
        start = time.perf_counter()
        assert run_cli(["isoclasses", "--quiver", "a2", "--q", "2147483647",
                        "--d", "1,1"]) == (2, "")
        assert time.perf_counter() - start < 1
        with pytest.raises(SystemExit) as exc:
            run_cli(["isoclasses", "--quiver", "a2", "--q", "1000000007000", "--d", "1,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "5,5"],
        ["hallnum", "--quiver", "c1", "--L", "(1,-1)", "--M", "(1)", "--N", "(1)"],
        ["hallnum", "--quiver", "cr:2", "--L", "S3[1]", "--M", "0", "--N", "S3[1]"],
        ["hallnum", "--quiver", "cr:2", "--q", "2", "--L", "S1[2]+-1*S1[1]",
         "--M", "S1[1]", "--N", "S2[1]"],
        ["hallnum", "--quiver", "cr:2", "--q", "2", "--L", "0*S1[2]", "--M", "0", "--N", "0"],
        ["hallpoly", "--quiver", "c1", "--L", "(2,x)", "--M", "(1)", "--N", "(1)"],
        ["element", "--family", "cyclic_cn", "--r", "1"],
        ["verify", "central", "--r", "1", "--n", "1", "--q", "2"],
        ["element", "--family", "jordan_pn", "--n", "-1"],
        ["element", "--family", "kron_pk2", "--n", "4", "--q", "2"],
    ])
    def test_request_past_a_parser_or_cap_exits_2(self, argv):
        assert run_cli(argv) == (2, "")

    @pytest.mark.parametrize("argv,message", [
        (["element", "--family", "jordan_pn", "--n", "0", "--symbolic"], "need n >= 1"),
        (["element", "--family", "kron_p0", "--n", "0"], "need n >= 1"),
        (["element", "--family", "tube_pm", "--m", "0"], "need m >= 1"),
        (["element", "--family", "tube_pm", "--deg", "0"], "need deg >= 1"),
        (["element", "--family", "cyclic_pnr", "--r", "0"], "cyclic families need --r >= 2"),
        (["element", "--family", "cyclic_cn", "--r", "0", "--n", "0"], "need n >= 1"),
        (["element", "--family", "tube_pm", "--m", "0", "--deg", "0"], "need m >= 1"),
        (["verify", "central", "--r", "0", "--n", "0", "--q", "2"], "need r >= 1 and n >= 1"),
        (["fourier", "--check", "glsum", "--n", "0", "--q", "2"], "need n >= 1"),
        (["fourier", "--check", "divided", "--n", "0", "--q", "2"], "need n >= 1"),
        (["fourier", "--check", "lemma", "--n", "0", "--q", "2"], "need n >= 1"),
        (["verify", "lemma-route", "--n", "0", "--q", "2"], "need n >= 1"),
    ])
    def test_zero_count_flag_exits_2(self, argv, message, capsys):
        """--n 0 is a usage error, not the default n = 1, and every count
        below 1 is refused in one wording."""
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("argv,expected", [
        (["element", "--family", "jordan_pn", "--symbolic"],
         '{"family": "jordan_pn", "n": 1, "terms": [{"class": "I[1]", "coeff": "1"}]}\n'),
        (["fourier", "--check", "glsum", "--q", "2", "--format", "json"],
         '{"n": 1, "q": 2, "value": "-1"}\n'),
    ])
    def test_absent_count_flag_takes_its_default(self, argv, expected):
        assert run_cli(argv) == (0, expected)

    @pytest.mark.parametrize("argv", [
        ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1"],
        ["isoclasses", "--quiver", "c1", "--q", "2", "--d", "3"],
        ["hallnum", "--quiver", "c1", "--L", "(1,1)", "--M", "(1)", "--N", "(1)"],
    ], ids=["isoclasses-k2", "isoclasses-c1", "hallnum"])
    def test_cache_dir_naming_a_file_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        """A path that is, or lies below, a regular file is refused where it
        is parsed, like --q: no engine is built and no file is written."""
        from hallalg import cli

        def refused(*args):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(cli, "_get_engine", refused)
        path = tmp_path / "file"
        path.write_text("kept")
        for cache_dir in (path, path / "sub"):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + ["--cache-dir", str(cache_dir)])
            assert exc.value.code == 2
            assert "not a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["file"] and path.read_text() == "kept"


class TestClosedStdout:
    def test_reader_that_exits_at_once(self):
        """A closed stdout is not an internal fault: no traceback, no exit 3."""
        import hallalg

        src = os.path.dirname(os.path.dirname(os.path.abspath(hallalg.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "hallalg.cli", "isoclasses", "--quiver", "k2",
             "--q", "2", "--d", "2,2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader exits before the first write
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert code != 3
        assert code == 141
        assert "Traceback" not in err and "internal inconsistency" not in err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["hallpoly", "--quiver", "c1", "--L", "(1,1)", "--M", "(1)", "--N", "(1)",
         "--jobs", "2"],
        ["hallnum", "--quiver", "c1", "--L", "(1,1)", "--M", "(1)", "--N", "(1)",
         "--jobs", "2"],
        ["isoclasses", "--quiver", "k2", "--d", "1,1", "--jobs", "2"],
        ["primitive", "--quiver", "k2", "--d", "1,1", "--cache-dir", "unused"],
        ["hallpoly", "--quiver", "c1", "--L", "(1,1)", "--M", "(1)", "--N", "(1)",
         "--cache-dir", "unused"],
        ["verify", "--all", "--jobs", "2"],
    ], ids=["hallpoly-jobs", "hallnum-jobs", "isoclasses-jobs", "primitive-cache-dir",
            "hallpoly-cache-dir", "verify-jobs"])
    def test_ignored_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,unused", [
        (["element", "--family", "jordan_pn", "--n", "2", "--r", "5", "--m", "3",
          "--deg", "2", "--index", "4"], "jordan_pn takes no --r, --m, --deg, --index"),
        (["element", "--family", "kron_p0", "--n", "1", "--symbolic"],
         "kron_p0 takes no --symbolic"),
        (["element", "--family", "cyclic_pnr", "--r", "2", "--n", "1", "--m", "1"],
         "cyclic_pnr takes no --m"),
        (["element", "--family", "tube_pm", "--m", "2", "--n", "1", "--r", "2"],
         "tube_pm takes no --r, --n"),
        (["element", "--family", "kron_pk2", "--index", "0", "--deg", "1"],
         "kron_pk2 takes no --deg, --index"),
    ], ids=["jordan", "kron-symbolic", "cyclic-m", "tube-n-r", "kron-default-values"])
    def test_element_refuses_a_flag_its_family_does_not_read(self, monkeypatch, capsys,
                                                             argv, unused):
        """Each family reads its own flags; any other flag given, even at
        the value it would default to, exits 2 before an engine is built."""
        from hallalg import cli

        def refused(*args):
            raise AssertionError("an engine was built")

        for name in ("get_nilpotent_engine", "get_brute_engine", "p_jordan_symbolic"):
            monkeypatch.setattr(cli, name, refused)
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"usage error: element --family {unused}\n"

    def test_symbolic_hallnum_refuses_cache_dir(self, tmp_path, monkeypatch, capsys):
        from hallalg import cli

        monkeypatch.setattr(cli, "hall_polynomial", None)
        assert run_cli(["hallnum", "--quiver", "c1", "--L", "(1,1)", "--M", "(1)",
                        "--N", "(1)", "--symbolic", "--cache-dir", str(tmp_path)]) == (2, "")
        err = capsys.readouterr().err
        assert err == "usage error: hallnum --symbolic takes no --cache-dir\n"
        assert os.listdir(tmp_path) == []


def _mode_argvs():
    """(argv, flags it reads) for every mode of every command: each is read
    from its runner table, so a new mode cannot be left out."""
    from hallalg import cli, suite

    inputs = {"nil": ["--quiver", "c1", "--d", "3"], "brute": ["--quiver", "k2", "--d", "1,1"]}
    modes = [(["isoclasses", *inputs[kind]], run) for kind, run in cli.CLASS_RUNNERS.items()]
    modes += [([command, "--quiver", "c1", "--L", "(1,1)", "--M", "(1)", "--N", "(1)", *rest], run)
              for (command, *rest), run in ((mode.split(), run)
                                            for mode, run in cli.HALL_RUNNERS.items())]
    modes.append((["primitive", "--quiver", "k2", "--d", "1,1", "--reg"], cli.PRIMITIVE_RUNNER))
    modes += [(["element", "--family", *mode.split()], run)
              for mode, run in cli.ELEMENT_RUNNERS.items()]
    modes += [(["verify", check], run) for check, run in suite.CHECK_RUNNERS.items()]
    modes += [(["fourier", "--check", check], run)
              for check, run in {**suite.FOURIER_RUNNERS, "glsum": cli.GLSUM_RUNNER}.items()]
    return [(argv, run.flags) for argv, run in modes] + [(["verify", "--all"], ())]


_MODES = _mode_argvs()


class TestOneFlagRule:
    """A flag that is given is read or refused: for every mode of every
    command, each parser flag the mode does not read exits 2 with
    `<mode> takes no --<flag>` before any work starts."""

    VALUES = {"--q": ["5"], "--r": ["2"], "--n": ["1"], "--m": ["1"], "--deg": ["1"],
              "--index": ["0"], "--symbolic": [], "--pair": ["a2"]}

    @staticmethod
    def _parser_flags(command):
        import argparse

        from hallalg import cli

        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return [a.option_strings[0] for a in sub.choices[command]._actions
                if a.option_strings and a.dest != "help"]

    @pytest.mark.parametrize("argv,reads", _MODES, ids=[" ".join(argv) for argv, _ in _MODES])
    def test_unread_flag_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                 argv, reads):
        from types import SimpleNamespace

        from hallalg import cli, report

        def started(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("get_nilpotent_engine", "get_brute_engine", "hall_polynomial",
                     "p_jordan_symbolic", "gl_character_sum"):
            monkeypatch.setattr(cli, name, started)
        monkeypatch.setattr(report, "time", SimpleNamespace(monotonic=started))
        assert run_cli(argv) == (3, "")  # the mode starts work, and the work is caught
        capsys.readouterr()
        cache = tmp_path / "cache"
        values = dict(self.VALUES, **{"--cache-dir": [str(cache)]})
        # every mode reads --format; a flag that makes argv another mode's
        # argv chooses that mode, and --all is verify's mode without a check
        unread = [flag for flag in self._parser_flags(argv[0])
                  if flag not in argv and flag[2:].replace("-", "_") not in reads
                  and argv + [flag] not in [other for other, _ in _MODES]
                  and flag not in ("--all", "--format")]
        for flag in unread:
            assert run_cli(argv + [flag, *values[flag]]) == (2, "")
            assert f"takes no {flag}\n" in capsys.readouterr().err
        assert not cache.exists()


class TestParserReuse:
    """main builds the parser once per process; calls share nothing else."""

    def test_cache_dir_does_not_leak_into_the_next_call(self, tmp_path, monkeypatch):
        cache_dir, workdir = tmp_path / "cache", tmp_path / "work"
        cache_dir.mkdir()
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        base = ["isoclasses", "--quiver", "k2", "--q", "2", "--d", "1,1"]
        code1, cold = run_cli(base + ["--cache-dir", str(cache_dir), "--format", "json"])
        written = sorted(os.listdir(cache_dir))
        assert code1 == 0 and written
        for name in written:
            os.remove(cache_dir / name)
        code2, plain = run_cli(base)
        assert code2 == 0
        assert os.listdir(cache_dir) == [] and os.listdir(workdir) == []
        assert plain.splitlines()[0].split() == ["class", "aut", "orbit_size"]
        assert json.loads(cold) and plain != cold

    def test_parser_is_built_once(self, monkeypatch):
        from hallalg import cli

        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for q in ("2", "3", "4", "2", "3"):
            assert run_cli(["hallnum", "--quiver", "c1", "--q", q,
                            "--L", "(1,1)", "--M", "(1)", "--N", "(1)"])[0] == 0
        assert len(built) == 1

    def test_patched_command_is_reached_after_the_parser_exists(self, monkeypatch):
        from hallalg import cli

        assert run_cli(["hallnum", "--quiver", "c1", "--q", "2",
                        "--L", "(1,1)", "--M", "(1)", "--N", "(1)"]) == (0, "3\n")
        seen = []

        def fake(args, out):
            seen.append(args.q)
            out.write("patched\n")
            return 0

        monkeypatch.setattr(cli, "cmd_hallnum", fake)
        assert run_cli(["hallnum", "--quiver", "c1", "--q", "3",
                        "--L", "(1,1)", "--M", "(1)", "--N", "(1)"]) == (0, "patched\n")
        assert seen == [3]
