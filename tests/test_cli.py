"""Command-line interface: output formats, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import gwtqft
from gwtqft import __version__
from gwtqft.cli import dumps_canonical, main, phi_latex
from gwtqft.exactring import TPoly, parse_poly
from gwtqft.phicalc import PhiElem

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_genus_one_text(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--genus", "1", "--level1", "0",
                               "--level2", "0", "--format", "text")
        assert code == 0
        assert out.strip() == "3"

    def test_genus_zero(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--genus", "0", "--level1", "0",
                               "--level2", "0")
        assert code == 0
        assert out.strip() == "0"

    def test_genus_two_latex(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--genus", "2", "--format", "latex")
        assert code == 0
        assert out.strip() == "t_0^2-t_0t_1-t_0t_2+t_1^2-t_1t_2+t_2^2"

    def test_json_schema_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "-g", "1", "--level1", "1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"g", "k1", "k2", "terms", "version"}
        assert doc["version"] == __version__
        assert doc["terms"][0].keys() == {"phi_exp", "num", "den"}
        # byte-identical reserialization
        assert dumps_canonical(doc) == out.strip()
        # numbers parse back into the exact symbolic value
        got = PhiElem.from_json_terms(doc["terms"])
        assert got == PhiElem.term((t1 - t0) * (t1 - t2), -2)


class TestExtract:
    def test_calabi_yau(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "--genus", "4", "--n", "2")
        assert code == 0
        assert out.strip() == "81*phi^6"

    def test_vanishing_class(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "--genus", "3", "--n", "1")
        assert code == 0
        assert out.strip() == "0"

    def test_level_one(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "--genus", "1", "--level1", "1",
                               "--n", "-1")
        assert code == 0
        assert parse_poly(out.strip().removesuffix("*phi^-2").strip("()")) == (
            t1 - t0
        ) * (t1 - t2)


class TestGenus:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "--genus", "0", "--level1", "1",
                               "--n", "-1", "--hmax", "2")
        assert code == 0
        assert out.splitlines() == ["h=0: 1", "h=1: 1/12", "h=2: 1/240"]

    def test_constant_class(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "--genus", "1", "--n", "0",
                               "--hmax", "3")
        assert code == 0
        assert out.splitlines() == ["h=0: 0", "h=1: 3", "h=2: 0", "h=3: 0"]

    def test_cy_level_two(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "--genus", "2", "--level2", "2",
                               "--n", "0", "--hmax", "3")
        assert code == 0
        assert "h=2: 9" in out
        assert "h=3: -3/4" in out

    def test_insufficient_order(self, capsys):
        code, _, err = run_cli(capsys, "genus", "--genus", "1", "--n", "0",
                               "--hmax", "9", "--order", "4")
        assert code == 2
        assert "u^16" in err

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "--genus", "0", "--level1", "1",
                               "--n", "-1", "--hmax", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [
            {"h": 0, "num": "1", "den": "1"},
            {"h": 1, "num": "1/12", "den": "1"},
        ]


class TestVerify:
    def test_small_cy_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "cy", "--gmax", "2",
                               "--kmax", "2")
        assert code == 0
        assert "calabi_yau: pass" in out

    def test_numeric_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "numeric", "--seed", "42",
                               "--trials", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out.splitlines()[0])
        assert doc["passed"] is True

    def test_semisimple_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "semisimple")
        assert code == 0
        assert "semisimplicity: pass" in out


class TestWord:
    def test_scalar_word(self, capsys):
        code, out, _ = run_cli(capsys, "word", "trace(tube(0,0))")
        assert code == 0
        assert out.strip() == "3"

    def test_cap_pants(self, capsys):
        code, out, _ = run_cli(capsys, "word", "cap(0,-1) * pants")
        assert code == 0
        assert "class beta0:" in out
        assert "class beta0+1f:" in out

    def test_matrix_word_json(self, capsys):
        code, out, _ = run_cli(capsys, "word", "trace(G^1 * U1^1)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tensor"]["rank"] == 0

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "word", "cap(0,-1) ** pants")
        assert code == 2
        assert "position" in err


class TestUsageErrors:
    def test_missing_genus(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2

    def test_bad_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_negative_genus(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--genus", "-1")
        assert code == 2


class TestExitCodes:
    def test_internal_consistency_error_is_exit_3(self, capsys, monkeypatch):
        from gwtqft import cli
        from gwtqft.phicalc import ReductionError

        def boom(args):
            raise ReductionError("forced failure")

        monkeypatch.setattr(cli, "cmd_compute", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["compute", "-g", "1"])
        args.fn = boom
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv: args)
        code = cli.main(["compute", "-g", "1"])
        assert code == 3
        assert "internal consistency" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, line",
        [
            (RecursionError("maximum recursion depth exceeded"),
             "internal error: RecursionError: maximum recursion depth exceeded\n"),
            (MemoryError(), "internal error: MemoryError\n"),
        ],
    )
    def test_interpreter_limit_is_exit_3(self, capsys, monkeypatch, error, line):
        from gwtqft import cli

        def boom(args):
            raise error

        # build_parser binds the command when main calls it
        monkeypatch.setattr(cli, "cmd_compute", boom)
        code = cli.main(["compute", "-g", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == line
        assert "Traceback" not in err

    def test_failed_check_is_exit_1(self, capsys, monkeypatch):
        from gwtqft import checks, cli
        from gwtqft.checks import CheckReport

        bad = CheckReport("demo", "unit")
        bad.check("p", 1, 2)
        # cli imports the suites only inside verify, from the checks module
        monkeypatch.setattr(checks, "run_checks", lambda **kw: [bad])
        code = cli.main(["verify", "--suite", "cy"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestNumericReEvaluation:
    def test_parsed_output_matches_numeric_trace(self, capsys):
        import random

        from gwtqft.checks import numeric_trace

        code, out, _ = run_cli(capsys, "compute", "-g", "2", "--level1", "1",
                               "--format", "json")
        assert code == 0
        parsed = PhiElem.from_json_terms(json.loads(out)["terms"])
        rng = random.Random(17)
        for _ in range(5):
            while True:
                pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                           for _ in range(3))
                if len(set(pt)) == 3:
                    break
            assert parsed.evaluate_t(pt) == numeric_trace(2, 1, 0, pt)


class TestCachePersistence:
    def test_cache_file_written_and_reused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GWTQFT_CACHE_DIR", str(tmp_path))
        code, out1, _ = run_cli(capsys, "compute", "-g", "2")
        assert code == 0
        cache = tmp_path / "zcache.json"
        assert cache.exists()
        data = json.loads(cache.read_text())
        assert any(e["g"] == 2 for e in data["entries"])
        code, out2, _ = run_cli(capsys, "compute", "-g", "2")
        assert out1 == out2

    def test_rejected_denominator_in_cache_is_exit_3(self, tmp_path):
        # a fresh process, so the poisoned entry cannot reach this session's memo
        entry = {"g": 2, "k1": 0, "k2": 0,
                 "terms": [{"phi_exp": 0, "num": "1", "den": "t0 + t1"}]}
        (tmp_path / "zcache.json").write_text(json.dumps({"entries": [entry]}))
        env = dict(os.environ, GWTQFT_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)))
        proc = subprocess.run([sys.executable, "-m", "gwtqft.cli", "compute", "-g", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert "internal consistency error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("payload", [
        {"entries": [{"g": 2, "k1": 0, "terms": []}]},  # entry without "k2"
        {"entries": 5},
        [1],
    ], ids=["missing_key", "entries_not_a_list", "top_level_list"])
    def test_malformed_cache_is_exit_2(self, tmp_path, payload):
        (tmp_path / "zcache.json").write_text(json.dumps(payload))
        env = dict(os.environ, GWTQFT_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)))
        proc = subprocess.run([sys.executable, "-m", "gwtqft.cli", "compute", "-g", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "zcache.json" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_mis_graded_cache_is_exit_2(self, tmp_path):
        # Z(2|0,0) has t-degree 2, so the constant 5 cannot be it
        entry = {"g": 2, "k1": 0, "k2": 0,
                 "terms": [{"phi_exp": 0, "num": "5", "den": "1"}]}
        (tmp_path / "zcache.json").write_text(json.dumps({"entries": [entry]}))
        proc = _fresh_cli(tmp_path, "compute", "-g", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "zcache.json" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cache_written_only_when_an_entry_is_added(self, tmp_path):
        cache = tmp_path / "zcache.json"
        assert _fresh_cli(tmp_path, "compute", "-g", "2").returncode == 0
        # an old mtime, so that any rewrite shows even on a coarse clock
        os.utime(cache, ns=(10**18, 10**18))
        data, stamp = cache.read_bytes(), cache.stat().st_mtime_ns
        for argv in (("compute", "-g", "2"), ("extract", "-g", "2", "--n", "0"),
                     ("genus", "-g", "2", "--n", "0", "--hmax", "1")):
            assert _fresh_cli(tmp_path, *argv).returncode == 0
            assert cache.read_bytes() == data
            assert cache.stat().st_mtime_ns == stamp
        assert _fresh_cli(tmp_path, "compute", "-g", "3").returncode == 0
        keys = {(e["g"], e["k1"], e["k2"]) for e in json.loads(cache.read_text())["entries"]}
        assert keys == {(2, 0, 0), (3, 0, 0)}
        assert [f.name for f in tmp_path.iterdir()] == ["zcache.json"]


def _env(cache_dir=None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)))
    env.pop("GWTQFT_CACHE_DIR", None)
    if cache_dir is not None:
        env["GWTQFT_CACHE_DIR"] = str(cache_dir)
    return env


def _fresh_cli(cache_dir, *argv) -> subprocess.CompletedProcess:
    """Run one CLI command in a new interpreter over the given cache directory."""
    return subprocess.run([sys.executable, "-m", "gwtqft.cli", *argv], capture_output=True,
                          text=True, env=_env(cache_dir), timeout=120)


def _loaded_modules(argv, cache_dir=None) -> list[str]:
    """The gwtqft modules and ``dataclasses`` a new process holds after one command."""
    code = ("import json, sys, gwtqft.cli; gwtqft.cli.main(sys.argv[1:]); "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('gwtqft') or m == 'dataclasses')))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_env(cache_dir), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestClosedStdout:
    def test_closed_stdout_is_exit_141(self):
        # the read end is closed before the program writes, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)))
        env.pop("GWTQFT_CACHE_DIR", None)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gwtqft.cli", "word", "trace(G^2 * U1)"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert "Traceback" not in proc.stderr


class TestStartup:
    def test_compute_does_not_import_checks(self):
        code = ("import sys, gwtqft.cli; gwtqft.cli.main(['compute', '-g', '1']); "
                "print('gwtqft.checks' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)))
        env.pop("GWTQFT_CACHE_DIR", None)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.stdout.split() == ["3", "False"]

    @pytest.mark.parametrize("argv", [
        ("compute", "-g", "2"),
        ("extract", "-g", "2", "--n", "0"),
        ("genus", "-g", "2", "--n", "0", "--hmax", "1"),
    ], ids=["compute", "extract", "genus"])
    def test_cache_hit_loads_no_tensor_code(self, tmp_path, argv):
        assert _fresh_cli(tmp_path, "compute", "-g", "2").returncode == 0
        assert _loaded_modules(argv, tmp_path) == [
            "gwtqft", "gwtqft.cli", "gwtqft.exactring", "gwtqft.partition", "gwtqft.phicalc",
        ]

    def test_word_loads_no_checks_or_dataclasses(self):
        loaded = _loaded_modules(["word", "trace(G^2 * U1)"])
        assert "gwtqft.gluing" in loaded
        assert "gwtqft.checks" not in loaded
        assert "dataclasses" not in loaded


class TestLatex:
    def test_phi_latex_forms(self):
        assert phi_latex(PhiElem.term(81, 6)) == "81\\phi^{6}"
        assert phi_latex(PhiElem.term(1, -2)) == "\\phi^{-2}"
        assert phi_latex(PhiElem.zero()) == "0"
        e = PhiElem.term((t1 - t0) * (t1 - t2), -2)
        assert phi_latex(e).endswith("\\phi^{-2}")
