"""Command-line interface: output formats, exit codes, JSON stability."""

import ast
import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import gwtqft
from gwtqft import __version__
from gwtqft.cli import dumps_canonical, main
from gwtqft.exactring import LATEX, TPoly
from gwtqft.phicalc import PhiElem
from reference import parse_poly, phi, phi_from_json, value_mod

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
        got = phi_from_json(doc["terms"])
        assert got == phi((t1 - t0) * (t1 - t2), -2)


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

    def test_order_option_is_gone(self, capsys):
        # the table is computed to the u-power it needs; argparse's wording
        # differs between Python versions, so only the exit code is checked
        with pytest.raises(SystemExit) as exc:
            main(["genus", "--genus", "1", "--n", "0", "--hmax", "9", "--order", "4"])
        assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "genus", "--genus", "1", "--n", "0", "--hmax", "9")
        assert code == 0
        assert out.splitlines() == [f"h={h}: {3 if h == 1 else 0}" for h in range(10)]

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

    def test_help_names_the_suites_each_option_reaches(self, capsys):
        from gwtqft.checks import MAX_TRIALS, _cy_bounds, _special_bounds

        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        (cg, ck), (sg, sk) = _cy_bounds(None, None), _special_bounds(None, None)
        assert f"genus of the cy and appendixB sweeps (defaults {cg} and {sg})" in text
        assert f"|level| of the cy and appendixB sweeps (defaults {ck} and {sk})" in text
        assert "seed of the numeric suite's random keys and points (default 42)" in text
        assert f"number of numeric trials, in 1..{MAX_TRIALS} (default 20)" in text

    def test_semisimple_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "semisimple")
        assert code == 0
        assert "semisimplicity: pass" in out

    def test_all_suites_json_is_pinned(self, capsys):
        # every field but the timing
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1",
                               "--format", "json")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        for doc in docs:
            del doc["elapsed"]
        assert docs == [
            {"cases": 16, "check_id": "calabi_yau", "failures": [], "passed": True,
             "swept": "0<=g<=6, 0<=k<=6, 3 | 2g-2-k"},
            {"cases": 273, "check_id": "gluing_derivations", "failures": [], "passed": True,
             "swept": "generator identities; words g<=3, |k|<=2"},
            {"cases": 20, "check_id": "numeric_crosscheck", "failures": [], "passed": True,
             "swept": "seed=1, trials=20"},
            {"cases": 54, "check_id": "semisimplicity", "failures": [], "passed": True,
             "swept": "structure constants at u = 0"},
            {"cases": 422, "check_id": "special_cases", "failures": [], "passed": True,
             "swept": "0<=g<=5, |k|<=4; level-(0,0) family up to g=8"},
        ]


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tube(0,0) * cap(0,0) * tube(0,0)", "slot (1, 0) is unknown or already glued"),
            ("trace(cap(0,0) * tube(0,0))", "slot (0, 0) is unknown or already glued"),
            ("trace(tube(0,0) * cap(0,0))", "slot (1, 0) is unknown or already glued"),
            ("trace(cap(0,0))", "trace needs a two-slot composite"),
        ],
    )
    def test_cap_inside_a_chain_is_exit_2(self, capsys, text, message):
        # a cap has one slot, so it can only end an open chain
        code, out, err = run_cli(capsys, "word", text)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("G * X", "unknown generator 'X' at position 4"),
            ("  G * X", "unknown generator 'X' at position 6"),
            ("trace(G * X)", "unknown generator 'X' at position 10"),
            # the closing parenthesis is the tube's, so trace( is never closed
            ("trace(tube(0,0)", "malformed trace(...) at position 0"),
            # a word is traced only when the name trace is followed by "("
            ("traceG", "unknown generator 'traceG' at position 0"),
            ("tracer * G", "unknown generator 'tracer' at position 0"),
            ("trace", "unknown generator 'trace' at position 0"),
            ("  traceG(", "unknown generator 'traceG' at position 2"),
            ("trace (G", "malformed trace(...) at position 0"),
        ],
    )
    def test_parse_error_position_is_an_offset_in_the_typed_text(self, capsys, text, message):
        code, out, err = run_cli(capsys, "word", text)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_trace_then_spaces_then_a_parenthesis_is_traced(self, capsys):
        assert run_cli(capsys, "word", "trace (G)") == run_cli(capsys, "word", "trace(G)")
        assert run_cli(capsys, "word", "trace(G)")[:2] == (0, "t0^2 - t0*t1 - t0*t2 + t1^2 - t1*t2 + t2^2\n")

    def test_phi_power_off_the_class_grading_is_exit_3(self, capsys, monkeypatch):
        # a phi^1 term in a level-0 tensor belongs to no fiber class
        from gwtqft import words
        from gwtqft.operators import _phi

        pants = words.build_pants()
        bad = pants.entries[0] + _phi(1, 1)
        doctored = words.RelTensor(pants.variance, (bad,) + pants.entries[1:])
        monkeypatch.setattr(words, "build_pants", lambda: doctored)
        code, out, err = run_cli(capsys, "word", "cap(0,0) * pants")
        assert code == 3
        assert out == ""
        assert err.startswith("internal consistency error: phi^1 in a tensor of level 0 ")
        assert len(err.splitlines()) == 1


def _terms(*terms):
    return [{"den": den, "num": num, "phi_exp": m} for num, den, m in terms]


def _entry(slots, *terms):
    return {"slots": list(slots), "terms": _terms(*terms)}


def _tensor(variance, *entries):
    return {"entries": list(entries), "rank": len(variance), "variance": list(variance)}


# (t0 - t1)(t0 - t2)^2 and (t1 - t0)(t1 - t2)^2, expanded
_CUBICS = (
    "t0^3 - t0^2*t1 - 2*t0^2*t2 + 2*t0*t1*t2 + t0*t2^2 - t1*t2^2",
    "-t0*t1^2 + 2*t0*t1*t2 - t0*t2^2 + t1^3 - 2*t1^2*t2 + t1*t2^2",
)

#: word -> (text output, JSON document), recorded before the four shapes
#: below shared one printing path: zero, a scalar, two classes, and an
#: operator word whose entries carry denominators
WORD_SHAPES = {
    "cap(0,0) * cap(0,0)": ("0\n", {"classes": []}),
    "cap(0,1) * cap(0,0)": (
        "phi^-2\n",
        {"classes": [{"n": -1, "tensor": _tensor([], _entry([], ("1", "1", -2)))}]},
    ),
    "cap(0,-1) * pants": (
        "class beta0:\n"
        f"  Z_x0_x0 = ({_CUBICS[0]})*phi^-1\n"
        f"  Z_x1_x1 = ({_CUBICS[1]})*phi^-1\n"
        "class beta0+1f:\n"
        + "".join(f"  Z_x{a}_x{b} = phi^2\n" for a, b in product(range(3), repeat=2)),
        {
            "classes": [
                {
                    "n": 0,
                    "tensor": _tensor(
                        ["lowered", "lowered"],
                        _entry([0, 0], (_CUBICS[0], "1", -1)),
                        _entry([1, 1], (_CUBICS[1], "1", -1)),
                    ),
                },
                {
                    "n": 1,
                    "tensor": _tensor(
                        ["lowered", "lowered"],
                        *(_entry(ab, ("1", "1", 2)) for ab in product(range(3), repeat=2)),
                    ),
                },
            ]
        },
    ),
    "U1 * U2inv": (
        "Z^x0_x0 = (t0 - t2) / (t0 - t1)\n"
        "Z^x0_x1 = (t1^2 - 2*t1*t2 + t2^2) / (t0^2 - t0*t1 - t0*t2 + t1*t2)\n"
        "Z^x1_x0 = (-t1 + t2) / (t0 - t1)\n"
        f"Z^x1_x1 = ({_CUBICS[1]})*phi^-3 + (2*t0 - 3*t1 + t2) / (t0 - t1)\n"
        "Z^x1_x2 = 1\n"
        "Z^x2_x1 = (-t0 + t1) / (t0 - t2)\n",
        {
            "tensor": _tensor(
                ["raised", "lowered"],
                _entry([0, 0], ("t0 - t2", "t0 - t1", 0)),
                _entry([0, 1], ("t1^2 - 2*t1*t2 + t2^2", "t0^2 - t0*t1 - t0*t2 + t1*t2", 0)),
                _entry([1, 0], ("-t1 + t2", "t0 - t1", 0)),
                _entry(
                    [1, 1],
                    (_CUBICS[1], "1", -3),
                    ("2*t0 - 3*t1 + t2", "t0 - t1", 0),
                ),
                _entry([1, 2], ("1", "1", 0)),
                _entry([2, 1], ("-t0 + t1", "t0 - t2", 0)),
            )
        },
    ),
}


class TestWordShapes:
    """The printed forms of a word: zero, a scalar, split classes and an
    operator word with denominators, in text and JSON."""

    @pytest.mark.parametrize("text", WORD_SHAPES)
    def test_text(self, capsys, text):
        assert run_cli(capsys, "word", text) == (0, WORD_SHAPES[text][0], "")

    @pytest.mark.parametrize("text", WORD_SHAPES)
    def test_json(self, capsys, text):
        doc = dict(WORD_SHAPES[text][1], word=text, version=__version__)
        want = dumps_canonical(doc) + "\n"
        assert run_cli(capsys, "word", text, "--format", "json") == (0, want, "")


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

    def test_oversized_genus_order_is_exit_2(self):
        # a table that needs a u-power above the limit is rejected before
        # any work, with a message that names no option: the child spends
        # well under a second of CPU time
        proc, cpu = _fresh_cli_cpu("genus", "-g", "0", "--n", "100", "--hmax", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: this table needs u^304, above the limit u^200\n"
        assert cpu < 1.0, cpu

    def test_oversized_genus_hmax_is_exit_2(self):
        # a very negative --n needs almost no order, but each h is a row:
        # --hmax 1000000 printed a million rows in 7.6 s before the bound
        proc, cpu = _fresh_cli_cpu("genus", "-g", "0", "--n", "-100000000",
                                   "--hmax", "100000000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: h_max 100000000 is above the limit 200\n"
        assert cpu < 1.0, cpu

    @pytest.mark.parametrize("argv, size", [
        (("compute", "-g", "2", "--level1", "800"), 802),
        (("compute", "-g", "1200"), 1200),
    ], ids=["level", "genus"])
    def test_oversized_request_is_exit_2(self, argv, size):
        # rejected before any recurrence; without the bound the kernel
        # killed trace_formula(2, 800, 0) (exit 137)
        proc, cpu = _fresh_cli_cpu(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: g + |k1| + |k2| = {size} is above the limit 102\n"
        assert cpu < 1.0, cpu

    def test_oversized_verify_bounds_are_exit_2(self):
        # rejected before any suite runs; the cy sweep up to g = 103 computed
        # for 16 s before the request bound stopped it
        proc, cpu = _fresh_cli_cpu("verify", "--suite", "cy", "--gmax", "103", "--kmax", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: --gmax 103 --kmax 0 makes --suite cy request g + |k1| + |k2| = 103,"
            " above the limit 102\n"
        )
        assert cpu < 1.0, cpu

    def test_oversized_verify_trials_is_exit_2(self):
        # rejected before any suite runs; at about 5 ms a trial, a billion
        # trials would run for months
        proc, cpu = _fresh_cli_cpu("verify", "--trials", "1000000000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --trials 1000000000 is outside 1..1000\n"
        assert cpu < 1.0, cpu

    def test_oversized_word_is_exit_2(self):
        # rejected before ten million generators are listed or contracted
        proc = _fresh_cli("word", "A^10000000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("text, slots", [("pants^32", 34), ("trace(pants^8)", 9)])
    def test_too_wide_word_is_exit_2(self, text, slots):
        # rejected before any contraction: pants^9, 11 slots, took 90 s
        # before the bound, and pants^32 never finished
        proc, cpu = _fresh_cli_cpu("word", text)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: the word builds a tensor of {slots} slots; at most 8 are allowed\n"
        )
        assert cpu < 1.0, cpu

    @pytest.mark.parametrize("flag", ["--gmax", "--kmax"])
    def test_negative_sweep_bound_is_exit_2(self, flag):
        proc = _fresh_cli("verify", "--suite", "cy", flag, "-3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1


class TestExitCodes:
    def test_internal_consistency_error_is_exit_3(self, capsys, monkeypatch):
        from gwtqft import cli
        from gwtqft.exactring import ReductionError

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
            # no input can divide by zero, so a division by zero is an internal fault
            (ZeroDivisionError("denominator is zero"),
             "internal error: ZeroDivisionError: denominator is zero\n"),
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

    def test_interrupt_is_exit_130(self, capsys, monkeypatch):
        # Ctrl-C raises KeyboardInterrupt wherever the command happens to be
        from gwtqft import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_compute", interrupted)
        code = cli.main(["compute", "-g", "1"])
        err = capsys.readouterr().err
        assert code == 130
        assert err == "interrupted\n"
        assert "Traceback" not in err

    def test_level_operator_with_det_other_than_1_is_exit_3(self, capsys, monkeypatch):
        # a level k <= -2 walks U1inv, whose det must be 1
        from gwtqft import gluing
        from gwtqft.operators import _phi

        build, two = gluing.build_operator, _phi(2, 0)

        def doubled(name):
            m = build(name)
            return tuple(tuple(e * two for e in row) for row in m) if name == "U1inv" else m

        caches = (gluing._seed, gluing._char_poly, gluing.trace_formula)
        monkeypatch.setattr(gluing, "build_operator", doubled)
        for cache in caches:
            cache.cache_clear()
        try:
            result = run_cli(capsys, "compute", "-g", "2", "--level1", "-3")
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
        assert result == (3, "", "internal consistency error: det U1inv is not 1\n")

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

        from gwtqft.checks import _random_residues, numeric_trace

        code, out, _ = run_cli(capsys, "compute", "-g", "2", "--level1", "1",
                               "--format", "json")
        assert code == 0
        parsed = phi_from_json(json.loads(out)["terms"])
        rng = random.Random(17)
        for _ in range(5):
            pt = _random_residues(rng, 2)
            assert value_mod(parsed, pt) == numeric_trace(2, 1, 0, pt)

    @pytest.mark.parametrize("key", [(2, 1, 0), (3, -2, 1), (1, 0, -3), (0, -2, 2), (1, -2, -2)])
    def test_printed_z_matches_numeric_trace_and_a_changed_digit_does_not(self, capsys, key):
        import random
        import re

        from gwtqft.checks import _elem_mod, _random_residues, numeric_trace

        g, k1, k2 = key
        code, out, _ = run_cli(capsys, "compute", "-g", str(g), "--level1", str(k1),
                               "--level2", str(k2), "--format", "json")
        assert code == 0
        terms = json.loads(out)["terms"]
        point = _random_residues(random.Random(sum(key)), g)
        want = numeric_trace(g, k1, k2, point)
        assert _elem_mod(phi_from_json(terms), point) == want
        # the first digit of the last numerator that is no variable's index
        num = terms[-1]["num"]
        i = re.search(r"(?<!t)\d", num).start()
        terms[-1] = {**terms[-1], "num": num[:i] + str(int(num[i]) % 9 + 1) + num[i + 1:]}
        assert _elem_mod(phi_from_json(terms), point) != want


class TestWordGolden:
    """``word`` output is byte-identical to the hashes the benchmark checks."""

    PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

    def _session_words(self) -> tuple[str, ...]:
        # read, not imported, so that nothing is written under perfbench/
        tree = ast.parse((self.PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SESSION_WORDS"]:
                return ast.literal_eval(node.value)
        raise AssertionError("SESSION_WORDS not found")

    def test_session_words_match_golden_hashes(self, capsys):
        golden = json.loads((self.PERFBENCH / "golden.json").read_text(encoding="utf-8"))
        hashes = golden["stdout_sha256"]
        words = self._session_words()
        assert words
        for text in words:
            for fmt in ("text", "json"):
                argv = ["word", text, "--format", fmt]
                assert main(argv) == 0
                out = capsys.readouterr().out.encode("utf-8")
                assert hashlib.sha256(out).hexdigest() == hashes[shlex.join(argv)], argv

    def test_every_golden_request_matches(self, capsys):
        # every compute, extract, genus and word request the benchmark checks
        hashes = json.loads((self.PERFBENCH / "golden.json").read_text(encoding="utf-8"))
        hashes = hashes["stdout_sha256"]
        assert {key.split()[0] for key in hashes} == {"compute", "extract", "genus", "word"}
        for key, digest in hashes.items():
            argv = shlex.split(key)
            assert main(argv) == 0, key
            out = capsys.readouterr().out.encode("utf-8")
            assert hashlib.sha256(out).hexdigest() == digest, key


class TestNoRationalArithmeticInT:
    """Every user-facing request computes in the folded ring and only
    re-expands and prints in t: no TRat is added or multiplied."""

    WORDS = ("trace(G^2)", "trace(G * U1)", "A * B", "cap(0,-1) * pants",
             "tube(0,1) * tube(0,-1)", "trace(U1inv * U2)")

    @staticmethod
    def _requests():
        for g, k1, k2 in product(range(4), (-1, 0, 2), (-2, 0, 1)):
            key = ["-g", str(g), "--level1", str(k1), "--level2", str(k2)]
            top = (2 * g - 2 - k1 - k2) // 3
            for fmt in ("text", "json", "latex"):
                yield ["compute", *key, "--format", fmt]
                for n in (top, top - 1):
                    yield ["extract", *key, "--n", str(n), "--format", fmt]
                    yield ["genus", *key, "--n", str(n), "--hmax", "3", "--format", fmt]
        for text in TestNoRationalArithmeticInT.WORDS:
            for fmt in ("text", "json"):
                yield ["word", text, "--format", fmt]

    def test_requests_never_add_or_multiply_fractions_in_t(self, monkeypatch, capsys):
        from gwtqft import gluing
        from gwtqft.exactring import TRat

        def boom(*args):
            raise AssertionError("rational arithmetic in t0, t1, t2")

        monkeypatch.setattr(TRat, "__add__", boom)
        monkeypatch.setattr(TRat, "__mul__", boom)
        gluing.trace_formula.cache_clear()
        try:
            for argv in self._requests():
                assert main(argv) == 0, argv
                assert capsys.readouterr().out, argv
        finally:
            gluing.trace_formula.cache_clear()


class TestLeftoverCache:
    """Earlier versions kept Z in ``$GWTQFT_CACHE_DIR/zcache.json``; the
    variable and the file are now ignored."""

    def test_poisoned_cache_file_is_ignored(self, tmp_path):
        cache = tmp_path / "zcache.json"
        entry = {"g": 2, "k1": 0, "k2": 0,
                 "terms": [{"phi_exp": 0, "num": "5", "den": "1"}]}
        cache.write_text(json.dumps({"entries": [entry]}))
        data = cache.read_bytes()
        proc = _fresh_cli("compute", "-g", "2", GWTQFT_CACHE_DIR=str(tmp_path))
        assert proc.returncode == 0
        assert proc.stdout == "t0^2 - t0*t1 - t0*t2 + t1^2 - t1*t2 + t2^2\n"
        assert proc.stderr == ""
        assert cache.read_bytes() == data
        assert [f.name for f in tmp_path.iterdir()] == ["zcache.json"]

    def test_cache_dir_naming_a_file_is_ignored(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        proc = _fresh_cli("compute", "-g", "1", GWTQFT_CACHE_DIR=str(blocker))
        assert proc.returncode == 0
        assert proc.stdout == "3\n"
        assert proc.stderr == ""
        assert [f.name for f in tmp_path.iterdir()] == ["not_a_dir"]
        assert blocker.read_bytes() == b""


def _env(**extra) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gwtqft.__file__)),
                **extra)


def _fresh_cli(*argv, **extra_env) -> subprocess.CompletedProcess:
    """Run one CLI command in a new interpreter."""
    return subprocess.run([sys.executable, "-m", "gwtqft.cli", *argv], capture_output=True,
                          text=True, env=_env(**extra_env), timeout=120)


def _fresh_cli_cpu(*argv) -> tuple[subprocess.CompletedProcess, float]:
    """_fresh_cli and the child's CPU time in seconds, which a loaded machine
    does not inflate as it does wall time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = _fresh_cli(*argv)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _loaded_modules(argv) -> list[str]:
    """The gwtqft modules, ``dataclasses`` and ``json`` a new process holds
    after one command.  The probe prints a list literal, so it loads no
    module itself."""
    code = ("import sys, gwtqft.cli; gwtqft.cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('gwtqft') or m in ('dataclasses', 'json')))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


class TestClosedStdout:
    def test_closed_stdout_is_exit_141(self):
        # the read end is closed before the program writes, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gwtqft.cli", "word", "trace(G^2 * U1)"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert "Traceback" not in proc.stderr


class TestStartup:
    def test_compute_does_not_import_checks(self):
        code = ("import sys, gwtqft.cli; gwtqft.cli.main(['compute', '-g', '1']); "
                "print('gwtqft.checks' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env(), timeout=120)
        assert proc.stdout.split() == ["3", "False"]

    @pytest.mark.parametrize("argv", [
        ("compute", "-g", "2"),
        ("extract", "-g", "2", "--n", "0"),
        ("genus", "-g", "2", "--n", "0", "--hmax", "1"),
        ("word", "trace(G^2 * U1)"),
    ], ids=["compute", "extract", "genus", "word"])
    def test_command_loads_no_checks_or_dataclasses(self, argv):
        loaded = _loaded_modules(argv)
        assert "gwtqft.gluing" in loaded
        assert "gwtqft.checks" not in loaded
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("argv", [
        ("compute", "-g", "2"),
        ("extract", "-g", "2", "--n", "0"),
        ("genus", "-g", "2", "--n", "0", "--hmax", "1"),
    ], ids=["compute", "extract", "genus"])
    def test_trace_command_loads_no_word_code(self, argv, fmt):
        loaded = _loaded_modules((*argv, "--format", fmt))
        assert "gwtqft.words" not in loaded
        assert ("json" in loaded) == (fmt == "json")

    @pytest.mark.parametrize("argv", [
        ("word", "trace(G^2 * U1)"),
        ("verify", "--suite", "cy", "--gmax", "0", "--kmax", "0"),
    ], ids=["word", "verify"])
    def test_word_and_verify_load_word_code(self, argv):
        assert "gwtqft.words" in _loaded_modules(argv)

    def test_verify_loads_no_dataclasses(self):
        # dataclasses imports inspect, which costs milliseconds per process
        loaded = _loaded_modules(("verify", "--suite", "cy", "--gmax", "0", "--kmax", "0"))
        assert "gwtqft.checks" in loaded
        assert "dataclasses" not in loaded


class TestLatex:
    def test_phi_latex_forms(self):
        assert phi(81, 6).render(LATEX) == "81\\phi^{6}"
        assert phi(1, -2).render(LATEX) == "\\phi^{-2}"
        assert PhiElem.zero().render(LATEX) == "0"
        e = phi((t1 - t0) * (t1 - t2), -2)
        assert e.render(LATEX).endswith("\\phi^{-2}")
