"""Command-line interface: compute partition functions, extract class
components, tabulate fixed-genus invariants, evaluate cobordism words, and
run the verification suites, with JSON / LaTeX / plain-text output.

Exit codes: 0 success, 1 failed verification, 2 usage error or a cache
file that is malformed, mis-graded or cannot be read or written (the
result may already be on stdout when the write fails), 3 internal error
(a quotient the theory guarantees failed to reduce, a denominator outside
the products of ti - tj, or the interpreter ran out of recursion depth or
memory), 141 (128 + SIGPIPE) when the reader of stdout went away before
the output was written.

Each command imports only what it runs: a cache-hit ``compute`` loads no
``gluing``, ``operators`` or ``checks``.  The disk cache is rewritten, via
a temporary file, only when the command computed a new entry or the file
held none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import SUITES, __version__
from .exactring import TPoly, TRat
from .phicalc import PhiElem, PrecisionError, ReductionError
from .partition import (
    SpaceParams,
    _memo,
    cache_path,
    class_component,
    compute_Z,
    genus_expansion,
    load_cache,
    save_cache,
    virtual_dim,
)

if TYPE_CHECKING:
    from .operators import RelTensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141

DEFAULT_ORDER = 10


def dumps_canonical(doc: dict) -> str:
    """The byte-stable JSON serialization used by every command."""
    return json.dumps(doc, indent=2, sort_keys=True)


# -- LaTeX rendering ----------------------------------------------------------


def _poly_latex(p: TPoly) -> str:
    if not p.terms:
        return "0"
    from .exactring import _grlex  # canonical term order

    out = []
    for e in sorted(p.terms, key=_grlex, reverse=True):
        c = p.terms[e]
        mono = "".join(
            f"t_{i}^{e[i]}" if e[i] > 1 else f"t_{i}" for i in range(3) if e[i]
        )
        ac = abs(c)
        coeff = "" if (ac == 1 and mono) else _frac_latex(ac)
        body = coeff + mono
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+" if c > 0 else "-") + body)
    return "".join(out)


def _frac_latex(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"


def _rat_latex(r: TRat) -> str:
    if r.den.is_const:
        return _poly_latex(r.num)
    return f"\\frac{{{_poly_latex(r.num)}}}{{{_poly_latex(r.den)}}}"


def phi_latex(e: PhiElem) -> str:
    if e.is_zero:
        return "0"
    parts = []
    for m, c in e.items():
        coeff = _rat_latex(c)
        if m == 0:
            parts.append(coeff)
            continue
        head = "\\phi" if m == 1 else f"\\phi^{{{m}}}"
        if coeff == "1":
            parts.append(head)
        elif coeff == "-1":
            parts.append("-" + head)
        elif "+" in coeff[1:] or "-" in coeff[1:]:
            parts.append(f"({coeff}){head}")
        else:
            parts.append(coeff + head)
    return "+".join(parts).replace("+-", "-")


def _emit_phi(e: PhiElem, fmt: str, meta: dict) -> str:
    if fmt == "text":
        return str(e)
    if fmt == "latex":
        return phi_latex(e)
    doc = dict(meta)
    doc["terms"] = e.to_json_terms()
    doc["version"] = __version__
    return dumps_canonical(doc)


# -- tensor rendering -----------------------------------------------------------


def _tensor_lines(t: RelTensor) -> list[str]:
    from itertools import product as iproduct

    from .operators import LABELS

    if t.rank == 0:
        return [str(t.scalar())]
    marks = ["^" if up else "_" for up in t.variance]
    lines = []
    for labels in iproduct(LABELS, repeat=t.rank):
        val = t.entry(*labels)
        if val.is_zero:
            continue
        idx = "".join(f"{m}x{a}" for m, a in zip(marks, labels))
        lines.append(f"Z{idx} = {val}")
    return lines or ["0"]


def _tensor_json(t: RelTensor) -> dict:
    from itertools import product as iproduct

    from .operators import LABELS

    entries = []
    for labels in iproduct(LABELS, repeat=t.rank):
        val = t.entry(*labels)
        if not val.is_zero:
            entries.append({"slots": list(labels), "terms": val.to_json_terms()})
    return {
        "rank": t.rank,
        "variance": ["raised" if up else "lowered" for up in t.variance],
        "entries": entries,
    }


# -- commands ----------------------------------------------------------------------


def _params(args) -> SpaceParams:
    return SpaceParams(args.genus, args.level1, args.level2)


def cmd_compute(args) -> int:
    z = compute_Z(_params(args))
    meta = {"g": args.genus, "k1": args.level1, "k2": args.level2}
    print(_emit_phi(z, args.format, meta))
    return EXIT_OK


def cmd_extract(args) -> int:
    comp = class_component(_params(args), args.n)
    meta = {"g": args.genus, "k1": args.level1, "k2": args.level2, "n": args.n}
    print(_emit_phi(comp, args.format, meta))
    return EXIT_OK


def cmd_genus(args) -> int:
    p = _params(args)
    needed = 2 * args.hmax - 2 + virtual_dim(p, args.n)
    if needed > args.order:
        print(
            f"error: insufficient truncation order u^{args.order}; "
            f"this table needs u^{needed} (raise --order)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    rows = genus_expansion(p, args.n, args.hmax, order=args.order)
    if args.format == "text":
        for h, inv in rows:
            print(f"h={h}: {inv}")
    elif args.format == "latex":
        for h, inv in rows:
            print(f"Z^{{{h}}} &= {_rat_latex(inv)} \\\\")
    else:
        doc = {
            "g": p.g,
            "k1": p.k1,
            "k2": p.k2,
            "n": args.n,
            "hmax": args.hmax,
            "rows": [
                {"h": h, "num": str(inv.num), "den": str(inv.den)} for h, inv in rows
            ],
            "version": __version__,
        }
        print(dumps_canonical(doc))
    return EXIT_OK


def cmd_verify(args) -> int:
    # imported here: only verify needs the suites, and every start pays for them
    from .checks import run_checks

    reports = run_checks(
        suite=args.suite,
        g_max=args.gmax,
        k_max=args.kmax,
        seed=args.seed,
        trials=args.trials,
    )
    if args.format == "json":
        for rep in reports:
            print(json.dumps(rep.to_json(), sort_keys=True))
    else:
        for rep in reports:
            print(rep.summary())
    if all(r.passed for r in reports):
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_word(args) -> int:
    from .gluing import evaluate_word, parse_word, refined_scalar
    from .operators import ClassRefined

    word = parse_word(args.text)
    result = evaluate_word(word)
    if isinstance(result, ClassRefined):
        if args.format == "json":
            doc = {
                "word": args.text,
                "classes": [
                    {"n": n, "tensor": _tensor_json(t)} for n, t in sorted(result.pieces.items())
                ],
                "version": __version__,
            }
            print(dumps_canonical(doc))
        else:
            if not result.pieces:
                print("0")
            elif result.rank == 0:
                print(refined_scalar(result))
            else:
                for n, t in sorted(result.pieces.items()):
                    print(f"class beta0{n:+d}f:" if n else "class beta0:")
                    for line in _tensor_lines(t):
                        print("  " + line)
    else:
        if args.format == "json":
            doc = {"word": args.text, "tensor": _tensor_json(result), "version": __version__}
            print(dumps_canonical(doc))
        else:
            for line in _tensor_lines(result):
                print(line)
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwtqft",
        description=(
            "Exact section-class equivariant Gromov-Witten partition functions "
            "of P2-bundles over genus-g curves via the closed-form trace calculus."
        ),
    )
    parser.add_argument("--version", action="version", version=f"gwtqft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=False):
        p.add_argument("--genus", "-g", type=int, required=True, help="genus of the base curve")
        p.add_argument("--level1", type=int, default=0, help="degree of the first line bundle")
        p.add_argument("--level2", type=int, default=0, help="degree of the second line bundle")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="fiber-class offset of beta0 + n f")
        p.add_argument("--format", choices=("json", "latex", "text"), default="text")

    p = sub.add_parser("compute", help="full section-class partition function")
    add_common(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("extract", help="single class component of the partition function")
    add_common(p, with_n=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("genus", help="fixed-genus invariants of one class")
    add_common(p, with_n=True)
    p.add_argument("--hmax", type=int, required=True, help="largest genus to tabulate")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="u-series truncation order")
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("verify", help="run the closed-form verification suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--gmax", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--jobs", type=int, default=1, help="ignored; the suites run one after another")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("word", help="evaluate a cobordism word")
    p.add_argument("text", help='e.g. "trace(G^2 * U1)" or "cap(0,-1) * pants"')
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_word)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    use_cache = cache_path() is not None and args.command in ("compute", "extract", "genus")
    try:
        # the cache is rewritten only if the command adds an entry or the file
        # held none; other callers in this process share the memo, so compare sizes
        known = len(_memo) if use_cache and load_cache() else -1
        code = args.fn(args)
        # a closed stdout shows here rather than in the flush at exit
        sys.stdout.flush()
        if use_cache and code == EXIT_OK and len(_memo) > known:
            save_cache()
    except BrokenPipeError:
        # send the rest nowhere, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ReductionError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RecursionError, MemoryError) as exc:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
