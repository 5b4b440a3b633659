"""Command-line interface: compute partition functions, extract class
components, tabulate fixed-genus invariants, evaluate cobordism words, and
run the verification suites, with JSON / LaTeX / plain-text output.

A class beta0 + n f is one power of phi: ``extract`` prints the
phi^(k1 + k2 + 3n) term of Z, and ``word`` prints a word without operators
class by class, as its phi^(K + 3n) parts for its total level K.

Exit codes: 0 success, 1 failed verification, 2 usage error (including a
word of more than ``words.MAX_WORD_GENERATORS`` generators or one that
builds a tensor of more than ``words.MAX_WORD_SLOTS`` slots, a request with
g + |k1| + |k2| above ``gluing.MAX_REQUEST``, a ``genus`` table with an
``--hmax``, or a u-power it needs, above ``partition.MAX_ORDER``, or a
``verify --trials`` outside 1..``checks.MAX_TRIALS``), 3 internal error (a
quotient the theory guarantees failed to reduce, such as a denominator
outside the products of ti - tj; a matrix trace or coefficient of the trace
engine that is not an integer polynomial of its weight; a level operator
whose det is not 1; a word tensor with a phi power outside its mod-3 class
grading; a division by zero, which no input can cause; or the interpreter
ran out of recursion depth or memory), 130 (128 + SIGINT) when the command
was interrupted, as by Ctrl-C, with one ``interrupted`` line on stderr, and
141 (128 + SIGPIPE) when the reader of stdout went away before the output
was written.  An interrupt while the interpreter is still starting, before
``main`` runs, is outside this mapping.

Each command compiles only what it runs: ``compute``, ``extract`` and
``genus`` load ``operators`` and the trace engine in ``gluing``; ``word``
and ``verify`` also load ``words`` (the tensors, their gluing and the word
parser); only ``verify`` loads ``checks``; and ``json`` is imported only
for JSON output.  Nothing is read from or written to disk.  This module
only picks a printing style (``exactring.TEXT`` or ``LATEX``); the walks
that print live in ``exactring`` and ``phicalc``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import SUITES, __version__
from .exactring import LATEX, TEXT, ReductionError
from .partition import MAX_ORDER, class_component, genus_expansion

if TYPE_CHECKING:
    from .words import RelTensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

# the printing style of each non-JSON format, and the line of a genus table
STYLES = {"text": TEXT, "latex": LATEX}
_GENUS_ROWS = {"text": "h={}: {}", "latex": "Z^{{{}}} &= {} \\\\"}


def dumps_canonical(doc: dict) -> str:
    """The byte-stable JSON document of compute, extract, genus and word:
    indented, keys sorted.  ``verify --format json`` writes no document but
    one sorted object per report line, with json.dumps."""
    # imported here: text and LaTeX output would pay for it on every start
    import json

    return json.dumps(doc, indent=2, sort_keys=True)


def _document(args, **fields) -> str:
    """The JSON answer of compute, extract or genus: the request's key (g,
    k1, k2, and n if it names a class), the version and fields."""
    doc = {"g": args.genus, "k1": args.level1, "k2": args.level2, "version": __version__}
    if "n" in args:
        doc["n"] = args.n
    return dumps_canonical({**doc, **fields})


# -- tensor rendering -----------------------------------------------------------


def _nonzero_entries(t: RelTensor):
    """(labels, entry) for each nonzero entry of t, in label order."""
    from itertools import product

    from .operators import LABELS

    for labels, val in zip(product(LABELS, repeat=t.rank), t.entries):
        if val:
            yield labels, val


def _tensor_lines(t: RelTensor) -> list[str]:
    if t.rank == 0:
        return [str(t.scalar())]
    marks = ["^" if up else "_" for up in t.variance]
    lines = []
    for labels, val in _nonzero_entries(t):
        idx = "".join(f"{m}x{a}" for m, a in zip(marks, labels))
        lines.append(f"Z{idx} = {val}")
    return lines or ["0"]


def _tensor_json(t: RelTensor) -> dict:
    return {
        "rank": t.rank,
        "variance": ["raised" if up else "lowered" for up in t.variance],
        "entries": [
            {"slots": list(labels), "terms": val.to_json_terms()}
            for labels, val in _nonzero_entries(t)
        ],
    }


# -- commands ----------------------------------------------------------------------


def cmd_compute(args) -> int:
    """compute, and extract: compute's answer read at the class n."""
    from .gluing import trace_formula

    key = (args.genus, args.level1, args.level2)
    z = class_component(*key, args.n) if "n" in args else trace_formula(*key)
    if args.format == "json":
        print(_document(args, terms=z.to_json_terms()))
    else:
        print(z.render(STYLES[args.format]))
    return EXIT_OK


def cmd_genus(args) -> int:
    rows = genus_expansion(args.genus, args.level1, args.level2, args.n, args.hmax)
    if args.format == "json":
        print(_document(args, hmax=args.hmax, rows=[{"h": h, **inv.to_json()} for h, inv in rows]))
    else:
        style, row = STYLES[args.format], _GENUS_ROWS[args.format]
        for h, inv in rows:
            print(row.format(h, inv.render(style)))
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
        import json

        for rep in reports:
            print(json.dumps(rep.to_json(), sort_keys=True))
    else:
        for rep in reports:
            print(rep.summary())
    if all(r.passed for r in reports):
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_word(args) -> int:
    from .gluing import _unfold
    from .words import RelTensor, evaluate_word, parse_word, split_classes

    word = parse_word(args.text)
    folded = evaluate_word(word)
    result = RelTensor(folded.variance, [_unfold(e) for e in folded.entries])
    # a word with an operator is not split into classes
    classes = None if word.level is None else split_classes(result, word.level)
    if args.format == "json":
        doc = {"word": args.text, "version": __version__}
        if classes is None:
            doc["tensor"] = _tensor_json(result)
        else:
            doc["classes"] = [{"n": n, "tensor": _tensor_json(t)} for n, t in classes.items()]
        print(dumps_canonical(doc))
    elif classes and result.rank:
        for n, t in classes.items():
            print(f"class beta0{n:+d}f:" if n else "class beta0:")
            for line in _tensor_lines(t):
                print("  " + line)
    else:
        # an operator word, a scalar or zero is printed summed over the classes
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
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("genus", help="fixed-genus invariants of one class")
    add_common(p, with_n=True)
    p.add_argument("--hmax", type=int, required=True,
                   help=f"largest genus to tabulate, at most {MAX_ORDER}")
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("verify", help="run the closed-form verification suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--gmax", type=int, default=None,
                   help="largest genus of the cy and appendixB sweeps (defaults 6 and 5)")
    p.add_argument("--kmax", type=int, default=None,
                   help="largest |level| of the cy and appendixB sweeps (defaults 6 and 4)")
    p.add_argument("--seed", type=int, default=42,
                   help="seed of the numeric suite's random keys and points (default 42)")
    p.add_argument("--trials", type=int, default=20,
                   help="number of numeric trials, in 1..1000 (default 20)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("word", help="evaluate a cobordism word")
    p.add_argument("text", help='e.g. "trace(G^2 * U1)" or "cap(0,-1) * pants"')
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_word)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        # a closed stdout shows here rather than in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # send the rest nowhere, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReductionError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RecursionError, MemoryError, ZeroDivisionError) as exc:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
