"""The checked-in output corpus: one SHA-256 per CLI request, over its exit
code, stdout and stderr, for a fixed list of requests run in process.

    PYTHONPATH=src python tests/corpus.py --check           # list every request whose hash moved
    PYTHONPATH=src python tests/corpus.py --check --slow    # the same, with the slow part
    PYTHONPATH=src python tests/corpus.py --record          # rewrite corpus.json from this tree

``test_corpus.py`` runs the check in Tier-1, without the slow part; CI runs
it with the slow part.  A change that is meant to alter an output
re-records the file (both parts) and names every moved request in
CHANGES.md.  The requests cover every printing rule of all three formats:

- ``compute``, ``extract`` (n in {-1, 0, 1}) and ``genus`` in text, JSON
  and LaTeX for g <= 3, k1 in -2..1 and k2 in -1..1.  ``genus`` reads the
  top class, the largest n of nonnegative t-degree, with ``--hmax 2``, and
  the class below it with ``--hmax 4``, whose rows past h = g carry
  Fraction coefficients; and, in all three formats, ``genus -g 1 --n 0
  --hmax 9``, which needs u^16;
- ``word`` in text and JSON: every atom of the grammar (the fifteen
  operators, ``pants``, and the cap and tube at each of the five basic
  levels) alone and traced, and chains whose entries have denominators;
- what the trace engine reads by its recurrences: ``verify --suite all
  --format json`` at three seeds, and ``compute`` in all three formats at
  (3, -40, 5) and (0, -50, -50);
- the program's own usage errors, but none of argparse's, whose wording
  differs between Python versions.

The slow part (about 27 s) adds ``compute`` in all three formats at the
request bound, (102, 0, 0), (2, 100, 0), (2, -100, 0) and (1, -50, 51);
``extract`` of the classes n = 60 and n = 67 (which is 0) and the ``genus``
table of class 60 up to h = 103, all at (102, 0, 0), in text and JSON; the
wide sweep ``verify --suite all --gmax 20 --kmax 10 --format json``; the
1,000-trial numeric cross-check ``verify --suite numeric --seed 7 --trials
1000 --format json``; and every 2-atom ``word`` chain, plain and traced, in
text and JSON: 2,704 requests, of which the 470 traced chains with a cap
are usage errors.
A ``verify`` report's ``elapsed`` is a timing, so it is dropped before
hashing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from gwtqft.cli import main as cli_main

CORPUS = Path(__file__).with_name("corpus.json")

ATOMS = (
    "A", "B", "C1", "C2", "E1", "E2", "N1", "N2", "M1", "M2",
    "G", "U1", "U2", "U1inv", "U2inv", "pants",
    "cap(0,0)", "cap(1,0)", "cap(0,1)", "cap(-1,0)", "cap(0,-1)",
    "tube(0,0)", "tube(1,0)", "tube(0,1)", "tube(-1,0)", "tube(0,-1)",
)
CHAINS = ("U1 * U2inv", "N1 * E1", "cap(0,-1) * pants", "A * B", "trace(G * U2inv)")
FORMATS = ("text", "json", "latex")
USAGE_ERRORS = (
    "compute -g 103", "compute -g -1", "verify --suite cy --gmax 103 --kmax 0",
    "verify --trials 0", "genus -g 2 --n 0 --hmax 201", "genus -g 0 --n 100 --hmax 2",
    "word 'trace(G^33)'", "word foo", "word 'pants^32'", "word 'trace(pants^8)'",
)
ELAPSED = re.compile(r'"elapsed": [^,]*, ')


def _key(g: int, k1: int, k2: int) -> list[str]:
    return ["-g", str(g), "--level1", str(k1), "--level2", str(k2)]


def requests(slow: bool = False) -> list[list[str]]:
    """The argument lists of the corpus, in a fixed order, with the slow part
    at the end if slow."""
    out = []
    for g in range(4):
        for k1 in range(-2, 2):
            for k2 in range(-1, 2):
                key = _key(g, k1, k2)
                top = (2 * g - 2 - k1 - k2) // 3
                for fmt in FORMATS:
                    tail = ["--format", fmt]
                    out.append(["compute", *key, *tail])
                    out += [["extract", *key, "--n", str(n), *tail] for n in (-1, 0, 1)]
                    out.append(["genus", *key, "--n", str(top), "--hmax", "2", *tail])
                    out.append(["genus", *key, "--n", str(top - 1), "--hmax", "4", *tail])
    out += [["genus", "-g", "1", "--n", "0", "--hmax", "9", "--format", fmt] for fmt in FORMATS]
    out += _words((*ATOMS, *(f"trace({a})" for a in ATOMS), *CHAINS))
    out += [["verify", "--suite", "all", "--format", "json", "--seed", str(s)] for s in (1, 42, 97)]
    out += _compute_all_formats(((3, -40, 5), (0, -50, -50)))
    out += [shlex.split(text) for text in USAGE_ERRORS]
    if slow:
        out += _compute_all_formats(((102, 0, 0), (2, 100, 0), (2, -100, 0), (1, -50, 51)))
        for tail in (["--format", "text"], ["--format", "json"]):
            out += [["extract", *_key(102, 0, 0), "--n", str(n), *tail] for n in (60, 67)]
            out.append(["genus", *_key(102, 0, 0), "--n", "60", "--hmax", "103", *tail])
        out.append(["verify", "--suite", "all", "--gmax", "20", "--kmax", "10", "--format", "json"])
        out.append(
            ["verify", "--suite", "numeric", "--seed", "7", "--trials", "1000", "--format", "json"]
        )
        chains = [f"{a} * {b}" for a in ATOMS for b in ATOMS]
        out += _words(w for chain in chains for w in (chain, f"trace({chain})"))
    return out


def _words(texts) -> list[list[str]]:
    return [["word", text, "--format", fmt] for text in texts for fmt in ("text", "json")]


def _compute_all_formats(keys) -> list[list[str]]:
    return [["compute", *_key(*key), "--format", fmt] for key in keys for fmt in FORMATS]


def run(argv: list[str]) -> str:
    """The SHA-256 of json.dumps([exit code, stdout, stderr]) of one request,
    with every ``elapsed`` field of a verify report dropped from stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    stdout = out.getvalue()
    if argv[0] == "verify":
        stdout = ELAPSED.sub("", stdout)
    blob = json.dumps([code, stdout, err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def hashes(slow: bool = False) -> dict[str, str]:
    return {shlex.join(argv): run(argv) for argv in requests(slow)}


def check(slow: bool = False) -> list[str]:
    """Every request whose hash differs from the corpus, or is in only one
    of the corpus and the request list; without slow, the corpus's slow
    part is left out."""
    pinned = json.loads(CORPUS.read_text())
    if not slow:
        fast = {shlex.join(argv) for argv in requests()}
        slow_part = {shlex.join(argv) for argv in requests(slow=True)} - fast
        pinned = {k: v for k, v in pinned.items() if k not in slow_part}
    got = hashes(slow)
    return sorted(k for k in pinned.keys() | got.keys() if pinned.get(k) != got.get(k))


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        CORPUS.write_text(json.dumps(hashes(slow=True), indent=1, sort_keys=True) + "\n")
        return 0
    if argv in (["--check"], ["--check", "--slow"]):
        moved = check(slow=len(argv) == 2)
        for key in moved:
            print(key)
        return 1 if moved else 0
    print("usage: corpus.py --record | --check [--slow]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
