"""The checked-in output corpus: one SHA-256 per CLI request, over its exit
code, stdout and stderr, for a fixed list of requests run in process.

    PYTHONPATH=src python tests/corpus.py --check    # list every request whose hash moved
    PYTHONPATH=src python tests/corpus.py --record   # rewrite corpus.json from this tree

``test_corpus.py`` runs the check in Tier-1.  A change that is meant to
alter an output re-records the file and names every moved request in
CHANGES.md.  The requests cover every printing rule of all three formats:

- ``compute``, ``extract`` (n in {-1, 0, 1}) and ``genus`` in text, JSON
  and LaTeX for g <= 3, k1 in -2..1 and k2 in -1..1.  ``genus`` reads the
  top class, the largest n of nonnegative t-degree, with ``--hmax 2``, and
  the class below it with ``--hmax 4 --order 20``, whose rows past h = g
  carry Fraction coefficients;
- ``word`` in text and JSON: every atom alone and traced, and chains whose
  entries have denominators.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from gwtqft.cli import main as cli_main

CORPUS = Path(__file__).with_name("corpus.json")

ATOMS = (
    "A", "B", "C1", "C2", "E1", "E2", "N1", "N2", "M1", "M2",
    "G", "U1", "U2", "U1inv", "U2inv", "pants",
    "cap(0,0)", "cap(1,0)", "cap(0,-1)", "tube(0,0)", "tube(1,0)", "tube(0,-1)",
)
CHAINS = ("U1 * U2inv", "N1 * E1", "cap(0,-1) * pants", "A * B", "trace(G * U2inv)")


def requests() -> list[list[str]]:
    """The argument lists of the corpus, in a fixed order."""
    out = []
    for g in range(4):
        for k1 in range(-2, 2):
            for k2 in range(-1, 2):
                key = ["-g", str(g), "--level1", str(k1), "--level2", str(k2)]
                top = (2 * g - 2 - k1 - k2) // 3
                for fmt in ("text", "json", "latex"):
                    tail = ["--format", fmt]
                    out.append(["compute", *key, *tail])
                    out += [["extract", *key, "--n", str(n), *tail] for n in (-1, 0, 1)]
                    out.append(["genus", *key, "--n", str(top), "--hmax", "2", *tail])
                    out.append(["genus", *key, "--n", str(top - 1), "--hmax", "4",
                                "--order", "20", *tail])
    for text in (*ATOMS, *(f"trace({a})" for a in ATOMS), *CHAINS):
        out += [["word", text, "--format", fmt] for fmt in ("text", "json")]
    return out


def run(argv: list[str]) -> str:
    """The SHA-256 of json.dumps([exit code, stdout, stderr]) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def hashes() -> dict[str, str]:
    return {shlex.join(argv): run(argv) for argv in requests()}


def check() -> list[str]:
    """Every request whose hash differs from the corpus, or is in only one
    of the corpus and the request list."""
    pinned = json.loads(CORPUS.read_text())
    got = hashes()
    return sorted(k for k in pinned.keys() | got.keys() if pinned.get(k) != got.get(k))


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        CORPUS.write_text(json.dumps(hashes(), indent=1, sort_keys=True) + "\n")
        return 0
    if argv == ["--check"]:
        moved = check()
        for key in moved:
            print(key)
        return 1 if moved else 0
    print("usage: corpus.py --record | --check", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
