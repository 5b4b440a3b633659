"""Record the SHA-256 of the standard output of every request in
``workloads.golden_universe()`` into ``golden.json``.

Run from the repository root, at the commit whose outputs are canonical:

    PYTHONPATH=src python3 perfbench/record_golden.py

Requests run in this one process through ``gwtqft.cli.main``; its output
is the same text a fresh ``python -m gwtqft.cli`` process prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import workloads

from gwtqft import cli
from gwtqft.partition import CACHE_ENV


def main() -> int:
    os.environ.pop(CACHE_ENV, None)
    digests = {}
    for argv in workloads.golden_universe():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"{workloads.key_of(argv)} exited {code}")
        text = buf.getvalue()
        expected = workloads.closed_form(argv)
        if expected is not None and expected != text:
            raise SystemExit(f"{workloads.key_of(argv)}: closed form {expected!r}, got {text!r}")
        digests[workloads.key_of(argv)] = hashlib.sha256(text.encode()).hexdigest()
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"stdout_sha256": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} outputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
