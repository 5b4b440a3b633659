"""Request streams of the three workloads, and the outputs they must print.

Every request is the argument list of one ``gwtqft`` process. A pass is
the list of requests one client sends in a closed loop. The benchmark seed
decides which requests a pass draws; the program sees only the requests.

The outputs are checked without trusting the program under test:

* ``golden.json`` holds the SHA-256 of the exact standard output of every
  request a workload can draw, recorded at the commit that defined the
  benchmark (``record_golden.py``);
* where the paper gives a closed form, ``closed_form`` builds the expected
  text itself.
"""

from __future__ import annotations

import json
import random
import shlex
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
VERSION = "0.1.0"  # the ``version`` field of the program's JSON output

FORMATS = ("text", "json", "latex")

# -- high_genus: cold compute requests at large genus ---------------------------

HIGH_GENERA = (10, 11)
# one mixed level; (2,-1) and (-1,2) are mirror images under t1 <-> t2 and
# cost the same, so the seed may pick either without moving the totals
MIXED_LEVELS = ((2, -1), (-1, 2))

# -- cli_session: many small requests over one disk cache ----------------------

SESSION_KEYS = tuple(
    (g, k1, k2) for g in range(5) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)
)
SESSION_WORDS = (
    "trace(G)",
    "trace(G^2)",
    "trace(G * U1)",
    "trace(G * U2inv)",
    "trace(U1 * U2)",
    "trace(A * B^2)",
    "A * B",
    "cap(0,-1) * pants",
    "cap(0,0) * tube(1,0)",
    "tube(0,1) * tube(0,-1)",
    "trace(pants * pants)",
    "trace(tube(1,0) * tube(0,1))",
)
SESSION_REQUESTS = 40  # requests in one pass
SESSION_WORD_SHARE = 0.2
ZIPF_S = 1.2  # skew of the key draw: a few hot keys, a long cold tail


def key_of(argv) -> str:
    return shlex.join(argv)


def compute(g: int, k1: int, k2: int, fmt: str) -> tuple[str, ...]:
    return ("compute", "--genus", str(g), "--level1", str(k1), "--level2", str(k2), "--format", fmt)


def top_class(g: int, k1: int, k2: int) -> int:
    """The largest n with 3n <= 2g-2-k1-k2: its class has t-degree 0, 1 or 2."""
    return (2 * g - 2 - k1 - k2) // 3


def extract(g: int, k1: int, k2: int, fmt: str) -> tuple[str, ...]:
    n = top_class(g, k1, k2)
    return ("extract", "--genus", str(g), "--level1", str(k1), "--level2", str(k2),
            "--n", str(n), "--format", fmt)


def genus(g: int, k1: int, k2: int, fmt: str) -> tuple[str, ...]:
    # the top class needs at most u^2 for h <= 2, inside the default order 10
    n = top_class(g, k1, k2)
    return ("genus", "--genus", str(g), "--level1", str(k1), "--level2", str(k2),
            "--n", str(n), "--hmax", "2", "--format", fmt)


def word(text: str, fmt: str) -> tuple[str, ...]:
    return ("word", text, "--format", fmt)


def verify(seed: int, extra: tuple[str, ...] = ()) -> tuple[str, ...]:
    return ("verify", "--suite", "all", "--seed", str(seed), *extra, "--format", "json")


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def high_genus_pass(seed: int, index: int) -> list[tuple[str, ...]]:
    rng = _rng(seed, "high_genus", index)
    k1, k2 = rng.choice(MIXED_LEVELS)
    reqs = [compute(g, 0, 0, rng.choice(FORMATS)) for g in HIGH_GENERA]
    reqs += [compute(g, k1, k2, rng.choice(FORMATS)) for g in HIGH_GENERA]
    rng.shuffle(reqs)
    return reqs


def verify_all_pass(seed: int, index: int) -> list[tuple[str, ...]]:
    return [verify(seed)]


def cli_session_pass(seed: int, index: int) -> list[tuple[str, ...]]:
    """A skewed stream: the seed ranks keys and words, and rank r is drawn
    with weight 1/(r+1)^ZIPF_S, so most keyed requests find their entry in
    the disk cache and some add one."""
    rng = _rng(seed, "cli_session", index)
    keys = list(SESSION_KEYS)
    rng.shuffle(keys)
    words = list(SESSION_WORDS)
    rng.shuffle(words)
    key_w = [1 / (r + 1) ** ZIPF_S for r in range(len(keys))]
    word_w = [1 / (r + 1) ** ZIPF_S for r in range(len(words))]
    reqs = []
    for _ in range(SESSION_REQUESTS):
        if rng.random() < SESSION_WORD_SHARE:
            text = rng.choices(words, word_w)[0]
            reqs.append(word(text, rng.choice(("text", "json"))))
        else:
            g, k1, k2 = rng.choices(keys, key_w)[0]
            make = rng.choice((compute, extract, genus))
            reqs.append(make(g, k1, k2, rng.choice(FORMATS)))
    return reqs


PASSES = {
    "high_genus": high_genus_pass,
    "verify_all": verify_all_pass,
    "cli_session": cli_session_pass,
}

# A traced run also sends these, so that a layer the workload never reaches
# is still measured (see run.py); they are in the golden universe too.
PROBE = (
    genus(0, 1, 0, "text"),
    genus(0, 1, 0, "text"),  # second time: read back from the disk cache
    word("trace(G * U1)", "text"),
)
PROBE_VERIFY = verify(42, ("--gmax", "1", "--kmax", "1", "--trials", "1"))


def golden_universe() -> list[tuple[str, ...]]:
    """Every non-verify request any pass or probe can draw."""
    reqs = []
    for g in HIGH_GENERA:
        for k1, k2 in ((0, 0),) + MIXED_LEVELS:
            reqs += [compute(g, k1, k2, f) for f in FORMATS]
    for g, k1, k2 in SESSION_KEYS:
        for make in (compute, extract, genus):
            reqs += [make(g, k1, k2, f) for f in FORMATS]
    for text in SESSION_WORDS:
        reqs += [word(text, f) for f in ("text", "json")]
    reqs += list(PROBE)
    return list(dict.fromkeys(reqs))


def load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["stdout_sha256"]


# -- closed forms from the paper -------------------------------------------------


def _int_poly_text(terms: list[tuple[int, str]]) -> str:
    """Canonical text of an integer polynomial given as (coeff, monomial)
    pairs in the program's term order."""
    out = []
    for c, mono in terms:
        a = abs(c)
        body = mono if a == 1 and mono else (f"{a}*{mono}" if mono else str(a))
        out.append((body if c > 0 else "-" + body) if not out else (" + " if c > 0 else " - ") + body)
    return "".join(out)


def _int_poly_latex(terms: list[tuple[int, str]]) -> str:
    out = []
    for c, mono in terms:
        mono = mono.replace("*", "").replace("t0", "t_0").replace("t1", "t_1").replace("t2", "t_2")
        a = abs(c)
        body = (mono if a == 1 and mono else f"{a}{mono}")
        out.append((body if c > 0 else "-" + body) if not out else ("+" if c > 0 else "-") + body)
    return "".join(out)


# Q = sum over a of the product of T(x_a)'s two factors; every coefficient of
# the level-(0,0) top class with g = 2 mod 3 is a multiple of it
_Q_TERMS = [(1, "t0^2"), (-1, "t0*t1"), (-1, "t0*t2"), (1, "t1^2"), (-1, "t1*t2"), (1, "t2^2")]


def _phi_monomial(terms: list[tuple[int, str]], m: int, fmt: str, meta: dict) -> str:
    """Expected stdout of ``extract`` for c * phi^m, c an integer polynomial."""
    if fmt == "json":
        doc = dict(meta)
        doc["terms"] = [{"phi_exp": m, "num": _int_poly_text(terms), "den": "1"}] if terms else []
        doc["version"] = VERSION
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not terms:
        return "0\n"
    if fmt == "latex":
        coeff = _int_poly_latex(terms)
        if m == 0:
            return coeff + "\n"
        head = "\\phi" if m == 1 else f"\\phi^{{{m}}}"
        if coeff in ("1", "-1"):
            return coeff[:-1] + head + "\n"
        return (f"({coeff}){head}" if len(terms) > 1 else coeff + head) + "\n"
    coeff = _int_poly_text(terms)
    if m == 0:
        return coeff + "\n"
    head = "phi" if m == 1 else f"phi^{m}"
    if coeff in ("1", "-1"):
        return coeff[:-1] + head + "\n"
    return (f"({coeff})*{head}" if len(terms) > 1 else f"{coeff}*{head}") + "\n"


def closed_form(argv) -> str | None:
    """Expected stdout of a request whose answer the paper gives in closed
    form, or None.

    * Calabi-Yau classes: at level (0, k), k >= 0, with 3 | 2g-2-k, the class
      n = (2g-2-k)/3 component of Z is 3^g phi^(2g-2).
    * Level-(0,0) top class, n = floor((2g-2)/3), g >= 1: 0 when 3 | g,
      3^g phi^(2g-2) when g = 1 mod 3, 3^(g-2) (g-1) Q phi^(2g-4) otherwise.
    * ``trace(A * B^2)``: A B^2 is the all-ones matrix times 9 phi^6.
    """
    if argv[0] == "word" and argv[1] == "trace(A * B^2)" and argv[3] == "text":
        return "27*phi^6\n"
    if argv[0] != "extract":
        return None
    opts = dict(zip(argv[1::2], argv[2::2]))
    g, k1, k2, n = (int(opts[k]) for k in ("--genus", "--level1", "--level2", "--n"))
    fmt = opts["--format"]
    meta = {"g": g, "k1": k1, "k2": k2, "n": n}
    if k1 == 0 and k2 >= 0 and (2 * g - 2 - k2) % 3 == 0 and n == (2 * g - 2 - k2) // 3:
        return _phi_monomial([(3 ** g, "")], 2 * g - 2, fmt, meta)
    if k1 == k2 == 0 and g >= 1 and n == (2 * g - 2) // 3:
        if g % 3 == 0:
            return _phi_monomial([], 0, fmt, meta)
        scale = 3 ** (g - 2) * (g - 1)
        return _phi_monomial([(c * scale, mono) for c, mono in _Q_TERMS], 2 * g - 4, fmt, meta)
    return None
