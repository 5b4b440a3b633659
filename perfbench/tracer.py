"""Traced entry point: run one gwtqft CLI request with per-layer spans.

Usage: python3 perfbench/tracer.py OUT.json <gwtqft arguments...>

It imports ``gwtqft.cli`` (timed as ``cli.import_s``), wraps the public
functions of every gwtqft module and the hot arithmetic methods, calls
``gwtqft.cli.main`` and writes what it saw to OUT.json. Standard output is
the program's own, byte for byte, so the caller checks it as usual.

Module functions are rebound in every module that holds them by name:
``partition`` and ``checks`` import ``trace_formula``, ``mat_mul`` and
others directly, so patching ``gluing`` alone would miss those calls.
Class methods are patched once, on the class. The arithmetic dunders of the
stdlib ``fractions.Fraction`` are wrapped with a bare counter.

Self time is a span's duration minus the time its child spans cover. The
spans of arithmetic methods are folded into per-name totals as they close,
because there are millions of them; spans of module functions are kept in
memory as (name, start, end, parent) and written out at the end.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

_t0 = time.perf_counter()
import gwtqft.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from fractions import Fraction  # noqa: E402

from gwtqft import checks, cli, exactring, gluing, operators, partition, phicalc  # noqa: E402
from gwtqft.exactring import TPoly, TRat  # noqa: E402
from gwtqft.phicalc import PhiElem  # noqa: E402

MODULES = (exactring, phicalc, operators, gluing, partition, checks, cli)

# (class, method, metric name); an r-alias that is the same function object
# (``__rmul__ = __mul__``) is rebound to the same wrapper
METHODS = (
    (TPoly, "__mul__", "exactring.tpoly_mul"),
    (TRat, "make", "exactring.trat_make"),
    (TRat, "__add__", "exactring.trat_add"),
    (TRat, "__mul__", "exactring.trat_mul"),
    (PhiElem, "__mul__", "phicalc.phielem_mul"),
    (PhiElem, "__add__", "phicalc.phielem_add"),
)

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)

# cli.main's self time is argument parsing and output formatting, so the
# command functions it calls stay unwrapped
CLI_WRAPPED = ("main",)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [child time, span index or None]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.fraction_ops = itertools.count()
        self.results: dict[str, list] = {}  # "g,k1,k2" -> [terms, max bits]
        self.suites: dict[str, float] = {}
        self.trace_formula = gluing.trace_formula  # the lru_cache, for cache_info()

    def wrap(self, name: str, fn, keep_span: bool, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if keep_span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep_span:
                    spans[frame[1]][1:3] = [start, end]
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        counter = self.fraction_ops

        def counted(fn):
            def op(*args):
                next(counter)
                return fn(*args)

            return op

        for dunder in FRACTION_OPS:
            if dunder in Fraction.__dict__:
                setattr(Fraction, dunder, counted(Fraction.__dict__[dunder]))

        for cls, attr, name in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, False)))
                continue
            wrapped = self.wrap(name, raw, False)
            for alias, value in list(cls.__dict__.items()):
                if value is raw:
                    setattr(cls, alias, wrapped)

        hooks = {
            "partition.compute_Z": lambda a, z: self._record_z((a[0].g, a[0].k1, a[0].k2), z),
            "gluing.trace_formula": lambda a, z: self._record_z(a, z),
            "checks.run_checks": self._record_suites,
        }
        replacements = {}  # id(original) -> wrapper
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if not callable(value) or isinstance(value, type):
                    continue
                if mod is cli and attr not in CLI_WRAPPED:
                    continue
                name = f"{short}.{attr}"
                replacements[id(value)] = self.wrap(name, value, True, hooks.get(name))
        # rebind in every module that imported the function by name
        for mod in MODULES + (sys.modules["gwtqft"],):
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and not attr.startswith("__"):
                    setattr(mod, attr, replacements[id(value)])

    def _record_z(self, key, z) -> None:
        k = ",".join(map(str, key))
        if k in self.results:
            return
        terms = 0
        bits = 0
        for _, c in z.items():
            for poly in (c.num, c.den):
                terms += len(poly.terms)
                for q in poly.terms.values():
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        self.results[k] = [terms, bits]

    def _record_suites(self, args, reports) -> None:
        for rep in reports:
            self.suites[rep.check_id] = rep.elapsed

    def report(self) -> dict:
        spans = self.spans
        z_spans = [i for i, s in enumerate(spans) if s[0] == "partition.compute_Z"]
        computed = {s[3] for s in spans if s[0] == "gluing.trace_formula"}
        info = self.trace_formula.cache_info()
        return {
            "import_s": IMPORT_S,
            "stats": self.stats,
            "fraction_ops": next(self.fraction_ops),
            "results": self.results,
            "suites": self.suites,
            "compute_z_spans": len(z_spans),
            "compute_z_hits": sum(1 for i in z_spans if i not in computed),
            "trace_formula_hits": info.hits,
            "trace_formula_misses": info.misses,
            "spans": spans,
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main())
