"""The gwtqft benchmark: three closed-loop workloads with one client each,
end-to-end metrics from untraced runs and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every workload, one table

Run it from the root of a checkout. Every request is a fresh
``python -m gwtqft.cli`` process with PYTHONPATH set to the checkout's
``src`` (the package need not be installed). Every output is checked
(see workloads.py); a request fails on a nonzero exit, a traceback, a
timeout or a wrong output. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``. The exit code is 0 only when every
output was correct.

A timed run (``--trace 0``) measures set-up time, then sends passes of the
workload until the next pass would end after ``--seconds``. A traced run
(``--trace 1``) sends one pass untraced and the same pass through
tracer.py, then a fixed probe (workloads.PROBE) that reaches every layer:
a layer the workload's pass never enters is reported from the probe, so no
per-layer figure is a constant zero. Trace files are kept under
``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
TRACER = HERE / "tracer.py"
CACHE_ENV = "GWTQFT_CACHE_DIR"

RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
REQUEST_TIMEOUT_S = {"high_genus": 60, "verify_all": 150, "cli_session": 20}
# set-up is sampled before the first pass and after every pass, so the
# samples spread over the run like the requests do
SETUP_SAMPLES = 3
SETUP_CODE = (
    "import gwtqft.cli\n"
    "from gwtqft.operators import build_operator\n"
    "for name in ('G', 'U1', 'U2', 'U1inv', 'U2inv'):\n"
    "    build_operator(name)\n"
)
SUITES = {"calabi_yau", "special_cases", "gluing_derivations", "semisimplicity", "numeric_crosscheck"}
KEYED = ("compute", "extract", "genus")

clock = time.perf_counter


def child_env(cache_dir: str | None) -> dict[str, str]:
    """The caller's environment with the package on the path and the disk
    cache either absent or a directory this run owns."""
    env = dict(os.environ)
    env.pop(CACHE_ENV, None)
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env[CACHE_ENV] = cache_dir
    return env


@dataclass
class Pass:
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)  # completed requests
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    keyed: int = 0
    hits: int = 0  # keyed requests whose (g, k1, k2) an earlier one cached
    cache_bytes: int = 0


def check_verify(stdout: bytes) -> str | None:
    try:
        reports = [json.loads(line) for line in stdout.decode().splitlines() if line.strip()]
    except ValueError:
        return "verify output is not JSON lines"
    ids = {r.get("check_id") for r in reports}
    if ids != SUITES:
        return f"verify reported suites {sorted(map(str, ids))}"
    bad = [r["check_id"] for r in reports if r.get("passed") is not True or not r.get("cases")]
    return f"verify suites not passed: {bad}" if bad else None


def check_output(argv, proc, golden: dict[str, str]) -> str | None:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}"
    if b"Traceback" in proc.stderr:
        return "traceback on stderr"
    if argv[0] == "verify":
        return check_verify(proc.stdout)
    digest = golden.get(workloads.key_of(argv))
    if digest is None:
        return "no recorded output for this request"
    if hashlib.sha256(proc.stdout).hexdigest() != digest:
        return "stdout differs from the recorded output"
    expected = workloads.closed_form(argv)
    if expected is not None and proc.stdout.decode() != expected:
        return "stdout differs from the paper's closed form"
    return None


def run_pass(reqs, *, cache: bool, timeout: float, deadline: float, golden,
             trace_dir: Path | None = None) -> Pass:
    """Send the requests one after another (closed loop, one client)."""
    res = Pass()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK) if cache else None
    env = child_env(cache_dir)
    cached: set[tuple[str, ...]] = set()
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    try:
        start = clock()
        for i, argv in enumerate(reqs):
            remaining = deadline - clock()
            if remaining <= 0:
                res.failures.append(f"run time limit reached before request {i}")
                break
            if trace_dir is None:
                cmd = [sys.executable, "-m", "gwtqft.cli", *argv]
            else:
                cmd = [sys.executable, str(TRACER), str(trace_dir / f"req-{i:03d}.json"), *argv]
            # (g, k1, k2): the values after --genus, --level1 and --level2
            key = tuple(argv[2:7:2]) if argv[0] in KEYED else None
            res.attempted += 1
            t0 = clock()
            try:
                proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                      timeout=min(timeout, remaining))
            except subprocess.TimeoutExpired:
                res.failures.append(f"{workloads.key_of(argv)}: timed out")
                continue
            dt = clock() - t0
            problem = check_output(argv, proc, golden)
            if problem is not None:
                res.failures.append(f"{workloads.key_of(argv)}: {problem}")
                continue
            res.latencies.append(dt)
            if key is not None:
                res.keyed += 1
                res.hits += key in cached
                cached.add(key)
        res.wall = clock() - start
        if cache_dir is not None:
            path = Path(cache_dir) / "zcache.json"
            res.cache_bytes = path.stat().st_size if path.exists() else 0
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return res


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Seconds for a fresh interpreter to import gwtqft.cli and build G, U1,
    U2, U1inv and U2inv."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = child_env(None)
    out = []
    for _ in range(samples):
        t0 = clock()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                       timeout=max(1.0, deadline - t0))
        out.append(clock() - t0)
    return out


# -- timed run -----------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, golden, deadline: float):
    measure_setup(1, deadline)  # untimed: writes the bytecode cache
    setup = measure_setup(SETUP_SAMPLES, deadline)
    make = workloads.PASSES[workload]
    cache = workload == "cli_session"
    passes: list[Pass] = []
    start = clock()
    while True:
        p = run_pass(make(seed, len(passes)), cache=cache,
                     timeout=REQUEST_TIMEOUT_S[workload], deadline=deadline, golden=golden)
        passes.append(p)
        setup += measure_setup(SETUP_SAMPLES, deadline)
        now = clock()
        if now - start + p.wall > seconds or now + p.wall > deadline:
            break
    lat = sorted(x for p in passes for x in p.latencies)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    if not lat:
        raise RuntimeError(f"no request completed; first failure: {failures[:1]}")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "req_p50_s": statistics.median(lat),
        "req_per_s": len(lat) / sum(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    notes = [
        f"passes={len(passes)} requests={attempted} completed={len(lat)} "
        f"setup_samples={len(setup)}",
        f"failed_frac={len(failures) / attempted:.4f} ({len(failures)} of {attempted})",
    ]
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else lat[0]
    beyond = sum(x > p90 for x in lat)
    if beyond >= 10:
        notes.append(f"req_p90_s={p90:.6f} s ({beyond} samples beyond it)")
    else:
        notes.append(f"req_p90_s not reported: {beyond} samples beyond it, fewer than 10")
    keyed = sum(p.keyed for p in passes)
    if cache:
        hits = sum(p.hits for p in passes)
        notes.append(f"disk-cache key hits={hits} of {keyed} keyed requests ({hits / keyed:.2f})")
    return metrics, attempted, failures, notes


# -- traced run ----------------------------------------------------------------------


class Trace:
    """Per-layer totals summed over the tracer files of one set of requests."""

    def __init__(self, trace_dir: Path, cache_bytes: int):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.suites: dict[str, float] = {}
        self.results: dict[str, list] = {}
        self.cache_bytes = cache_bytes
        self.fraction_ops = 0
        self.import_s = 0.0
        self.z_spans = self.z_hits = self.tf_hits = self.tf_misses = 0
        for path in sorted(trace_dir.glob("req-*.json")):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            for name, (calls, total, own) in doc["stats"].items():
                acc = self.stats[name]
                acc[0] += calls
                acc[1] += total
                acc[2] += own
            for suite, secs in doc["suites"].items():
                self.suites[suite] = self.suites.get(suite, 0.0) + secs
            self.results.update(doc["results"])
            self.fraction_ops += doc["fraction_ops"]
            self.import_s += doc["import_s"]
            self.z_spans += doc["compute_z_spans"]
            self.z_hits += doc["compute_z_hits"]
            self.tf_hits += doc["trace_formula_hits"]
            self.tf_misses += doc["trace_formula_misses"]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(names, main: Trace, probe: Trace, traced: Pass, untraced: Pass):
    """Each per-layer metric from the workload's traced pass, or from the
    probe when the pass never entered that layer. Returns (metrics, names
    taken from the probe)."""
    from_probe = []

    def source(span: str) -> Trace:
        if main.stats[span][0]:
            return main
        from_probe.append(span)
        return probe

    def suite(name: str) -> Trace:
        if name in main.suites:
            return main
        from_probe.append(f"checks.{name}")
        return probe

    tf = source("gluing.trace_formula")
    memo = source("partition.compute_Z")
    special = {
        "exactring.fraction_ops": main.fraction_ops,
        "exactring.max_coeff_bits": max((b for _, b in main.results.values()), default=0),
        "exactring.result_terms": sum(t for t, _ in main.results.values()),
        "gluing.trace_formula.hit_ratio": _ratio(tf.tf_hits, tf.tf_hits + tf.tf_misses),
        "partition.memo_hit_ratio": _ratio(memo.z_hits, memo.z_spans),
        "partition.cache_bytes": source("partition.save_cache").cache_bytes,
        "cli.import_s": main.import_s,
        "trace.wall_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            span = name[: -len(".calls")]
            out[name] = source(span).stats[span][0]
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            out[name] = source(span).stats[span][2]
        elif name.startswith("checks.") and name[len("checks."):-2] in SUITES:
            check_id = name[len("checks."):-2]
            out[name] = suite(check_id).suites[check_id]
        elif name.endswith(".s"):
            span = name[: -len(".s")]
            out[name] = source(span).stats[span][1]
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return out, sorted(set(from_probe))


def traced_run(workload: str, seed: int, names, golden, deadline: float):
    reqs = workloads.PASSES[workload](seed, 0)
    cache = workload == "cli_session"
    timeout = REQUEST_TIMEOUT_S[workload]
    trace_dir = WORK / f"trace-{workload}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    untraced = run_pass(reqs, cache=cache, timeout=timeout, deadline=deadline, golden=golden)
    traced = run_pass(reqs, cache=cache, timeout=timeout, deadline=deadline, golden=golden,
                      trace_dir=trace_dir / "pass")
    probe_reqs = list(workloads.PROBE)
    if workload != "verify_all":
        probe_reqs.append(workloads.PROBE_VERIFY)
    probe = run_pass(probe_reqs, cache=True, timeout=REQUEST_TIMEOUT_S["verify_all"],
                     deadline=deadline, golden=golden, trace_dir=trace_dir / "probe")
    runs = (untraced, traced, probe)
    attempted = sum(p.attempted for p in runs)
    failures = [f for p in runs for f in p.failures]
    metrics, from_probe = layer_metrics(
        names, Trace(trace_dir / "pass", traced.cache_bytes),
        Trace(trace_dir / "probe", probe.cache_bytes), traced, untraced)
    notes = [
        f"untraced pass {untraced.wall:.3f} s, traced pass {traced.wall:.3f} s, "
        f"tracing overhead {traced.wall - untraced.wall:+.3f} s",
        f"failed_frac={len(failures) / max(attempted, 1):.4f} ({len(failures)} of {attempted})",
        "layers the pass never entered, measured on the probe: " + (", ".join(from_probe) or "none"),
        f"trace files: {trace_dir.relative_to(ROOT)}",
    ]
    return metrics, attempted, failures, notes


# -- entry point ---------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload, seed, seconds, trace, spec, golden, deadline):
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if trace:
        values, attempted, failures, notes = traced_run(workload, seed, list(units), golden, deadline)
    else:
        values, attempted, failures, notes = timed_run(workload, seed, seconds, golden, deadline)
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'timed'})")
    for name, unit in units.items():
        value = values[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload} {name} = {shown} {unit}")
    for line in notes:
        print(f"{workload} {line}")
    for line in failures[:10]:
        print(f"{workload} FAILED {line}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, attempted, len(failures)


def main(argv=None) -> int:
    names = list(workloads.PASSES)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gwtqft" / "cli.py").is_file():
        print(f"error: {SRC / 'gwtqft'} is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(names, args)
    WORK.mkdir(exist_ok=True)
    metrics, attempted, failed = run_one(
        args.workload, args.seed, args.seconds, args.trace, load_spec(),
        workloads.load_golden(), clock() + RUN_LIMIT_S)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(names, args) -> int:
    """Each workload in a process of its own, so that peak_rss_mb counts only
    that workload's children; the result prefixes metrics with the workload."""
    metrics, attempted, failed, code = {}, 0, 0, 0
    for wl in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode or 1
            if not lines:
                continue
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{wl}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and code == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return code

if __name__ == "__main__":
    sys.exit(main())
