"""aecover benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload solve-general --seed 0 --seconds 20 --trace 0

The run imports ``aecover`` from ``src/`` of the checkout, builds the
workload's inputs from ``--seed``, and runs passes over them in one process
and one thread, a closed loop with a single client, until ``--seconds`` are
used.  Every output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every op twice, once untraced and once with spans around the layer
functions of ``layers.json``, and reports the per-layer metrics; its spans are
written to ``.bench_trace/``.  Both print a detail record (environment, sample
counts, output digest, fail rate) and then, as the last line, the result
object.  The exit code is 0 when every op passed its checks, 1 otherwise, and
2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

PACKAGE = "aecover"
MODULES = ("core", "fileio", "generators", "cli", "oracle", "report", "unit")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# reference_work's median time on the machine the benchmark was defined on
# (Python 3.11, 2 vCPUs); times are reported at this speed.
REFERENCE_S = 0.0045
SPEED_SAMPLE_EVERY_S = 0.1


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    spec = json.loads(path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return units, layer_units


# Imports the package in a fresh interpreter and prints the seconds it took.
IMPORT_PROBE = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""


def module_names():
    return [PACKAGE] + [f"{PACKAGE}.{name}" for name in MODULES]


def import_library():
    """Import the package from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {src}")
    sys.path.insert(0, str(src))
    for name in module_names():
        importlib.import_module(name)
    package = sys.modules[PACKAGE]
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise SetupError(f"imported {package.__file__}, not the checkout's package")
    return package


def import_seconds():
    """Import time of the package in a fresh interpreter, once per set-up."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), *module_names()]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def reference_work():
    """Fixed pure-Python work of the library's kinds, which never calls the
    library: exact fractions in dicts, a memoized search over bit masks, and
    a scan comparing tuples against a growing list."""
    total, table = Fraction(0), {}
    for i in range(1, 500):
        total += Fraction(i % 97 + 1, i % 13 + 1)
        table[i % 100] = (total, i)
    sorted(table.values())

    memo = {}

    def search(mask, depth):
        if depth == 0 or mask == 0x3FFF:
            return 0
        if (mask, depth) not in memo:
            memo[mask, depth] = 1 + min(
                search(mask | (7 << j) & 0x3FFF, depth - 1) for j in range(0, 12, 3)
            )
        return memo[mask, depth]

    for start in range(40):
        search(start, 5)

    kept = []
    for i in range(220):
        e = (i % 7, i % 11, i % 5, i % 3)
        if not any(k[0] == e[0] and k[1] == e[1] and k[2] <= e[2] and k[3] <= e[3] for k in kept):
            kept.append(e)


class Speed:
    """How fast the machine runs right now, from timing ``reference_work``
    between ops.  On a machine shared with other tenants the same work takes
    up to a fifth longer for minutes at a time; scaling every time by
    REFERENCE_S over the run's median reference time removes most of that
    drift from the comparison of runs."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def maybe_sample(self):
        """Time reference_work unless the last sample is recent."""
        start = time.perf_counter()
        if start - self.last < SPEED_SAMPLE_EVERY_S:
            return
        reference_work()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def factor(self):
        """Multiply a time by this to get it at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


class Run:
    """Counts, timings and errors of one benchmark run."""

    def __init__(self, aec, workload, tracer=None):
        self.aec = aec
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.speed = Speed()
        self.latencies = []
        self.pass_rates = []
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.traced_ops = 0
        self.passes = 0

    def _error(self, what, exc):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {exc!r}")
        if not isinstance(exc, CheckFailed) and self.failed <= 3:
            traceback.print_exception(exc, file=sys.stderr)

    def op(self, state, i, traced):
        """One timed op plus its untimed check; returns seconds or None."""
        self.attempted += 1
        wl, aec = self.wl, self.aec
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            if traced:
                out = self.tracer.call_op(self.attempted, wl.op, aec, state, i)
            else:
                out = wl.op(aec, state, i)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed op is counted, and the run goes on
            self._error(f"op {i}", exc)
            return None
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            wl.check(state, i, out)
        except CheckFailed as exc:
            self._error(f"op {i}", exc)
            return None
        return elapsed

    def finish(self, state, traced):
        """The pass's timed finishing step plus its check; returns seconds."""
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            finished = self.wl.finish_pass(self.aec, state)
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            self.wl.check_finish(finished)
        except CheckFailed as exc:
            self._error("pass end", exc)
        return elapsed

    def plain_pass(self):
        state = self.wl.new_pass()
        busy = 0.0
        for i in range(self.wl.input_count()):
            self.speed.maybe_sample()
            elapsed = self.op(state, i, traced=False)
            if elapsed is not None:
                self.latencies.append(elapsed)
                busy += elapsed
        busy += self.finish(state, traced=False)
        self.pass_rates.append(self.wl.input_count() / busy)

    def traced_pass(self):
        """Each input runs untraced and traced, in alternating order, so the
        two timings share inputs and the tracing overhead can be read off."""
        plain, traced = self.wl.new_pass(), self.wl.new_pass()
        for i in range(self.wl.input_count()):
            first_traced = (i + self.passes) % 2 == 1
            times = {}
            for with_trace in (first_traced, not first_traced):
                times[with_trace] = self.op(traced if with_trace else plain, i, with_trace)
            if None not in times.values():
                self.plain_s += times[False]
                self.traced_s += times[True]
                self.traced_ops += 1
        self.finish(plain, traced=False)
        self.finish(traced, traced=True)

    def loop(self, seconds):
        """Whole passes, so every input weighs the same in every metric,
        until the next pass would overrun ``seconds``; at least one."""
        walls = []
        start = time.perf_counter()
        while True:
            gc.collect()
            t0 = time.perf_counter()
            (self.traced_pass if self.tracer else self.plain_pass)()
            walls.append(time.perf_counter() - t0)
            self.passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > seconds:
                return elapsed


def output_digest(workload):
    refs = workload.canonical_reports()
    if any(r is None for r in refs):
        return None
    h = hashlib.sha256()
    for text in refs:
        h.update(text.encode())
    return h.hexdigest()


def end_to_end(run, workload, setup_s, scale):
    """End-to-end values with their sample counts; every time is multiplied
    by ``scale`` and every rate divided by it."""
    lat = run.latencies
    return {
        "setup_s": (setup_s * scale, SETUP_REPEATS),
        "ops_per_s": (statistics.median(run.pass_rates) / scale, len(run.pass_rates)),
        "op_ms.p50": (statistics.median(lat) * 1e3 * scale, len(lat)),
        "op_ms.p90": (quantile(lat, 0.9) * 1e3 * scale, len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "value_ratio": (float(workload.value_sum / workload.reference_sum), workload.input_count()),
    }


def per_layer(run, tracer, layers):
    ops = run.traced_ops
    values = tracer.layer_metrics(layers, ops)
    values["trace.overhead_pct"] = (run.traced_s / run.plain_s - 1) * 100
    return {name: (value, ops) for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        units, layer_units = load_spec()
        aec = import_library()
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    # Set-up is an import in a fresh interpreter plus building the inputs.
    setup_times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        made = workload.setup(aec)
        setup_times.append(imported + time.perf_counter() - start)
        if inputs is not None and made != inputs:
            print("benchmark cannot run: set-up is not deterministic", file=sys.stderr)
            return 2
        inputs = made
    workload.prepare(inputs)
    setup_s = statistics.median(setup_times)

    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    tracer = Tracer(PACKAGE, layers) if args.trace else None
    run = Run(aec, workload, tracer)
    wall = run.loop(args.seconds)

    digest = output_digest(workload)
    ok = run.failed == 0 and digest is not None
    if ok and tracer is not None:
        measured = per_layer(run, tracer, layers)
        wanted = layer_units
    elif ok:
        measured = end_to_end(run, workload, setup_s, run.speed.factor())
        wanted = units
    else:
        measured, wanted = {}, {}
    if set(measured) != set(wanted):
        print(f"benchmark defect: metrics {sorted(set(measured) ^ set(wanted))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {
        name: {"value": value, "unit": wanted[name]} for name, (value, _) in measured.items()
    }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_per_pass": workload.input_count(),
        "passes": run.passes,
        "ops": run.attempted,
        "wall_s": wall,
        "output_digest": digest,
        "fail_rate": {"value": run.failed / run.attempted, "unit": "fraction",
                      "samples": run.attempted},
        "metrics": {
            name: dict(metrics[name], samples=n) for name, (_, n) in measured.items()
        },
        "errors": run.errors,
    }
    if tracer is None and ok:
        detail["speed"] = {
            "scale": run.speed.factor(),
            "reference_s": REFERENCE_S,
            "samples": len(run.speed.samples),
        }
        raw = end_to_end(run, workload, setup_s, 1.0)
        detail["unscaled"] = {name: value for name, (value, _) in raw.items()}
    if tracer is not None:
        self_times = {k: v for k, (v, _) in measured.items() if k.endswith(".self_s")}
        detail["top_self_s"] = sorted(self_times.items(), key=lambda kv: -kv[1])[:5]
        detail["absent_layers"] = tracer.absent
        detail["counter_errors"] = sorted(tracer.counter_errors)
        spans = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(detail))
    result = {
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
