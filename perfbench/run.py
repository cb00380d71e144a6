"""Benchmark of the stringlab package: time to a checked solution.

Run from the repository root:

    python3 perfbench/run.py --workload completion --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 32

Workloads (see workloads.py):

    completion    the flagship weak-* completion run with the acceptance-gate
                  inputs: the rough path, pairing and oscillation layers
    smooth_solve  one smooth table build then many evaluations: the 16384-node
                  solver with snapshot I/O, and the mode-2 string reconstruction
    cross_check   the independent oracles: finite-volume ladder, the thm1
                  sup-norm table and the validation battery

Each workload is a closed loop on one thread of control: after one untimed
warm-up pass, passes run one after another until the next pass would end past
`--seconds` (at least one pass).  With `--trace 0` the end-to-end metrics are
printed: the median pass wall time, the median set-up time over fresh
processes, the peak resident memory and the share of ops that succeeded.
With `--trace 1` untraced and traced passes alternate; the traced ones give
per-layer spans and counts (layertrace.py), the untraced ones the tracing
overhead and the proof that a restored tracer makes no wrapper calls.  The
spans are written to `.bench_out/` when the run ends.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
quartiles, sample counts, every failed op and the host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("completion", "smooth_solve", "cross_check")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _import_package():
    """Put this checkout's `src` first on the path and import stringlab from it."""
    if not os.path.isfile(os.path.join(SRC, "stringlab", "__init__.py")):
        raise SystemExit(f"error: no stringlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import stringlab

    if os.path.dirname(os.path.dirname(os.path.abspath(stringlab.__file__))) != SRC:
        raise SystemExit(f"error: imported stringlab from {stringlab.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time `import stringlab` plus building the inputs."""
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workloads.WORKLOADS[workload][0](seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def host_facts() -> dict:
    """Cores, interpreter and library versions, BLAS threads, src line count."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                threads = int(getattr(dll, sym)())
                break
        if threads is not None:
            break
    src_lines = 0
    pkg = os.path.join(SRC, "stringlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_lines": src_lines,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Loop:
    """Closed loop of passes over one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: str):
        import workloads

        self.make_inputs, self.one_pass = workloads.WORKLOADS[workload]
        self.inputs = self.make_inputs(seed)
        self.ledger = workloads.Ledger()
        self.seconds = seconds
        self.workdir = workdir
        self.log = []  # (kind, wall seconds, ops attempted, ops failed, wrong outputs)

    def run_pass(self, kind: str) -> float:
        before = (self.ledger.attempted, self.ledger.failed, len(self.ledger.wrong))
        t0 = time.perf_counter()
        self.one_pass(self.inputs, self.ledger, self.workdir)
        wall = time.perf_counter() - t0
        self.log.append((kind, wall, self.ledger.attempted - before[0],
                         self.ledger.failed - before[1], len(self.ledger.wrong) - before[2]))
        print(f"pass {len(self.log)} ({kind}): {wall:.3f} s, {self.log[-1][2]} ops, "
              f"{self.log[-1][3]} failed", flush=True)
        return wall

    def walls(self, kind: str) -> list[float]:
        """Wall times of the passes of `kind` whose outputs all passed their checks."""
        ok = [w for k, w, _, _, wrong in self.log if k == kind and wrong == 0]
        return ok or [w for k, w, _, _, _ in self.log if k == kind]

    def run(self, kinds, run_pass) -> None:
        """One untimed warm-up pass, then cycle through `kinds` until the next
        pass would end past the budget.

        The first pass of a process runs some 10% slower while the allocator
        grows its heap; timing it would add that jitter to every median.
        """
        self.run_pass("warmup")
        start = time.perf_counter()
        i = 0
        while True:
            run_pass(kinds[i % len(kinds)])
            i += 1
            if i < len(kinds):
                continue
            nxt = kinds[i % len(kinds)]
            if time.perf_counter() - start + statistics.median(self.walls(nxt)) > self.seconds:
                break


def run_traced(loop: Loop, workload: str, seed: int) -> dict:
    import layertrace as trace

    tracer = trace.Tracer()
    traced_ids = []

    def run_pass(kind):
        if kind == "plain":
            calls = tracer.wrapper_calls
            loop.run_pass(kind)
            if tracer.wrapper_calls != calls or not tracer.all_restored():
                raise RuntimeError("an untraced pass went through a tracing wrapper")
            return
        tracer.pass_id = len(loop.log)
        traced_ids.append(tracer.pass_id)
        try:
            tracer.install()
            loop.run_pass(kind)
        finally:
            tracer.restore()

    loop.run(["plain", "traced"], run_pass)
    per_pass = [tracer.pass_layers(pid) for pid in traced_ids]
    metrics = trace.median_layers(per_pass)
    coverage = []
    for pid in traced_ids:
        busy, outside = tracer.top_level_busy(pid)
        coverage.append(busy / (loop.log[pid][1] - outside))
    metrics["trace_coverage_frac"] = statistics.median(coverage)
    metrics["trace_overhead_frac"] = (statistics.median(loop.walls("traced"))
                                      / statistics.median(loop.walls("plain")) - 1.0)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    tracer.dump(path, {"workload": workload, "seed": seed, "traced_passes": traced_ids})
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}


def per_layer_units() -> dict:
    import layertrace as trace

    units = {m: trace.UNITS[q] for m, q in trace.metric_names()}
    units["trace_coverage_frac"] = "ratio"
    units["trace_overhead_frac"] = "ratio"
    return units


def run_workload(args) -> int:
    _import_package()
    facts = host_facts()
    print(f"stringlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("facts: " + json.dumps(facts, sort_keys=True), flush=True)
    setup = measure_setup(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        loop = Loop(args.workload, args.seed, args.seconds, workdir)
        if args.trace:
            values = run_traced(loop, args.workload, args.seed)
            units = per_layer_units()
        else:
            loop.run(["plain"], loop.run_pass)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    led = loop.ledger
    for name, why in led.raised + led.wrong:
        print(f"failed op: {name}: {why}")
    frac_failed = led.failed / led.attempted
    print(f"ops: {led.attempted} attempted, {led.failed} failed "
          f"(ops_failed_frac {frac_failed:.4f}: {len(led.raised)} raised, "
          f"{len(led.wrong)} wrong outputs)")
    if not args.trace:
        walls = loop.walls("plain")
        q1, q3 = quartiles(walls)
        s1, s3 = quartiles(setup)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ops_ok_frac": 1.0 - frac_failed,
        }
        notes = {
            "wall_s": f"median of {len(walls)} passes after warm-up, q1 {q1:.4f}, q3 {q3:.4f}",
            "setup_s": f"median of {len(setup)} fresh processes, q1 {s1:.4f}, q3 {s3:.4f}",
            "peak_rss_mb": "peak resident set of this process",
            "ops_ok_frac": f"{led.attempted - led.failed} of {led.attempted} ops",
        }
        for name, value in values.items():
            print(f"{name:<12} {value:12.6g} {units[name]:<6} {notes[name]}")
    result = {
        # a wrong output fails the run; an op that raised is counted in `failed`
        "correct": not led.wrong,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's end-to-end lines."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
