"""Self-test of the benchmark: its checks, its failure count and its tracer.

Run from the repository root (about half a minute):

    python3 perfbench/selftest.py

For each workload one seed-0 pass runs with chosen op outputs corrupted just
before their checks.  The ledger must report exactly the corrupted ops as
wrong outputs, so every check can fail and every uncorrupted op passes.
The tracer must wrap every binding of a layer inside the package, and once
restored it must leave no wrapper behind and make no wrapper call.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import run

run._import_package()

import layertrace  # noqa: E402
import workloads  # noqa: E402
from stringlab import characteristics, datasets, weak  # noqa: E402


def _bad_identities(rep):
    rep = copy.deepcopy(rep)
    rep["identities"]["residual_yz"] += 10 * workloads.IDENTITY_TOL
    return rep


def _bad_tau(sol):
    sol.tau = sol.tau + 10 * workloads.DRIFT_TOL
    return sol


def _bad_x(pairs):
    return [(x + 2 * workloads.RECONSTRUCTION_TOL, ref) for x, ref in pairs]


def _bad_bytes(pairs):
    with open(pairs[0][1], "ab") as fh:
        fh.write(b"\n")
    return pairs


def _bad_validation(rep):
    rep = copy.deepcopy(rep)
    rep["results"][0]["pass"] = False
    return rep


CORRUPTIONS = {
    "completion": {"completion": _bad_identities},
    "smooth_solve": {"solve t=1": _bad_tau, "snapshot round trip": _bad_bytes,
                     "reconstruct string": _bad_x},
    "cross_check": {"fv ladder": lambda errs: errs[::-1],
                    "thm1 table": lambda sups: [s * (1.0 + k) for k, s in enumerate(sups)],
                    "validation": _bad_validation},
}


def check_corruptions() -> list[str]:
    problems = []
    os.makedirs(run.OUT, exist_ok=True)
    for name, corrupt in CORRUPTIONS.items():
        make_inputs, one_pass = workloads.WORKLOADS[name]
        ledger = workloads.Ledger(corrupt=corrupt)
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            one_pass(make_inputs(0), ledger, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wrong = sorted(op for op, _ in ledger.wrong)
        raised = sorted(op for op, _ in ledger.raised)
        print(f"{name}: wrong {wrong}, raised {raised}")
        if wrong != sorted(corrupt):
            problems.append(f"{name}: expected wrong outputs {sorted(corrupt)}, got {wrong}")
        if set(raised) & set(corrupt):
            problems.append(f"{name}: a corrupted op raised instead of failing its check")
    return problems


def check_tracer() -> list[str]:
    problems = []
    orig_build, orig_cells = characteristics.build_flow, characteristics.evolve_cells
    base = datasets.subrelativistic_wave_base(cells=11)
    tracer = layertrace.Tracer()
    tracer.pass_id = 0
    tracer.install()
    try:
        if weak.build_flow is orig_build or weak.evolve_cells is orig_cells:
            problems.append("weak's own bindings of build_flow / evolve_cells were not wrapped")
        weak.completion_experiment(base, [4, 8], [0.0, 0.5], m=4)
    finally:
        tracer.restore()
    layers = tracer.pass_layers(0)
    for layer in ("characteristics.build_flow", "characteristics.evolve_cells",
                  "weak.pairing_tables", "weak.TestFunction.antiderivative"):
        if layers[layer]["calls"] == 0:
            problems.append(f"no span recorded for {layer} inside completion_experiment")
    calls = tracer.wrapper_calls
    weak.completion_experiment(base, [4, 8], [0.0, 0.5], m=4)
    if tracer.wrapper_calls != calls or not tracer.all_restored():
        problems.append("a restored tracer still wraps calls")
    if weak.build_flow is not orig_build or characteristics.evolve_cells is not orig_cells:
        problems.append("restore did not put the original functions back")
    print(f"tracer: {len(tracer.spans)} spans while installed, "
          f"{tracer.wrapper_calls - calls} wrapper calls after restore")
    return problems


def check_manifest() -> list[str]:
    """BENCHMARK.json names exactly the metrics the two run modes print."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    problems = []
    if [w["name"] for w in doc["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    if {m["name"]: m["unit"] for m in doc["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if {m["name"]: m["unit"] for m in doc["per_layer"]} != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the tracer's metrics")
    return problems


def main() -> int:
    problems = check_manifest() + check_tracer() + check_corruptions()
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
