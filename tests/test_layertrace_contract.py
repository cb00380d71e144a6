"""The benchmark reads the package from outside; keep its reads working.

`perfbench/layertrace.py` wraps each layer in its `LAYERS` table and derives
work counts from the flow's fields (`mode`, `xi_nodes`, `y_edges`), from
`xi_evaluate(flow, t, y)` and from `CellField.m`; `perfbench/workloads.py`
builds the seeded inputs and runs the passes.  A refactor that renames or
breaks one of them should fail here, not in a benchmark run.
"""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from stringlab import datasets
from stringlab.characteristics import build_flow, evolve_cells, xi_time_inverse
from stringlab.weak import completion_experiment

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
WORKLOADS = LAYERTRACE.with_name("workloads.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # where a dataclass looks up its module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layertrace():
    return _load(LAYERTRACE, "layertrace_contract")


@pytest.fixture(scope="module")
def workloads():
    return _load(WORKLOADS, "workloads_contract")


@pytest.mark.parametrize("name", ["completion", "smooth_solve", "cross_check"])
def test_one_benchmark_pass_at_seed_1_fails_no_op(workloads, name, tmp_path):
    # seeds other than 0 rebuild the inputs (the completion base is a
    # translated rough Profile), so this reads what the benchmark reads
    make_inputs, one_pass = workloads.WORKLOADS[name]
    ledger = workloads.Ledger()
    one_pass(make_inputs(1), ledger, str(tmp_path))
    assert ledger.attempted > 0 and ledger.failed == 0, (ledger.raised, ledger.wrong)


def test_every_layer_binding_resolves(layertrace):
    for name, (owner, attr, counts, extra) in layertrace.LAYERS.items():
        assert callable(vars(owner)[attr]), name
        assert counts is None or callable(counts), name
        assert all(q in layertrace.UNITS for q in extra), name


@pytest.mark.parametrize("source", [lambda: datasets.smooth_manifold_profile(n=256),
                                    lambda: datasets.rough_manifold_base(31)],
                         ids=["smooth", "rough"])
def test_flow_counts_read_the_flow(layertrace, source):
    flow = build_flow(source())
    nodes = layertrace._c_build_flow(flow, (), {})["table_nodes"]
    assert nodes == len(flow.y_edges)
    s = np.linspace(-2.0, 2.0, 9)
    y = xi_time_inverse(flow, 0.7, s)
    counts = layertrace._c_xi_time_inverse(y, (flow, 0.7, s), {})
    assert counts["points"] == s.size and counts["residual_max"] < 1e-12
    if flow.mode == "pc":
        cells = evolve_cells(flow, 0.7)
        assert layertrace._c_evolve_cells(cells, (flow, 0.7), {}) == {"cells": cells.m}


def test_traced_completion_records_every_tiling(layertrace):
    # a completion run tiles once per level and once more for the reversed
    # layout, each through `oscillate_profile`, so the tracer sees all three
    tracer = layertrace.Tracer()
    tracer.pass_id = 0
    tracer.install()
    try:
        completion_experiment(datasets.subrelativistic_wave_base(101), [8, 16], [0.0, 1.0], m=16,
                              compare_layouts=True)
    finally:
        tracer.restore()
    layers = tracer.pass_layers(0)
    assert layers["weak.oscillate_profile"]["calls"] == 3
    # every field is paired through `weak.pairing_tables`, one time at a time:
    # (two levels + the reversed layout + the direct limit) x 2 times x 20 functions
    assert layers["weak.pairing_tables"]["pairings"] == 4 * 2 * 20
    assert layers["characteristics.evolve_cells"]["calls"] == 4 * 2
    assert tracer.all_restored()


def test_fault_counter_runs_a_workload_as_it_is(monkeypatch, capsys):
    # tools/faults.py imports perfbench/workloads.py unchanged and times and
    # counts each op; its last line is one JSON object
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool puts src/ and perfbench/ first
    faults = _load(LAYERTRACE.parents[1] / "tools" / "faults.py", "faults_contract")
    assert faults.main(["--workload", "completion", "--seed", "1", "--passes", "1", "--warm", "0"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(out["median"]) == {"completion", "pass"} and out["failed"] == 0
    assert len(out["pass_faults"]) == 1
