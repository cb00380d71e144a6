import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

from stringlab import datasets
from stringlab.characteristics import _xi_only, admissibility, build_flow, evolve_cells
from stringlab.geometry import ManifoldParams, in_g, in_m
from stringlab.profiles import Profile
from stringlab.waves import oscillatory_limit_init, wave_to_augmented
from stringlab.weak import (
    TestFunction,
    _erf,
    _weights,
    _wind_range,
    completion_experiment,
    default_family,
    extrapolate_tables,
    loglog_slope,
    observable_matrix,
    oscillate_profile,
    pairing_matrix,
    pairing_tables,
    verify_generalized_solution,
)


# -- test functions -----------------------------------------------------------

def test_antiderivatives_match_values():
    rng = np.random.default_rng(4)
    s = rng.uniform(-4.0, 4.0, 200)
    eps = 1e-6
    for g in (TestFunction.gaussian(0.5, 0.9), TestFunction.hat(0.2, 1.1),
              TestFunction.indicator(-1.0, 2.0)):
        fd = (g.antiderivative(s + eps) - g.antiderivative(s - eps)) / (2 * eps)
        smooth = np.abs(s - g.p1) > 1e-3 if g.kind == "hat" else \
            (np.abs(s - g.p1) > 1e-3) & (np.abs(s - g.p2) > 1e-3)
        assert np.max(np.abs(fd[smooth] - g(s[smooth]))) < 1e-8
        lo, hi = g.support(1e-18)
        assert g.antiderivative(np.array([hi]))[0] - g.antiderivative(np.array([lo]))[0] \
            == pytest.approx(g.normalization, abs=1e-12)


_NO_SCIPY = textwrap.dedent("""
    import json, os, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    import stringlab
    from stringlab import cli, datasets
    from stringlab.validate import run_validation
    from stringlab.weak import completion_experiment

    seen = {"import": scipy_modules()}
    cfg = os.path.join(sys.argv[1], "sim.json")
    with open(cfg, "w") as fh:
        json.dump({"initial": {"kind": "smooth_m", "d": 3}, "grid": {"n": 256},
                   "times": [0.3], "cross_check_fv": {"enabled": False}}, fh)
    out = os.path.join(sys.argv[1], "out")
    seen["simulate_exit"] = cli.main(["simulate", "--config", cfg, "--out", out])
    seen["report"] = os.path.isfile(os.path.join(out, "simulate_report.json"))
    seen["simulate"] = scipy_modules()
    rep = completion_experiment(datasets.subrelativistic_wave_base(101), [8, 16], [0.0], m=16)
    seen["completion_gaps"] = rep["gaps"]
    seen["completion"] = scipy_modules()
    seen["validate_pass"] = run_validation(seed=0)["pass"]
    seen["validate"] = scipy_modules()
    print(json.dumps(seen))
""")


def test_no_scipy_module_is_ever_loaded(tmp_path):
    # a fresh interpreter: this one may have imported scipy through another package
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    # the run reached its report (exit 1 is a membership verdict, not a crash)
    assert seen["simulate_exit"] in (0, 1) and seen["report"]
    assert 0.0 < seen["completion_gaps"][1] < seen["completion_gaps"][0]
    assert seen["validate_pass"]
    for stage in ("import", "simulate", "completion", "validate"):
        assert seen[stage] == [], stage


def test_erf_matches_math_erf():
    rng = np.random.default_rng(11)
    nodes = np.arange(6 * 1024 + 1) / 1024
    x = np.concatenate([np.linspace(-7.0, 7.0, 140_001), rng.uniform(-7.0, 7.0, 100_000),
                        nodes, nodes[:-1] + 0.5 / 1024, [0.0, np.inf, 1e-300, 5e-324]])
    x = np.concatenate([x, -x])
    got = _erf(x)
    want = np.array([math.erf(v) for v in x])
    assert np.max(np.abs(got - want)) <= 2.0 ** -52
    # odd bit for bit, signed zeros included
    assert np.array_equal(_erf(-x).view(np.int64), (-got).view(np.int64))
    assert np.signbit(_erf(np.array([-0.0])))[0] and not np.signbit(_erf(np.array([0.0])))[0]
    far = np.abs(x) >= 6.0
    assert np.array_equal(got[far], np.sign(x[far]))
    assert np.isnan(_erf(np.array([np.nan, -np.nan]))).all()
    assert _erf(np.array([np.inf, -np.inf])).tolist() == [1.0, -1.0]


def test_batched_weights_equal_the_per_image_loop():
    # one antiderivative call over every image's slice gives the same bits as
    # one call per image
    base = datasets.subrelativistic_wave_base(101)
    params = admissibility(base)
    osc, _ = oscillate_profile(base, 16, params, m=16)
    cells = evolve_cells(build_flow(osc, params.alpha, params.delta), 1.0)
    pts, period = cells.breaks, cells.period
    wound = 0
    for g in default_family(base.s0, base.s0 + base.period):
        if g.kind != "gaussian":
            continue
        g_lo, g_hi = g.support()
        images = _wind_range(pts[0], pts[-1], g_lo, g_hi, period)
        wound += len(images) > 1
        want = np.zeros(cells.m)
        for k in images:
            lo, hi = pts.searchsorted((g_lo - k * period, g_hi - k * period))
            a, b = max(int(lo) - 1, 0), min(int(hi) + 1, len(pts))
            want[a:b - 1] += np.diff(g.antiderivative(pts[a:b] + k * period))
        assert np.array_equal(_weights(cells, g).view(np.int64), want.view(np.int64)), g.label
    assert wound >= 4


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction.gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        TestFunction.indicator(2.0, 1.0)
    with pytest.raises(ValueError):
        TestFunction("box", 0.0, 1.0)
    # a NaN gaussian would fail later, in _wind_range, naming no parameter
    for make, p1, p2, bad in ((TestFunction.gaussian, 0.0, math.nan, "nan"),
                              (TestFunction.gaussian, 0.0, math.inf, "inf"),
                              (TestFunction.hat, 0.0, math.inf, "inf"),
                              (TestFunction.indicator, math.nan, 1.0, "nan")):
        with pytest.raises(ValueError, match=f"^{make.__name__} parameters must be finite; "
                                             f"got {bad}$"):
            make(p1, p2)


def test_default_family_composition():
    fam = default_family()
    kinds = [g.kind for g in fam]
    assert kinds.count("gaussian") == 8
    assert kinds.count("hat") == 8
    assert kinds.count("indicator") == 4


# -- pairings -----------------------------------------------------------------

def test_pairing_constant_observable():
    p = datasets.constant_profile(0.5, 0.0, [0.2, 0, 0], [0.1, 0, 0], n=512, rough=True)
    g = TestFunction.gaussian(0.4, 0.7)
    mat = pairing_matrix(p, g)  # (h, q, Y, Z) against g
    h, q, Y, Z = mat[0], mat[1], mat[2:5], mat[5:]
    assert h == pytest.approx(2.0 * g.normalization, abs=1e-8)
    assert q + g.normalization == pytest.approx(g.normalization, abs=1e-8)
    assert q - g.normalization == pytest.approx(-g.normalization, abs=1e-8)
    want = np.array([(0.2 - 0.1) / 0.5 * g.normalization, 0.0, 0.0])
    assert np.max(np.abs((Y - Z) - want)) < 1e-8


def test_pairing_matrix_uses_the_fields_own_period():
    # g's support crosses s0, so the pairing needs the periodic images; the
    # profile and its runs both take the field's period
    b = datasets.subrelativistic_wave_base(101)
    g = TestFunction.gaussian(b.s0 + 0.2, 0.5)
    mat = pairing_matrix(b, g)
    assert mat[0] == pytest.approx(1.7725, abs=1e-4)
    assert np.array_equal(pairing_matrix(b.runs(), g), mat)


def test_change_of_variables_identity():
    # integral of g h(t,.) ds equals the straightened length of the window
    base = datasets.subrelativistic_wave_base(cells=101)
    flow = build_flow(base)
    t, a_y, b_y = 0.7, -1.3, 2.1
    sa = float(_xi_only(flow, t, np.array([a_y]))[0])
    sb = float(_xi_only(flow, t, np.array([b_y]))[0])
    cells = evolve_cells(flow, t)
    val = pairing_matrix(cells, TestFunction.indicator(sa, sb))[0]
    assert val == pytest.approx(b_y - a_y, abs=1e-12)


def test_pairing_gap_decays_like_one_over_n():
    base = datasets.subrelativistic_wave_base(cells=101)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    g = TestFunction.gaussian(1.0, 0.8)
    ref = pairing_matrix(base, g)
    gaps, n_eff = [], []
    for n in (8, 16, 32, 64, 128):
        osc, plan = oscillate_profile(base, n, params, m=64)
        gaps.append(np.max(np.abs(pairing_matrix(osc, g) - ref)))
        n_eff.append(plan.n_eff)
    slope = -loglog_slope(n_eff, gaps)
    assert 0.8 <= slope <= 1.3
    assert max(g * n for g, n in zip(gaps, n_eff)) < 1.0  # C/n bound


# -- oscillation---------------------------------------------------------------

def test_oscillate_manifold_base_is_identity():
    base = datasets.rough_manifold_base(cells=101)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    runs, plan = oscillate_profile(base, 8, params, m=16)
    osc = plan.samples()
    # each base cell decomposes to itself, so the tiling repeats the base values
    # (up to one rounding from the block round-trip)
    k = osc.n // base.n
    assert np.max(np.abs(osc.tau.reshape(base.n, k) - base.tau[:, None])) == 0.0
    assert np.max(np.abs(osc.eta.reshape(base.n, k, 3) - base.eta[:, None, :])) < 1e-15
    assert plan.max_weight_quantization == 0.0
    # one run per base cell
    assert runs.m == base.n and np.array_equal(runs.states.tau, base.tau)


@pytest.mark.parametrize("layout", ["forward", "reversed"])
@pytest.mark.parametrize("base", [datasets.subrelativistic_wave_base(101),
                                  datasets.rough_hull_base(64, d=1),
                                  datasets.rough_manifold_base(101),
                                  datasets.constant_profile(0.5, 0.0, [0, 0, 0], [0, 0, 0], n=8,
                                                            rough=True)],
                         ids=["subrel_wave", "hull_d1", "manifold", "constant_hull"])
def test_oscillation_runs_are_the_runs_of_its_samples(base, layout):
    # the tiling is built as runs; sampled and compressed again it gives the
    # same breaks, states and period bit for bit
    for n, m in ((8, 16), (32, 64), (128, 64)):
        runs, plan = oscillate_profile(base, n, m=m, layout=layout)
        again = plan.samples().runs()
        assert runs.period == again.period and np.array_equal(runs.breaks, again.breaks)
        for f in ("tau", "v", "eta", "zeta"):
            assert np.array_equal(getattr(runs.states, f), getattr(again.states, f)), (n, f)
        # at most four runs per oscillation cell
        assert runs.m <= 4 * plan.cells


def test_oscillate_constant_hull_state_four_phase():
    base = datasets.constant_profile(0.5, 0.0, [0, 0, 0], [0, 0, 0], n=8, rough=True)
    params = ManifoldParams(alpha=0.0, delta=0.4)
    _, plan = oscillate_profile(base, 16, params, m=16)
    osc = plan.samples()
    mu = np.sqrt(0.75)
    # four equal phases per oscillation cell, in layout order
    cell = osc.n // plan.cells
    eta1 = osc.eta[:, 0].reshape(plan.cells, cell)
    zeta1 = osc.zeta[:, 0].reshape(plan.cells, cell)
    quarter = cell // 4
    assert np.allclose(eta1[:, :quarter], mu)
    assert np.allclose(zeta1[:, quarter:2 * quarter], -mu)
    assert np.allclose(zeta1[:, 2 * quarter:3 * quarter], mu)
    assert np.allclose(eta1[:, 3 * quarter:], -mu)
    assert np.all(osc.tau == 0.5) and np.all(osc.v == 0.0)
    # windowed averages recover the base T-coordinates
    obs = observable_matrix(osc.state()).reshape(plan.cells, cell, -1).mean(axis=1)
    base_obs = observable_matrix(base.state())
    assert np.max(np.abs(obs - base_obs[0])) < 1e-12


def test_oscillate_wave_limit_mirrors_relativistic_family():
    base = wave_to_augmented(oscillatory_limit_init(n=1024))
    base = Profile(base.s0, base.ds, base.tau, base.v, base.eta, base.zeta,
                   base.boundary, rough=True)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    _, plan = oscillate_profile(base, 16, params, m=16)
    U = plan.samples().state()
    assert np.all(in_m(U, 1e-10))
    assert np.all(in_g(U, win.alpha, win.delta, 1e-10))
    # the lift rides the second axis, echoing the transverse ripple mechanism
    assert np.max(np.abs(U.eta[:, 1])) > 0.1
    assert np.max(np.abs(base.eta[:, 1])) == 0.0


def test_oscillate_validation():
    base = datasets.rough_manifold_base(cells=32)
    with pytest.raises(ValueError):
        oscillate_profile(base, 1)
    p = datasets.smooth_manifold_profile(n=64, boundary="constant")
    with pytest.raises(ValueError):
        oscillate_profile(p, 8)
    # the weak-* layer takes cells: a smooth periodic hull profile is refused,
    # not interpolated and sampled
    smooth = datasets.smooth_hull_profile(n=64)
    with pytest.raises(ValueError, match="pass a CellField or a rough Profile"):
        oscillate_profile(smooth, 8)
    with pytest.raises(ValueError, match="pass a CellField or a rough Profile"):
        pairing_matrix(smooth, TestFunction.gaussian(0.0, 1.0))


def test_pairing_tables_match_per_function_pairings():
    # one observable matrix per field gives the per-g pairings
    rough = datasets.subrelativistic_wave_base(cells=101)
    fam = default_family(rough.s0, rough.s0 + rough.period)
    fields = {"cells": evolve_cells(build_flow(rough), 0.7), "rough": rough}
    tables = pairing_tables(fields, fam)
    for row, src in zip(tables, fields.values()):
        for g, got in zip(fam, row):
            assert np.max(np.abs(got - pairing_matrix(src, g))) < 1e-14
    # each periodic image sums g only over the cells covering its support;
    # the sum over every cell of every image is the same pairing
    cells = fields["cells"]
    full_sums = [(cells.breaks, cells.states),
                 (rough.s0 + rough.ds * np.arange(rough.n + 1), rough.state())]
    for row, (pts, states) in zip(tables, full_sums):
        obs = observable_matrix(states)
        for g, got in zip(fam, row):
            ref = sum(np.diff(g.antiderivative(pts + k * rough.period)) for k in range(-5, 6)) @ obs
            assert np.max(np.abs(got - ref)) < 1e-11, g.label


# -- distance, extrapolation, identities ---------------------------------------

def test_extrapolation_removes_linear_term():
    n = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    truth = np.array([[[2.0, -1.0]]])
    tables = truth + 3.0 / n[:, None, None, None] * np.ones((1, 1, 2))
    limit = extrapolate_tables(n, tables)
    assert np.max(np.abs(limit - truth[0])) < 1e-12


def test_identities_hold_for_exact_solution():
    # direct pairings of the exact evolution must satisfy the identities
    base = datasets.subrelativistic_wave_base(cells=101)
    flow = build_flow(base)
    fam = default_family(base.s0, base.s0 + base.period)
    times = [0.0, 0.8, 1.6]
    table = pairing_tables({t: evolve_cells(flow, t) for t in times}, fam)
    rep = verify_generalized_solution(table, flow, fam, times, tol=1e-8)
    assert rep["pass"]
    assert max(rep["residual_h"], rep["residual_q"], rep["residual_yz"]) < 1e-10


def test_identities_reject_a_perturbed_limit():
    base = datasets.subrelativistic_wave_base(cells=101)
    flow = build_flow(base)
    fam = default_family(base.s0, base.s0 + base.period)
    times = [0.0, 0.8]
    table = pairing_tables({t: evolve_cells(flow, t) for t in times}, fam)
    d = base.d
    bad = table.copy()
    bad[1, 0, 2 + d] += 1e-2          # Z_1 of a gaussian pairing
    rep = verify_generalized_solution(bad, flow, fam, times)
    assert not rep["pass"] and rep["residual_yz"] == pytest.approx(1e-2, rel=1e-6)
    bad = table.copy()
    bad[0, -1, 0] += 1e-2             # h of an indicator pairing
    assert verify_generalized_solution(bad, flow, fam, times)["pass"]
    rep = verify_generalized_solution(bad, flow, fam, times, continuous_only=False)
    assert not rep["pass"] and rep["residual_h"] == pytest.approx(1e-2, rel=1e-6)


def test_completion_identities_are_verify_generalized_solution():
    # the report's identities are residuals against the pairings of the
    # directly evolved limit, evolved and paired once; verify_generalized_solution
    # evolves and pairs the limit itself and gives the same residuals, and
    # levels tiled one by one by oscillate_profile give the report's gaps
    base = datasets.subrelativistic_wave_base(cells=101)
    n_list, times = [8, 16, 32], [0.0, 0.7, 1.9]
    fam = default_family(base.s0, base.s0 + base.period)
    report = completion_experiment(base, n_list, times, fam)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    tables, n_eff = [], []
    for n in n_list:
        osc, plan = oscillate_profile(base, n, params)
        flow = build_flow(osc, params.alpha, params.delta)
        tables.append(pairing_tables({t: evolve_cells(flow, t) for t in times}, fam))
        n_eff.append(plan.n_eff)
    tables = np.stack(tables)
    limit_table = extrapolate_tables(n_eff, tables)
    assert report["gaps"] == np.max(np.abs(tables - limit_table), axis=(1, 2, 3)).tolist()
    limit_flow = build_flow(plan.limit_profile(), params.alpha, params.delta)
    assert verify_generalized_solution(limit_table, limit_flow, fam, times, 1e-3) == \
        report["identities"]


def test_completion_experiment_flags():
    base = datasets.subrelativistic_wave_base(cells=101)
    rep = completion_experiment(base, [8, 16, 32, 64], [0.0, 1.0], m=32,
                                compare_layouts=True)
    assert rep["oscillated_all_in_M_cap_G"]
    assert rep["limit_in_CM_cap_G"] and not rep["limit_in_M"]
    assert rep["limit_is_nonrelativistic_generalized_string"]
    assert rep["identities"]["pass"]
    assert 0.7 <= rep["slope"] <= 1.4
    assert rep["layout_gap"] < 10.0 * rep["gaps"][-1]


def test_completion_working_set_does_not_grow_with_the_times():
    # each time's evolved field is paired and dropped before the next is
    # evolved, so twelve times cost about as much memory as two
    base = datasets.subrelativistic_wave_base(101)
    completion_experiment(base, [8, 16], [0.0], m=16)  # builds the erf table outside the trace

    def peak(n_times):
        tracemalloc.start()
        try:
            completion_experiment(base, [8, 16, 32], np.linspace(0.0, 2.0, n_times), m=16,
                                  compare_layouts=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) < 1.5 * peak(2)


def test_one_evolved_field_lives_at_a_time(monkeypatch):
    # every field that completion_experiment and verify_generalized_solution
    # evolve is freed before the next one is
    live = []

    def evolve_one(flow, t):
        assert all(ref() is None for ref in live), "an earlier evolved field is still held"
        cells = evolve_cells(flow, t)
        live.append(weakref.ref(cells))
        return cells

    monkeypatch.setattr("stringlab.weak.evolve_cells", evolve_one)
    base = datasets.subrelativistic_wave_base(101)
    times = [0.0, 0.7, 1.9]
    completion_experiment(base, [8, 16], times, m=16, compare_layouts=True)
    assert len(live) == 4 * len(times)
    flow = build_flow(base)
    fam = default_family(base.s0, base.s0 + base.period)
    table = np.stack([pairing_tables({t: evolve_cells(flow, t)}, fam)[0] for t in times])
    assert verify_generalized_solution(table, flow, fam, times)["pass"]
    assert len(live) == 5 * len(times)


def _pc_antiderivative(breaks, values):
    """Continuous antiderivative of cell values, evaluated anywhere (exact)."""
    inc = values * np.diff(breaks)[:, None]
    nodes = np.concatenate([np.zeros((1, values.shape[1])), np.cumsum(inc, axis=0)])

    def Q(s):
        k = np.clip(np.searchsorted(breaks, s, side="right") - 1, 0, len(values) - 1)
        return nodes[k] + (s - breaks[k])[:, None] * values[k]

    return Q


def test_strong_convergence_of_reconstructed_strings():
    # oscillated wave-base states keep tau = kappa, v = 0, so their string
    # graphs evaluate exactly through the two transported antiderivatives
    base = datasets.subrelativistic_wave_base(cells=101)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    kappa = 2.0 ** -0.5
    tt, ss = np.linspace(0.0, 2.0, 9), np.linspace(-np.pi, np.pi, 201)

    def x_field(prof):
        breaks = prof.s0 + prof.ds * np.arange(prof.n + 1)
        X0 = _pc_antiderivative(breaks, prof.eta / kappa)
        Q = _pc_antiderivative(breaks, -prof.zeta)

        def X(t, s):
            sp, sm = s + kappa * t, s - kappa * t
            ref = X0(np.zeros(1))  # X(0, 0) = 0 normalization
            return 0.5 * (X0(sp) + X0(sm)) + (Q(sp) - Q(sm)) / (2 * kappa) - ref

        return X

    X_lim = x_field(base)
    sups, n_eff = [], []
    for n in (8, 16, 32, 64):
        _, plan = oscillate_profile(base, n, params, m=32)
        X_n = x_field(plan.samples())
        worst = 0.0
        for t in tt:
            worst = max(worst, float(np.max(np.abs(X_n(t, ss) - X_lim(t, ss)))))
        sups.append(worst)
        n_eff.append(plan.n_eff)
    # uniform-on-compacts convergence at rate ~ 1/n
    assert all(sups[i] > sups[i + 1] for i in range(3))
    assert max(s * n for s, n in zip(sups, n_eff)) < 3.0
    slope = -loglog_slope(n_eff, sups)
    assert slope > 0.8


def test_oscillation_quantization_d1():
    base = datasets.rough_hull_base(cells=64, d=1)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    m = 32
    _, plan = oscillate_profile(base, 8, params, m=m)
    osc = plan.samples()
    # generic d = 1 weights quantize to within one sample of the exact split
    assert 0.0 < plan.max_weight_quantization <= 1.0 / m
    assert np.all(in_m(osc.state(), 1e-10))
    # the recorded limit profile matches the emitted proportions exactly
    limp = plan.limit_profile()
    k = osc.n // base.n
    tiled_eta = osc.eta.reshape(base.n, k, 1).mean(axis=1)
    assert np.max(np.abs(tiled_eta - limp.states.eta)) < 1e-12


def test_completion_manifold_base_is_trivial():
    base = datasets.rough_manifold_base(cells=101)
    rep = completion_experiment(base, [8, 16], [0.0, 1.0], m=16)
    # oscillation of manifold data is the data itself; the limit stays on M
    assert rep["limit_in_M"]
    assert not rep["limit_is_nonrelativistic_generalized_string"]
    assert max(rep["gaps"]) < 1e-10
    assert math.isfinite(rep["uniformity_ratio"])
    assert rep["identities"]["pass"]
