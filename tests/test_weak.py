import math

import numpy as np
import pytest

from stringlab import datasets
from stringlab.characteristics import _xi_only, admissibility, build_flow, evolve_cells
from stringlab.geometry import ManifoldParams, in_g, in_m
from stringlab.profiles import Profile
from stringlab.waves import oscillatory_limit_init, wave_to_augmented
from stringlab.weak import (
    TestFunction,
    completion_experiment,
    default_family,
    extrapolate_tables,
    loglog_slope,
    observable_matrix,
    oscillate_profile,
    pairing,
    pairing_matrix,
    pairing_tables,
    verify_generalized_solution,
    weak_distance,
)


# -- test functions -----------------------------------------------------------

def test_normalizations_match_quadrature():
    for g in (TestFunction.gaussian(0.3, 0.7), TestFunction.hat(-1.0, 1.3),
              TestFunction.indicator(-2.0, 1.5)):
        lo, hi = g.support(1e-18)
        grid = np.linspace(lo, hi, 400001)
        quad = np.trapezoid(np.abs(g(grid)), grid)
        assert abs(quad - g.normalization) < 1e-10


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


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction.gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        TestFunction.indicator(2.0, 1.0)
    with pytest.raises(ValueError):
        TestFunction("box", 0.0, 1.0)


def test_default_family_composition():
    fam = default_family()
    kinds = [g.kind for g in fam]
    assert kinds.count("gaussian") == 8
    assert kinds.count("hat") == 8
    assert kinds.count("indicator") == 4


# -- pairings -----------------------------------------------------------------

def test_pairing_constant_observable():
    p = datasets.constant_profile(0.5, 0.0, [0.2, 0, 0], [0.1, 0, 0], n=512)
    g = TestFunction.gaussian(0.4, 0.7)
    assert pairing(p, g, "h") == pytest.approx(2.0 * g.normalization, abs=1e-8)
    assert pairing(p, g, "q+1") == pytest.approx(g.normalization, abs=1e-8)
    assert pairing(p, g, "q-1") == pytest.approx(-g.normalization, abs=1e-8)
    Ym = pairing(p, g, "Y-Z")
    want = np.array([(0.2 - 0.1) / 0.5 * g.normalization, 0.0, 0.0])
    assert np.max(np.abs(Ym - want)) < 1e-8
    with pytest.raises(ValueError):
        pairing(p, g, "energy")


def test_pairing_smooth_vs_cells_consistency():
    # the same underlying state paired through both quadrature routes
    base = datasets.rough_manifold_base(cells=4096)
    smooth = datasets.smooth_manifold_profile(n=4096)
    g = TestFunction.gaussian(0.7, 0.8)
    a = pairing_matrix(base, g, base.period)
    b = pairing_matrix(smooth, g, smooth.period)
    assert np.max(np.abs(a - b)) < 1e-4  # cell-center vs node sampling


def test_change_of_variables_identity():
    # integral of g h(t,.) ds equals the straightened length of the window
    base = datasets.subrelativistic_wave_base(cells=101)
    flow = build_flow(base)
    t, a_y, b_y = 0.7, -1.3, 2.1
    sa = float(_xi_only(flow, t, np.array([a_y]))[0])
    sb = float(_xi_only(flow, t, np.array([b_y]))[0])
    cells = evolve_cells(flow, t)
    val = pairing(cells, TestFunction.indicator(sa, sb), "h", base.period)
    assert val == pytest.approx(b_y - a_y, abs=1e-12)


def test_pairing_gap_decays_like_one_over_n():
    base = datasets.subrelativistic_wave_base(cells=101)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=3)
    g = TestFunction.gaussian(1.0, 0.8)
    ref = pairing_matrix(base, g, base.period)
    gaps, n_eff = [], []
    for n in (8, 16, 32, 64, 128):
        osc, plan = oscillate_profile(base, n, params, m=64)
        gaps.append(np.max(np.abs(pairing_matrix(osc, g, base.period) - ref)))
        n_eff.append(plan.n_eff)
    slope = -loglog_slope(n_eff, gaps)
    assert 0.8 <= slope <= 1.3
    assert max(g * n for g, n in zip(gaps, n_eff)) < 1.0  # C/n bound


# -- oscillation---------------------------------------------------------------

def test_oscillate_manifold_base_is_identity():
    base = datasets.rough_manifold_base(cells=101)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=3)
    osc, plan = oscillate_profile(base, 8, params, m=16)
    # each base cell decomposes to itself, so the tiling repeats the base values
    # (up to one rounding from the block round-trip)
    k = osc.n // base.n
    assert np.max(np.abs(osc.tau.reshape(base.n, k) - base.tau[:, None])) == 0.0
    assert np.max(np.abs(osc.eta.reshape(base.n, k, 3) - base.eta[:, None, :])) < 1e-15
    assert plan.max_weight_quantization == 0.0


def test_oscillate_constant_hull_state_four_phase():
    base = datasets.constant_profile(0.5, 0.0, [0, 0, 0], [0, 0, 0], n=8, rough=True)
    params = ManifoldParams(alpha=0.0, delta=0.4, d=3)
    osc, plan = oscillate_profile(base, 16, params, m=16)
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
    params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=3)
    osc, plan = oscillate_profile(base, 16, params, m=16)
    U = osc.state()
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


def test_layout_order_does_not_move_the_limit():
    base = datasets.subrelativistic_wave_base(cells=101)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=3)
    g = TestFunction.gaussian(0.5, 0.9)
    ref = pairing_matrix(base, g, base.period)
    fwd, plan = oscillate_profile(base, 32, params, m=64, layout="forward")
    rev, _ = oscillate_profile(base, 32, params, m=64, layout="reversed")
    gap_f = np.max(np.abs(pairing_matrix(fwd, g, base.period) - ref))
    gap_r = np.max(np.abs(pairing_matrix(rev, g, base.period) - ref))
    assert gap_f < 4.0 / plan.n_eff and gap_r < 4.0 / plan.n_eff


def test_pairing_tables_match_per_function_pairings():
    # one observable matrix per field gives the per-g pairings; smooth
    # constant profiles keep the trapezoid rule
    rough = datasets.subrelativistic_wave_base(cells=101)
    fam = default_family(rough.s0, rough.s0 + rough.period)
    fields = {
        "cells": evolve_cells(build_flow(rough), 0.7),
        "rough": rough,
        "smooth_periodic": datasets.smooth_hull_profile(n=256),
        "smooth_constant": datasets.smooth_manifold_profile(n=256, boundary="constant"),
    }
    tables = pairing_tables(fields, fam, rough.period)
    for row, src in zip(tables, fields.values()):
        for g, got in zip(fam, row):
            assert np.max(np.abs(got - pairing_matrix(src, g, rough.period))) < 1e-14
    # each periodic image sums g only over the cells or samples covering its
    # support; the sum over every cell of every image is the same pairing
    cells, smooth = fields["cells"], fields["smooth_periodic"]

    def exact(g, x):
        return np.diff(g.antiderivative(x))

    full_sums = [(cells.breaks, cells.states, exact),
                 (rough.s0 + rough.ds * np.arange(rough.n + 1), rough.state(), exact),
                 (smooth.s_samples, smooth.state(), lambda g, x: smooth.ds * g(x))]
    for row, (pts, states, rule) in zip(tables, full_sums):
        obs = observable_matrix(states)
        for g, got in zip(fam, row):
            ref = sum(rule(g, pts + k * rough.period) for k in range(-5, 6)) @ obs
            assert np.max(np.abs(got - ref)) < 1e-11, g.label
    prof = fields["smooth_constant"]
    obs = observable_matrix(prof.state())
    for g, got in zip(fam, tables[-1]):
        ref = np.trapezoid(g(prof.s_samples)[:, None] * obs, dx=prof.ds, axis=0)
        assert np.max(np.abs(got - ref)) < 1e-14


# -- distance, extrapolation, identities ---------------------------------------

def test_weak_distance_identical_is_zero():
    base = datasets.subrelativistic_wave_base(cells=101)
    fam = default_family(base.s0, base.s0 + base.period)[:4]
    flow = build_flow(base)
    tab = pairing_tables({0.0: evolve_cells(flow, 0.0)}, fam, base.period)
    dist = weak_distance(tab, tab)
    assert dist["max"] == 0.0


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
    table = pairing_tables({t: evolve_cells(flow, t) for t in times}, fam, base.period)
    rep = verify_generalized_solution(table, flow, fam, times, tol=1e-8)
    assert rep["pass"]
    assert max(rep["residual_h"], rep["residual_q"], rep["residual_yz"]) < 1e-10


def test_identities_reject_a_perturbed_limit():
    base = datasets.subrelativistic_wave_base(cells=101)
    flow = build_flow(base)
    fam = default_family(base.s0, base.s0 + base.period)
    times = [0.0, 0.8]
    table = pairing_tables({t: evolve_cells(flow, t) for t in times}, fam, base.period)
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
    params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=3)
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
        osc, plan = oscillate_profile(base, n, params, m=32)
        X_n = x_field(osc)
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
    params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=1)
    m = 32
    osc, plan = oscillate_profile(base, 8, params, m=m)
    # generic d = 1 weights quantize to within one sample of the exact split
    assert 0.0 < plan.max_weight_quantization <= 1.0 / m
    assert np.all(in_m(osc.state(), 1e-10))
    # the recorded limit profile matches the emitted proportions exactly
    limp = plan.limit_profile()
    k = osc.n // base.n
    tiled_eta = osc.eta.reshape(base.n, k, 1).mean(axis=1)
    assert np.max(np.abs(tiled_eta - limp.eta)) < 1e-12


def test_completion_manifold_base_is_trivial():
    base = datasets.rough_manifold_base(cells=101)
    rep = completion_experiment(base, [8, 16], [0.0, 1.0], m=16)
    # oscillation of manifold data is the data itself; the limit stays on M
    assert rep["limit_in_M"]
    assert not rep["limit_is_nonrelativistic_generalized_string"]
    assert max(rep["gaps"]) < 1e-10
    assert math.isfinite(rep["uniformity_ratio"])
    assert rep["identities"]["pass"]
