"""Acceptance gate: nine criteria, one test each, with pass/fail lines.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion report.
Every tolerance is fixed here; nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from stringlab import datasets
from stringlab.characteristics import (
    build_flow,
    galilean_on_solution,
    residual_augmented,
    solve_augmented,
    xi_wave_residual,
)
from stringlab.finite_volume import advance, from_profile
from stringlab.geometry import ManifoldParams, StateU, decompose_to_m_arrays, hamiltonian, in_g, in_m
from stringlab.waves import dalembert_wave_solve, oscillatory_family_init, oscillatory_limit_solution
from stringlab.weak import completion_experiment, loglog_slope

from _oracles import legendre_bruteforce, random_hull_states


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def completion_report():
    base = datasets.subrelativistic_wave_base(cells=101)
    t0 = time.perf_counter()
    rep = completion_experiment(base, [8, 16, 32, 64, 128],
                                [0.0, 0.5, 1.0, 1.5, 2.0], m=64)
    rep["_elapsed"] = time.perf_counter() - t0
    return rep


def test_criterion_1_constraint_propagation():
    t0 = time.perf_counter()
    profile = datasets.smooth_manifold_profile(n=4096, d=3)
    flow = build_flow(profile)
    worst_eq = worst_cross = 0.0
    for t in (-5.0, -1.0, 0.3, 1.0, 5.0):
        U = solve_augmented(flow, t).state()
        worst_eq = max(worst_eq, float(np.max(np.abs(U.sum_squares() - 1.0))))
        worst_cross = max(worst_cross, float(np.max(np.abs(U.cross()))))
    elapsed = time.perf_counter() - t0
    ok = worst_eq <= 1e-6 and worst_cross <= 1e-6 and elapsed < 10.0
    report(1, ok, f"manifold drift {worst_eq:.2e} / {worst_cross:.2e} "
                  f"(tol 1e-6) in {elapsed:.2f}s (< 10s)")


def test_criterion_2_wave_family_rates():
    t0 = time.perf_counter()
    tt = np.linspace(-2 * np.pi, 2 * np.pi, 513)
    ss = np.linspace(-2 * np.pi, 2 * np.pi, 513)
    sups = []
    for mode in (8, 16, 32, 64):
        init = oscillatory_family_init(mode)
        worst = 0.0
        for t in tt:
            g = dalembert_wave_solve(init, float(t), ss)
            lim = oscillatory_limit_solution(float(t), ss)
            worst = max(worst, float(np.max(np.linalg.norm(g.X - lim, axis=-1))))
        sups.append(worst)
    ratios = [sups[i] / sups[i + 1] for i in range(3)]
    elapsed = time.perf_counter() - t0
    ok = all(1.6 <= r <= 2.4 for r in ratios) and elapsed < 30.0
    report(2, ok, f"sup-error ratios {['%.3f' % r for r in ratios]} "
                  f"(band [1.6, 2.4]) in {elapsed:.2f}s (< 30s)")


def test_criterion_3_cross_solver_convergence():
    t0 = time.perf_counter()
    errs = []
    for n in (128, 256, 512, 1024):
        p = datasets.smooth_manifold_profile(n=n, d=3)
        st, _ = advance(from_profile(p), 1.0)
        exact = solve_augmented(p, 1.0).to_hqyz()
        errs.append(float((np.sum(np.abs(st.Y - exact.Y))
                           + np.sum(np.abs(st.Z - exact.Z))) * st.ds))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(3)]
    elapsed = time.perf_counter() - t0
    ok = all(o >= 0.8 for o in orders) and all(np.diff(errs) < 0) and elapsed < 60.0
    report(3, ok, f"L1 orders {['%.3f' % o for o in orders]} "
                  f"(>= 0.8 across three refinements) in {elapsed:.2f}s (< 60s)")


def test_criterion_4_weak_star_decay(completion_report):
    rep = completion_report
    ok = (0.8 <= rep["slope"] <= 1.3 and rep["uniformity_ratio"] < 3.0
          and rep["_elapsed"] < 120.0)
    report(4, ok, f"gap slope {rep['slope']:.3f} (band [0.8, 1.3]), "
                  f"time-uniformity ratio {rep['uniformity_ratio']:.2f} (< 3) "
                  f"in {rep['_elapsed']:.2f}s (< 120s)")


def test_criterion_5_generalized_solution_identities(completion_report):
    rep = completion_report
    ids = rep["identities"]
    res = max(ids["residual_h"], ids["residual_q"], ids["residual_yz"])
    ok = (ids["pass"] and res <= 1e-3
          and rep["limit_in_CM_cap_G"] and not rep["limit_in_M"]
          and rep["limit_is_nonrelativistic_generalized_string"]
          and rep["oscillated_all_in_M_cap_G"])
    report(5, ok, f"identity residuals h={ids['residual_h']:.2e} "
                  f"q={ids['residual_q']:.2e} YZ={ids['residual_yz']:.2e} (tol 1e-3); "
                  f"limit in CM cap G: {rep['limit_in_CM_cap_G']}, in M: {rep['limit_in_M']}")


def test_criterion_6_legendre_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        Y = rng.uniform(-1.5, 1.5, 3)
        Z = rng.uniform(-1.5, 1.5, 3)
        h, _ = hamiltonian(Y, Z)
        worst = max(worst, abs(h - legendre_bruteforce(Y, Z)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    report(6, ok, f"max |closed form - brute force| {worst:.2e} "
                  f"(tol 1e-4) in {elapsed:.2f}s (< 10s)")


def test_criterion_7_decomposition_exactness():
    rng = np.random.default_rng(7130)
    params = ManifoldParams(alpha=0.0, delta=0.4)
    U = random_hull_states(rng, 500, 0.0, 0.4, d=3)
    w, tau, v, eta, zeta = decompose_to_m_arrays(U, params)
    rec = max(
        float(np.max(np.abs(np.sum(w * tau, axis=1) - U.tau))),
        float(np.max(np.abs(np.sum(w * v, axis=1) - U.v))),
        float(np.max(np.abs(np.sum(w[..., None] * eta, axis=1) - U.eta))),
        float(np.max(np.abs(np.sum(w[..., None] * zeta, axis=1) - U.zeta))),
    )
    pts = StateU(tau, v, eta, zeta)
    member = (in_m(pts, 1e-12) & in_g(pts, 0.0, 0.4, 1e-12)) | (w <= 0.0)
    ok = rec < 1e-12 and bool(np.all(member))
    report(7, ok, f"recombination error {rec:.2e} (< 1e-12); "
                  f"all weighted points pass M cap G membership at 1e-12")


def test_criterion_8_galilean_invariance():
    p = datasets.smooth_manifold_profile(n=2048, d=3)
    flow = build_flow(p)
    dt = 2.0 * p.ds
    times = [0.7 - dt, 0.7, 0.7 + dt]
    r0 = residual_augmented([solve_augmented(flow, t) for t in times], dt)["max_abs"]
    shifted = galilean_on_solution(flow, 0.05, times, p.s_samples)
    r1 = residual_augmented(shifted, dt)["max_abs"]
    ok = r1 <= 2.0 * r0
    report(8, ok, f"boosted residual {r1:.3e} vs plain {r1 / r0:.2f}x of {r0:.3e} (<= 2x)")


def test_criterion_9_xi_wave_residual_order():
    ns = (512, 1024, 2048, 4096)
    res = []
    for n in ns:
        p = datasets.smooth_manifold_profile(n=n, d=3)
        flow = build_flow(p)
        res.append(xi_wave_residual(flow, [0.3, 0.7, 1.3],
                                    np.linspace(-2.0, 2.0, 41), 8.0 * p.period / n))
    slope = -loglog_slope(ns, res)
    ok = slope >= 1.9
    report(9, ok, f"wave-equation residual order {slope:.3f} (>= 1.9) "
                  f"across N = {list(ns)}")
