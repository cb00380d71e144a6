import dataclasses
import math

import numpy as np
import pytest

from stringlab import datasets
from stringlab.characteristics import (
    InadmissibleDataError,
    _state_from_feet,
    _xi_only,
    admissibility,
    build_flow,
    evolve_cells,
    evolve_states,
    galilean_on_solution,
    reconstruct_string,
    residual_augmented,
    residual_string,
    solve_augmented,
    tau_slope_consistency,
    xi_evaluate,
    xi_time_inverse,
    xi_wave_residual,
)
from stringlab.geometry import DomainError, in_cm, in_g, in_m
from stringlab.profiles import CellField, Profile, cubic_interp
from stringlab.waves import dalembert_wave_solve, oscillatory_family_init, wave_to_augmented
from stringlab.weak import _weights, default_family, observable_matrix, oscillate_profile, pairing_tables

KAPPA = 2.0 ** -0.5


# -- admissibility ------------------------------------------------------------

def test_admissibility_constant_wave_state():
    p = datasets.constant_profile(KAPPA, 0.0, [0.1, 0, 0], [0, 0, 0])
    win = admissibility(p)
    assert win.alpha == pytest.approx(0.0, abs=1e-15)
    assert win.delta == pytest.approx(KAPPA, abs=1e-15)  # min(kappa, 1/kappa)


def test_admissibility_rejects_with_pair():
    n = 64
    tau = np.full(n, 0.3)
    v = np.zeros(n)
    v[10] = 0.45   # v - tau = 0.15 here
    v[40] = -0.26  # v + tau = 0.04 there
    p = Profile(-np.pi, 2 * np.pi / n, tau, v, np.zeros((n, 3)), np.zeros((n, 3)))
    with pytest.raises(InadmissibleDataError) as err:
        admissibility(p)
    assert err.value.pair == (10, 40)
    assert "v - tau" in str(err.value) and "v + tau" in str(err.value)


def test_admissibility_nonpositive_tau():
    p = datasets.constant_profile(0.5, 0.0, [0, 0, 0], [0, 0, 0])
    p.tau[3] = -0.1
    with pytest.raises(InadmissibleDataError):
        admissibility(p)


def test_admissibility_window_contains_data():
    p = datasets.smooth_manifold_profile(n=512)
    win = admissibility(p)
    assert win.delta > 0.0
    assert np.all(in_g(p.state(), win.alpha, win.delta, 1e-12))
    # data lying in G_{0, 0.52} by construction is accepted with at least that
    # slack; alpha is optimal only up to where the grid samples the extremes
    assert abs(win.alpha) < 1e-4
    assert win.delta >= 0.52 - 1e-9


def test_admissibility_rejects_nonfinite():
    p = datasets.constant_profile(0.5, 0.0, [0, 0, 0], [0, 0, 0])
    p.tau[3] = np.nan
    with pytest.raises(InadmissibleDataError, match=r"tau\[3\]") as err:
        admissibility(p)
    assert err.value.pair == (3, 3)


# -- flow construction --------------------------------------------------------

def test_flow_constant_state_is_linear():
    p = datasets.constant_profile(0.6, 0.0, [0.2, 0, 0], [0, 0.1, 0])
    flow = build_flow(p)
    y = np.array([-7.3, -1.0, 0.0, 0.4, 11.8])
    assert np.max(np.abs(flow.xi0(y) - 0.6 * y)) < 1e-12
    assert np.max(np.abs(flow.xi0_inverse(0.6 * y) - y)) < 1e-11


def test_flow_wave_state_is_linear():
    prof = wave_to_augmented(oscillatory_family_init(3, n=1024))
    flow = build_flow(prof)
    y = np.linspace(-9.0, 9.0, 41)
    # linear ODE solution, up to accumulated summation roundoff
    assert np.max(np.abs(flow.xi0(y) - KAPPA * y)) < 1e-11


def test_flow_ode_residual_at_knot_midpoints():
    # between the knots the Hermite table still solves dy xi0 = tau(xi0)
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    y_mid = 0.5 * (flow.y_edges[1:] + flow.y_edges[:-1])
    target = cubic_interp(p.s0, p.ds, p.tau, flow.xi0(y_mid), p.boundary)
    assert np.max(np.abs(flow.xi0(y_mid, deriv=True) - target)) < 1e-10


def test_flow_quadrature_fourth_order_against_closed_form():
    # tau = a + b cos s: y(s) = 2/c atan(sqrt((a-b)/(a+b)) tan(s/2)), c = sqrt(a^2-b^2)
    a, b = 1.0, 0.4
    c = np.sqrt(a * a - b * b)
    errs = []
    for n in (128, 256, 512, 1024):
        ds = 2 * np.pi / n
        s = -np.pi + ds * np.arange(n)
        flow = build_flow(Profile(-np.pi, ds, a + b * np.cos(s), np.zeros(n),
                                  np.zeros((n, 1)), np.zeros((n, 1))))
        assert abs(flow.y_period - 2 * np.pi / c) < 1e-12
        inner = np.abs(flow.xi_nodes) < 3.0
        exact = 2 / c * np.arctan(np.sqrt((a - b) / (a + b)) * np.tan(flow.xi_nodes[inner] / 2))
        errs.append(np.max(np.abs(flow.y_edges[inner] - exact)))
    assert min(errs[i] / errs[i + 1] for i in range(3)) >= 12.0


def test_flow_rejects_smooth_table_not_certified_monotone():
    # admissible, but tau alternating 0.05 / 0.95 is far too rough for n = 64:
    # its knot Hermite table would fold back between the knots
    n = 64
    ds = 4 * np.pi / n
    tau = np.where(np.arange(n) % 2 == 0, 0.05, 0.95)
    args = (-2 * np.pi, ds, tau, np.zeros(n), np.zeros((n, 1)), np.zeros((n, 1)))
    with pytest.raises(DomainError, match=r"monotone on s in \[.*rough=True"):
        build_flow(Profile(*args))
    assert build_flow(Profile(*args, rough=True)).mode == "pc"


def test_flow_normalization_and_slope_bounds():
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    assert abs(flow.xi0(np.zeros(1))[0]) < 1e-15
    assert abs(flow.phi0(np.zeros(1))[0]) < 1e-15
    y = np.linspace(-12.0, 12.0, 501)
    for t in (-2.0, 0.0, 0.7, 3.0):
        _, _, dxi_dy = xi_evaluate(flow, t, y)
        assert np.min(dxi_dy) >= flow.delta - 1e-10
        assert np.max(dxi_dy) <= 1.0 / flow.delta + 1e-10


def test_flow_requires_grid_containing_zero():
    p = datasets.smooth_manifold_profile(n=256, s0=10.0)
    with pytest.raises(DomainError):
        build_flow(p)


def test_one_sample_profiles():
    # a smooth constant-boundary sample has no knot interval; a rough cell or a
    # periodic smooth sample closes its own table
    eta, zeta = np.full((1, 1), 0.1), np.zeros((1, 1))
    one = np.array([0.7]), np.array([0.1])
    with pytest.raises(DomainError, match=r"n = 1 at s0 = 0"):
        build_flow(Profile(0.0, 0.5, *one, eta, zeta, "constant", rough=False))
    for boundary, rough in (("constant", True), ("periodic", False), ("periodic", True)):
        prof = Profile(-0.25, 0.5, *one, eta, zeta, boundary, rough=rough)
        U = evolve_states(build_flow(prof), 0.8, np.array([0.0, 0.2]))
        assert np.allclose(U.tau, 0.7, atol=1e-12) and np.allclose(U.v, 0.1, atol=1e-12)


# -- xi evaluation ------------------------------------------------------------

def test_xi_constant_state_closed_form():
    p = datasets.constant_profile(0.55, 0.12, [0.2, 0, 0], [0, 0, 0])
    flow = build_flow(p)
    y = np.linspace(-4.0, 4.0, 17)
    for t in (-2.3, 0.0, 1.6):
        xi, dxi_dt, dxi_dy = xi_evaluate(flow, t, y)
        assert np.max(np.abs(xi - (0.55 * y + 0.12 * t))) < 1e-12
        assert np.max(np.abs(dxi_dt - 0.12)) < 1e-12
        assert np.max(np.abs(dxi_dy - 0.55)) < 1e-12


def test_xi_at_time_zero():
    p = datasets.smooth_manifold_profile(n=512)
    flow = build_flow(p)
    y = np.linspace(-3.0, 3.0, 33)
    xi, _, dxi_dy = xi_evaluate(flow, 0.0, y)
    assert np.max(np.abs(xi - flow.xi0(y))) < 1e-13
    U = p.fields_at(flow.xi0(y))
    assert np.max(np.abs(dxi_dy - U.tau)) < 5e-9


def test_xi_wave_residual_refinement_order():
    res = []
    ns = (512, 1024, 2048)
    for n in ns:
        p = datasets.smooth_manifold_profile(n=n)
        flow = build_flow(p)
        res.append(xi_wave_residual(flow, [0.3, 0.9], np.linspace(-2, 2, 31),
                                    8.0 * p.period / n))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_xi_derivative_consistency():
    # packet route for dt xi against finite differences of the table route
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    y = np.linspace(-2.0, 2.0, 21)
    eps = 1e-5
    for t in (0.4, -1.1):
        xi_p, dxi_dt, _ = xi_evaluate(flow, t, y)
        xi_a, _, _ = xi_evaluate(flow, t + eps, y)
        xi_b, _, _ = xi_evaluate(flow, t - eps, y)
        assert np.max(np.abs((xi_a - xi_b) / (2 * eps) - dxi_dt)) < 1e-7


@pytest.mark.parametrize("t, s, where", [
    (np.nan, [0.0, 1.0], r"t = nan"),
    (np.inf, [0.0, 1.0], r"t = inf"),
    (0.5, [0.0, np.nan, 1.0], r"s_points\[1\] = nan"),
])
def test_evolve_states_rejects_nonfinite_input(t, s, where):
    flow = build_flow(datasets.smooth_manifold_profile(n=256))
    with pytest.raises(ValueError, match=where):
        evolve_states(flow, t, np.array(s))
    with pytest.raises(ValueError, match=where.replace("s_points", "s")):
        xi_time_inverse(flow, t, np.array(s))


def test_xi_time_inverse_tolerance():
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    s = np.linspace(-5.0, 5.0, 101)
    for t in (-1.2, 0.8):
        y = xi_time_inverse(flow, t, s)
        xi, _, _ = xi_evaluate(flow, t, y)
        assert np.max(np.abs(xi - s)) < 1e-11


@pytest.mark.parametrize("rough", [False, True])
def test_xi_time_inverse_array_t_matches_scalar_calls(rough):
    if rough:
        flow = build_flow(datasets.rough_manifold_base(cells=101))
    else:
        flow = build_flow(datasets.smooth_manifold_profile(n=1024))
    t = np.array([-3.7, -0.4, 0.0, 0.9, 6.1])
    s = np.linspace(-5.0, 5.0, 41)
    loop = np.stack([xi_time_inverse(flow, tk, s) for tk in t])
    assert np.max(np.abs(xi_time_inverse(flow, t[:, None], s) - loop)) < 1e-12
    s_k = s[::10]  # one position per time, elementwise
    one_each = np.array([xi_time_inverse(flow, tk, sk) for tk, sk in zip(t, s_k)])
    assert np.max(np.abs(xi_time_inverse(flow, t, s_k) - one_each)) < 1e-12


# -- solving ------------------------------------------------------------------

def test_solve_constant_state():
    p = datasets.constant_profile(0.6, 0.1, [0.3, 0, 0], [0.2, 0.1, 0])
    flow = build_flow(p)
    for t in (-5.0, 0.0, 2.5):
        sol = solve_augmented(flow, t)
        assert np.max(np.abs(sol.tau - 0.6)) < 1e-14
        assert np.max(np.abs(sol.v - 0.1)) < 1e-14
        assert np.max(np.abs(sol.eta - [0.3, 0, 0])) < 1e-14
        assert np.max(np.abs(sol.zeta - [0.2, 0.1, 0])) < 1e-14


@pytest.mark.parametrize("d", [1, 3])
def test_solve_preserves_manifold(d):
    p = datasets.smooth_manifold_profile(n=2048, d=d)
    flow = build_flow(p)
    for t in (-5.0, -1.0, 0.3, 1.0, 5.0):
        U = solve_augmented(flow, t).state()
        assert np.max(np.abs(U.sum_squares() - 1.0)) < 1e-6
        assert np.max(np.abs(U.cross())) < 1e-6


def test_solve_preserves_single_branch_sphere():
    # data on one branch sphere only (the other strictly inside) stays there
    from stringlab.geometry import in_m_eps, state_from_blocks

    n, d = 1024, 3
    s0, period = -2 * np.pi, 4 * np.pi
    ds = period / n
    s = s0 + ds * np.arange(n)
    a_p = 0.62 + 0.1 * np.sin(s)
    a_m = -0.62 + 0.1 * np.sin(s + 2.0)
    u1 = np.stack([np.cos(0.25 * np.sin(s)), np.sin(0.25 * np.sin(s)), 0 * s], axis=1)
    c_p = np.sqrt(1.0 - a_p**2)[:, None] * u1            # on the + sphere
    c_m = 0.7 * np.sqrt(1.0 - a_m**2)[:, None] * u1      # strictly inside
    U0 = state_from_blocks(a_p, a_m, c_p, c_m)
    p = Profile.from_state(s0, ds, U0, "periodic")
    flow = build_flow(p)
    for t in (-1.5, 0.8):
        U = solve_augmented(flow, t).state()
        assert np.all(in_m_eps(U, 1, 1e-6))
        assert not np.all(in_m_eps(U, -1, 1e-6))


def test_solve_preserves_hull_window():
    p = datasets.smooth_hull_profile(n=2048)
    flow = build_flow(p)
    for t in (-2.0, 0.5, 3.0):
        U = solve_augmented(flow, t).state()
        assert np.all(in_cm(U, 1e-8 + 1e-6))
        assert np.all(in_g(U, flow.alpha, flow.delta, 1e-8 + 1e-6))


def test_solve_matches_wave_solution():
    init = oscillatory_family_init(2, n=16384)
    prof = wave_to_augmented(init)
    flow = build_flow(prof)
    s_pts = np.linspace(-np.pi, np.pi, 257)
    times = np.linspace(-np.pi, np.pi, 17)
    graphs = reconstruct_string(flow, times, s_pts)
    worst = 0.0
    for g in graphs:
        ref = dalembert_wave_solve(init, g.t, s_pts)
        worst = max(worst, float(np.max(np.abs(g.X - ref.X))))
    assert worst < 1e-6


def test_solve_semigroup_property():
    p = datasets.smooth_manifold_profile(n=2048)
    flow = build_flow(p)
    t1, t2 = 0.6, 0.9
    mid = solve_augmented(flow, t1)
    two_step = solve_augmented(build_flow(mid), t2)
    direct = solve_augmented(flow, t1 + t2)
    dev = max(np.max(np.abs(two_step.tau - direct.tau)), np.max(np.abs(two_step.v - direct.v)),
              np.max(np.abs(two_step.eta - direct.eta)), np.max(np.abs(two_step.zeta - direct.zeta)))
    pk = np.concatenate([(p.v + p.tau)[:, None], (p.v - p.tau)[:, None],
                         p.eta - p.zeta, p.eta + p.zeta], axis=1)
    curv = np.max(np.abs(np.diff(pk, 2, axis=0))) / p.ds**2
    assert dev <= 10 * (p.ds**2 * curv / 8.0)


@pytest.mark.parametrize("rough", [False, True])
def test_solve_global_in_time(rough):
    # alpha != 0 gives the data a mean velocity, so Phi_p != 0
    p = (datasets.rough_manifold_base(cells=101, alpha=0.2) if rough
         else datasets.smooth_manifold_profile(n=512, alpha=0.2))
    flow = build_flow(p)
    for t in (1e9, -1e9):
        U = solve_augmented(flow, t).state()
        assert np.max(np.abs(U.sum_squares() - 1.0)) < 1e-6
        assert np.max(np.abs(U.cross())) < 1e-6


@pytest.mark.parametrize("rough", [False, True])
def test_periodic_time_reduction_matches_direct_evaluation(rough):
    # U(m Y_p + r, s) = U(r, s - m Phi_p) is exact; at moderate |t| the
    # direct inversion is still accurate, so the two routes agree closely
    flow = build_flow(datasets.rough_manifold_base(cells=101, alpha=0.2) if rough
                      else datasets.smooth_manifold_profile(n=1024, alpha=0.2))
    assert abs(flow.phi_period) > 1.0
    s = np.linspace(-6.0, 6.0, 97)
    for t in (2.5 * flow.y_period, -3.4 * flow.y_period, 1e3):
        y = xi_time_inverse(flow, t, s)
        ap, _, cp, _ = flow.invariants_at(y + t)
        _, am, _, cm = flow.invariants_at(y - t)
        U = evolve_states(flow, t, s)
        assert np.max(np.abs(U.tau - 0.5 * (ap - am))) < 1e-10
        assert np.max(np.abs(U.v - 0.5 * (ap + am))) < 1e-10
        assert np.max(np.abs(U.eta - 0.5 * (cp + cm))) < 1e-10
        assert np.max(np.abs(U.zeta - 0.5 * (cm - cp))) < 1e-10


def test_evolve_cells_reduces_periodic_time():
    # evolve_cells at t = m Y_p + r evolves to r and shifts by m Phi_p; at
    # moderate m the unreduced d'Alembert breakpoints are still accurate, so
    # both routes list the same cells (from different starts in the period)
    flow = build_flow(datasets.rough_manifold_base(cells=101, alpha=0.2))
    S = flow.s_period

    def wrap(x):
        return x - S * np.round(x / S)

    b = flow.y_edges
    for t in (2 * flow.y_period + 0.3, -3 * flow.y_period - 1.1):
        pts = np.unique(flow._wind(np.concatenate([b[:-1] - t, b[:-1] + t]))[0])
        y = np.append(pts, pts[0] + flow.y_period)
        direct = _xi_only(flow, t, y)
        want = _state_from_feet(flow, 0.5 * (y[:-1] + y[1:]), t)
        cells = evolve_cells(flow, t)
        assert cells.m == len(y) - 1
        k = int(np.argmin(np.abs(wrap(cells.breaks[:-1] - direct[0]))))
        assert np.max(np.abs(wrap(np.roll(cells.breaks[:-1], -k) - direct[:-1]))) < 1e-10
        for f in ("tau", "v", "eta", "zeta"):
            assert np.array_equal(np.roll(getattr(cells.states, f), -k, axis=0),
                                  getattr(want, f)), (t, f)


def test_rough_reduction_matches_evolved_cells_at_large_time():
    # evolve_cells builds the cells from y +- r independently of the
    # inversion; its breakpoints are reduced like evolve_states' positions,
    # so points 1e-9 inside either end of every cell take that cell's state
    # (unreduced, the breakpoints at |t| = 1e9 are good to only about 1e-7)
    flow = build_flow(datasets.rough_manifold_base(cells=101, alpha=0.2))
    for t in (1e9, -1e9):
        cells = evolve_cells(flow, t)
        b = cells.breaks
        wide = np.flatnonzero(np.diff(b) > 1e-8)
        assert len(wide) > 190
        for s in (b[wide] + 1e-9, b[wide + 1] - 1e-9):
            U = evolve_states(flow, t, s)
            want = cells.states
            for got, ref in ((U.tau, want.tau), (U.v, want.v), (U.eta, want.eta),
                             (U.zeta, want.zeta)):
                assert np.max(np.abs(got - ref[wide])) < 1e-12


def test_finite_propagation_exact_tails():
    n, d = 512, 3
    s0, period = -2 * np.pi, 4 * np.pi
    ds = period / n
    s = s0 + ds * np.arange(n)
    bump = np.exp(-8.0 * s**2) * (np.abs(s) < 2.0)
    p = Profile(s0, ds, 0.6 + 0.05 * bump, 0.03 * bump,
                np.stack([0.2 * bump, 0 * s, 0 * s], axis=1), np.zeros((n, d)), "constant")
    flow = build_flow(p)
    c_max = float(np.max(np.abs(p.v) + p.tau))
    for t in (0.8, 1.9):
        far = np.array([2.0 + c_max * t + 0.3, -2.0 - c_max * t - 0.3])
        U = evolve_states(flow, t, far)
        assert np.max(np.abs(U.tau - 0.6)) < 1e-13
        assert np.max(np.abs(U.v)) < 1e-13
        assert np.max(np.abs(U.eta)) < 1e-13
        assert np.max(np.abs(U.zeta)) < 1e-13


def test_tau_slope_cross_check():
    p = datasets.smooth_manifold_profile(n=2048)
    flow = build_flow(p)
    assert tau_slope_consistency(flow, 0.7, p.s_samples) < 5e-4


def test_rough_flow_exact_transport():
    base = datasets.rough_manifold_base(cells=101)
    flow = build_flow(base)
    assert flow.mode == "pc"
    for t in (0.4, 1.7):
        cells = evolve_cells(flow, t)
        U = cells.states
        # exactly on the manifold: transport is exact for cell data
        assert np.max(np.abs(U.sum_squares() - 1.0)) < 1e-12
        assert np.max(np.abs(U.cross())) < 1e-12
        # uniform-grid sampling agrees with the exact cell representation
        mids = 0.5 * (cells.breaks[:-1] + cells.breaks[1:])
        S = evolve_states(flow, t, mids)
        assert np.max(np.abs(S.tau - U.tau)) == 0.0
        assert np.max(np.abs(S.eta - U.eta)) == 0.0


def test_rough_flow_far_times_and_negative_times():
    base = datasets.rough_manifold_base(cells=101)
    flow = build_flow(base)
    from stringlab.characteristics import _xi_only

    for t in (-25.0, 37.7):  # several straightened periods away
        cells = evolve_cells(flow, t)
        U = cells.states
        assert np.max(np.abs(U.sum_squares() - 1.0)) < 1e-11
        assert np.max(np.abs(U.cross())) < 1e-11
        assert np.all(np.diff(cells.breaks) >= 0.0)
        # straightened-window length is preserved exactly
        a_y, b_y = -0.8, 1.9
        sa = float(_xi_only(flow, t, np.array([a_y]))[0])
        sb = float(_xi_only(flow, t, np.array([b_y]))[0])
        from stringlab.weak import TestFunction, pairing

        val = pairing(cells, TestFunction.indicator(sa, sb), "h", base.period)
        assert val == pytest.approx(b_y - a_y, abs=1e-10)


def test_xi0_inverse_across_periods():
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    y = np.linspace(-40.0, 40.0, 257)  # spans multiple straightened periods
    back = flow.xi0_inverse(flow.xi0(y))
    assert np.max(np.abs(back - y)) < 1e-9


def test_rough_tables_knot_at_the_data_jumps():
    # an oscillated tiling holds at most four equal-state runs per oscillation
    # cell: one table cell per run, knots at the run edges only
    osc, _ = oscillate_profile(datasets.subrelativistic_wave_base(101), 32, m=64)
    flow = build_flow(osc)
    data = np.column_stack([osc.tau, osc.v, osc.eta, osc.zeta])
    edges = np.flatnonzero(np.r_[True, np.any(data[1:] != data[:-1], axis=1), True])
    runs = len(edges) - 1
    assert len(flow.y_edges) == runs + 1 and 8 * runs < osc.n
    # a twin whose eta differs at every sample keeps tau and v, so its
    # per-sample table holds the same cumulative sums at every sample edge
    twin = dataclasses.replace(osc, eta=osc.eta + 1e-3 * np.arange(osc.n)[:, None])
    full = build_flow(twin, flow.alpha, flow.delta)
    assert len(full.y_edges) == osc.n + 1
    for f in ("y_edges", "xi_nodes", "phi_nodes"):
        assert np.array_equal(getattr(flow, f), getattr(full, f)[edges]), f
    for f in ("xi_slopes", "phi_slopes"):
        assert np.array_equal(getattr(flow, f), getattr(full, f)[edges[:-1]]), f
    for t in (0.5, -25.0, 37.7):
        cells = evolve_cells(flow, t)
        U = evolve_states(flow, t, 0.5 * (cells.breaks[:-1] + cells.breaks[1:]))
        for f in ("tau", "v", "eta", "zeta"):
            assert np.array_equal(getattr(U, f), getattr(cells.states, f)), (t, f)
    # the run cells pair like one cell per sample; the per-sample sums are
    # taken exactly, since a mat-vec over its 25,856 cells rounds to ~2e-12
    fam = default_family(osc.s0, osc.s0 + osc.period)
    got = pairing_tables({0.0: evolve_cells(flow, 0.0)}, fam, osc.period)[0]
    per_sample = CellField(osc.s0 + osc.ds * np.arange(osc.n + 1), osc.state())
    obs = observable_matrix(per_sample.states)
    for g, row in zip(fam, got):
        terms = _weights(per_sample, g, osc.period)[:, None] * obs
        assert np.max(np.abs(row - [math.fsum(col) for col in terms.T])) < 1e-13, g.label


def test_rough_tables_without_runs_knot_every_sample():
    base = datasets.rough_manifold_base(101)
    flow = build_flow(base)
    assert len(flow.y_edges) == base.n + 1
    assert np.array_equal(flow.xi_nodes, base.s0 + base.ds * np.arange(base.n + 1))
    assert np.array_equal(flow.xi_slopes, base.tau) and np.array_equal(flow.phi_slopes, base.v)
    assert np.array_equal(flow.pk_values[:, 2:5], base.eta - base.zeta)


@pytest.mark.parametrize("base", [datasets.rough_manifold_base(101),
                                  datasets.subrelativistic_wave_base(101),
                                  datasets.rough_hull_base(64, d=1)],
                         ids=["manifold", "subrel_wave", "hull_d1"])
def test_evolved_cells_follow_straightening_map(base):
    # on every evolved cell the breakpoints' preimages under xi(t, .) are
    # spaced by ds / tau: the cell's state and its place agree
    flow = build_flow(base)
    for t in (0.0, 0.5, 2.0, -25.0, 37.7):
        cells = evolve_cells(flow, t)
        y = xi_time_inverse(flow, t, cells.breaks)
        slope = np.diff(cells.breaks) / np.diff(y)
        assert np.max(np.abs(slope - cells.states.tau)) < 1e-11, t


def test_evolve_cells_requires_rough():
    p = datasets.smooth_manifold_profile(n=256)
    with pytest.raises(DomainError):
        evolve_cells(build_flow(p), 0.5)


# -- reconstruction and residuals ----------------------------------------------

def test_reconstruct_constant_state_affine():
    p = datasets.constant_profile(0.6, 0.1, [0.3, 0, 0], [0.2, 0.1, 0])
    flow = build_flow(p)
    s_pts = np.linspace(-2.0, 2.0, 33)
    g0, g1 = reconstruct_string(flow, [0.0, 1.0], s_pts)
    assert np.max(np.abs(np.diff(g0.X, 2, axis=0))) < 1e-13   # linear in s
    step = (g1.X - g0.X)
    assert np.max(np.abs(step - step[0])) < 1e-13             # linear in t
    i0 = np.argmin(np.abs(s_pts))
    assert np.max(np.abs(g0.X[i0])) < 1e-13                   # X(0,0) = 0


def test_reconstruct_path_independence():
    p = datasets.smooth_manifold_profile(n=2048)
    flow = build_flow(p)
    s_pts = np.linspace(-np.pi, np.pi, 1025)
    (g,) = reconstruct_string(flow, [0.6], s_pts)
    dXds_fd = np.gradient(g.X, g.ds, axis=0)
    dev = np.max(np.abs(dXds_fd[2:-2] - g.dXds[2:-2]))
    assert dev < 30.0 * g.ds**2


def test_reconstruct_degenerate_guard():
    p = datasets.smooth_manifold_profile(n=256)
    flow = build_flow(p)
    inflated = dataclasses.replace(flow, delta=3.0 * float(np.max(p.tau)))
    with pytest.raises(DomainError):
        reconstruct_string(inflated, [0.0], np.linspace(-1, 1, 17))


def test_residual_string_constant_is_zero():
    p = datasets.constant_profile(0.6, 0.1, [0.3, 0, 0], [0.2, 0.1, 0])
    flow = build_flow(p)
    dt = 0.02
    graphs = reconstruct_string(flow, [0.5 - dt, 0.5, 0.5 + dt], np.linspace(-2, 2, 33))
    assert np.max(np.abs(residual_string(graphs, dt))) < 1e-12


def test_residual_augmented_constant_is_zero():
    p = datasets.constant_profile(0.6, 0.1, [0.3, 0, 0], [0.2, 0.1, 0])
    flow = build_flow(p)
    dt = 0.01
    stack = [solve_augmented(flow, t) for t in (0.5 - dt, 0.5, 0.5 + dt)]
    assert residual_augmented(stack, dt)["max_abs"] < 1e-12


def test_residual_augmented_refinement_order():
    res = []
    ns = (512, 1024, 2048, 4096)
    for n in ns:
        p = datasets.smooth_manifold_profile(n=n)
        flow = build_flow(p)
        dt = 2.0 * p.ds  # truncation-dominated stencil
        stack = [solve_augmented(flow, t) for t in (0.7 - dt, 0.7, 0.7 + dt)]
        res.append(residual_augmented(stack, dt)["max_abs"])
    slope = np.polyfit(np.log(ns), np.log(res), 1)[0]
    assert -slope >= 1.9


def test_residual_string_wave_family_order():
    rs = []
    for n in (1024, 2048, 4096):
        init = oscillatory_family_init(2, n=n)
        dt = 2.0 * init.ds
        graphs = [dalembert_wave_solve(init, t) for t in (0.5 - dt, 0.5, 0.5 + dt)]
        rs.append(float(np.max(np.abs(residual_string(graphs, dt)))))
    orders = [np.log2(rs[i] / rs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_galilean_transform():
    p = datasets.constant_profile(0.6, 0.1, [0.3, 0, 0], [0, 0, 0])
    flow = build_flow(p)
    s = p.s_samples
    # u = 0 is the identity
    (same,) = galilean_on_solution(flow, 0.0, [0.7], s)
    ref = solve_augmented(flow, 0.7)
    assert np.max(np.abs(same.v - ref.v)) < 1e-14
    # constant state stays exact under any boost
    (boosted,) = galilean_on_solution(flow, 0.3, [0.7], s)
    assert np.max(np.abs(boosted.v - 0.4)) < 1e-14
    assert np.max(np.abs(boosted.tau - 0.6)) < 1e-14


def test_galilean_residual_within_factor_two():
    p = datasets.smooth_manifold_profile(n=2048)
    flow = build_flow(p)
    dt = 2.0 * p.ds
    times = [0.7 - dt, 0.7, 0.7 + dt]
    plain = [solve_augmented(flow, t) for t in times]
    r0 = residual_augmented(plain, dt)["max_abs"]
    shifted = galilean_on_solution(flow, 0.05, times, p.s_samples)
    r1 = residual_augmented(shifted, dt)["max_abs"]
    assert r1 <= 2.0 * r0
