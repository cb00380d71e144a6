import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringlab import characteristics, datasets
from stringlab.characteristics import (
    CharacteristicFlow,
    InadmissibleDataError,
    _feet,
    _newton_start,
    _reduce_time,
    _state,
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
from stringlab.profiles import CellField, Profile, centered_slopes, cubic_interp, write_snapshot
from stringlab.validate import random_hull_states
from stringlab.waves import dalembert_wave_solve, oscillatory_family_init, wave_to_augmented
from stringlab.weak import (
    _weights,
    _Workspace,
    default_family,
    observable_matrix,
    oscillate_profile,
    pairing_tables,
)

from _oracles import evolve_cells_by_midpoints

KAPPA = 2.0 ** -0.5


def _xi0(flow, y, deriv=False):
    """xi0(y) = A(y) + B(y) off the family rows (its slope tau(0, xi0(y)) with deriv);
    `xi_evaluate(flow, 0.0, y)` gives the same bits."""
    return np.add(*flow._tables(flow._cell(y), [0, 1 + flow.d], not deriv, deriv)[int(deriv)])


def _phi0(flow, y, deriv=False):
    """Phi(y) = A(y) - B(y) off the family rows (its slope v(0, xi0(y)) with deriv)."""
    return np.subtract(*flow._tables(flow._cell(y), [0, 1 + flow.d], not deriv, deriv)[int(deriv)])


def _knots(flow, name):
    """The knots y_edges, or xi0 = A + B or Phi = A - B at them."""
    a, b = flow.values[0], flow.values[1 + flow.d]
    return {"y_edges": flow.y_edges, "xi_nodes": a + b, "phi_nodes": a - b}[name]


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
    assert np.max(np.abs(_xi0(flow, y) - 0.6 * y)) < 1e-12
    assert np.max(np.abs(xi_time_inverse(flow, 0.0, 0.6 * y) - y)) < 1e-11


def test_flow_wave_state_is_linear():
    prof = wave_to_augmented(oscillatory_family_init(3, n=1024))
    flow = build_flow(prof)
    y = np.linspace(-9.0, 9.0, 41)
    # linear ODE solution, up to accumulated summation roundoff
    assert np.max(np.abs(_xi0(flow, y) - KAPPA * y)) < 1e-11


def test_flow_ode_residual_at_knot_midpoints():
    # between the knots the Hermite table still solves dy xi0 = tau(xi0)
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    y_mid = 0.5 * (flow.y_edges[1:] + flow.y_edges[:-1])
    target = cubic_interp(p.s0, p.ds, p.tau, _xi0(flow, y_mid), p.boundary)
    assert np.max(np.abs(_xi0(flow, y_mid, deriv=True) - target)) < 1e-10


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
    assert abs(_xi0(flow, np.zeros(1))[0]) < 1e-15
    assert abs(_phi0(flow, np.zeros(1))[0]) < 1e-15
    y = np.linspace(-12.0, 12.0, 501)
    for t in (-2.0, 0.0, 0.7, 3.0):
        _, _, dxi_dy = xi_evaluate(flow, t, y)
        assert np.min(dxi_dy) >= flow.delta - 1e-10
        assert np.max(dxi_dy) <= 1.0 / flow.delta + 1e-10


def test_flow_requires_grid_containing_zero():
    # aperiodic data, smooth or cells, normalize xi(0, 0) = 0 inside their window
    with pytest.raises(DomainError, match="window must contain s = 0"):
        build_flow(datasets.smooth_manifold_profile(n=256, s0=10.0, boundary="constant"))
    base = datasets.rough_manifold_base(11)
    with pytest.raises(DomainError, match="window must contain s = 0"):
        build_flow(CellField(base.s0 + 20.0 + base.ds * np.arange(12), base.state()))


def test_periodic_smooth_grid_winds_zero_into_its_window():
    # the same periodic data sampled on a window without s = 0 and on one with it
    far = build_flow(datasets.smooth_manifold_profile(n=256, s0=10.0))
    near = build_flow(datasets.smooth_manifold_profile(n=256, s0=10.0 - 4.0 * np.pi))
    s = np.linspace(-9.0, 9.0, 97)
    for t in (0.0, 0.7, -3.1, 1e3):
        assert np.max(np.abs(xi_time_inverse(far, t, s) - xi_time_inverse(near, t, s))) < 1e-13
        U, V = evolve_states(far, t, s), evolve_states(near, t, s)
        for f in ("tau", "v", "eta", "zeta"):
            assert np.max(np.abs(getattr(U, f) - getattr(V, f))) < 1e-13, (t, f)


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
    # at t = 0 both feet are y: dy xi is the slope of the xi0 table there,
    # which is tau(0, xi0(y)) to third order (a separate centered-slope
    # interpolant of the tau samples is 1.97e-8 off here)
    p = datasets.smooth_manifold_profile(n=512)
    flow = build_flow(p)
    y = np.linspace(-3.0, 3.0, 33)
    xi, _, dxi_dy = xi_evaluate(flow, 0.0, y)
    assert np.max(np.abs(xi - _xi0(flow, y))) < 1e-13
    assert np.array_equal(dxi_dy, _xi0(flow, y, deriv=True))
    exact = datasets.smooth_manifold_state(_xi0(flow, y)).tau
    assert np.max(np.abs(dxi_dy - exact)) < 1.5e-8


def test_the_state_is_the_slope_of_the_tables():
    # one copy of the state: evolve_states reads tau off the slope of the xi0
    # table at the inversion's feet; y comes back from xi0(y) to rounding
    flow = build_flow(datasets.smooth_manifold_profile(n=512))
    y = np.linspace(-3.0, 3.0, 33)
    s = _xi0(flow, y)
    U = evolve_states(flow, 0.0, s)
    y_back = xi_time_inverse(flow, 0.0, s)
    assert np.array_equal(U.tau, _xi0(flow, y_back, deriv=True))
    # v = [(v + tau) + (v - tau)]/2 from the block coordinates, to rounding
    assert np.max(np.abs(U.v - _phi0(flow, y_back, deriv=True))) <= 2 * np.spacing(1.0)
    assert np.max(np.abs(U.tau - _xi0(flow, y, deriv=True))) <= 2 * np.spacing(1.0)


def test_smooth_states_third_order_against_closed_form():
    rng = np.random.default_rng(0)
    s = rng.uniform(-6.0, 6.0, 20001)
    exact = datasets.smooth_manifold_state(s)
    errs = []
    for n in (256, 512, 1024, 4096):
        U = evolve_states(build_flow(datasets.smooth_manifold_profile(n=n)), 0.0, s)
        errs.append(max(np.max(np.abs(getattr(U, f) - getattr(exact, f)))
                        for f in ("tau", "v", "eta", "zeta")))
    assert errs[1] <= 2e-7
    orders = -np.diff(np.log(errs)) / np.log([2.0, 2.0, 4.0])
    assert min(orders) >= 2.9, orders


def _xi_wave_residual_by_time(flow, t_pts, y, dy):
    """The residual of `xi_wave_residual`, one time at a time."""
    dt = 0.5 * dy
    worst = 0.0
    for t in t_pts:
        dtt = (_xi_only(flow, t + dt, y) - 2.0 * _xi_only(flow, t, y) + _xi_only(flow, t - dt, y)) / dt**2
        dyy = (_xi_only(flow, t, y + dy) - 2.0 * _xi_only(flow, t, y) + _xi_only(flow, t, y - dy)) / dy**2
        worst = max(worst, float(np.max(np.abs(dtt - dyy))))
    return worst


def test_xi_wave_residual_refinement_order():
    res = []
    ns = (512, 1024, 2048)
    for n in ns:
        p = datasets.smooth_manifold_profile(n=n)
        flow = build_flow(p)
        args = [0.3, 0.9], np.linspace(-2, 2, 31), 8.0 * p.period / n
        res.append(xi_wave_residual(flow, *args))
        # the lattice reads the same bits as a loop over the times
        assert res[-1] == _xi_wave_residual_by_time(flow, *args)
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
        U = evolve_states(flow, t, p.s_samples)
        assert np.max(np.abs(U.sum_squares() - 1.0)) < 1e-6
        assert np.max(np.abs(U.cross())) < 1e-6


@pytest.mark.parametrize("rough", [False, True])
def test_periodic_time_reduction_matches_direct_evaluation(rough):
    # U(m Y_p + r, s) = U(r, s - m Phi_p) is exact; at moderate |t| the
    # direct inversion is still accurate, so the two routes agree closely:
    # the family slopes read at the unreduced feet y +- t give the same state
    flow = build_flow(datasets.rough_manifold_base(cells=101, alpha=0.2) if rough
                      else datasets.smooth_manifold_profile(n=1024, alpha=0.2))
    assert abs(flow.phi_period) > 1.0
    s = np.linspace(-6.0, 6.0, 97)
    for t in (2.5 * flow.y_period, -3.4 * flow.y_period, 1e3):
        direct = _state(_feet(flow, t, xi_time_inverse(flow, t, s)))
        U = evolve_states(flow, t, s)
        for f in ("tau", "v", "eta", "zeta"):
            assert np.max(np.abs(getattr(U, f) - getattr(direct, f))) < 1e-10, (t, f)


@pytest.mark.parametrize("source", [
    lambda: datasets.smooth_manifold_profile(n=512, d=3),
    lambda: datasets.smooth_manifold_profile(n=512, d=3, alpha=0.2),
    lambda: datasets.rough_manifold_base(cells=101, alpha=0.2),
], ids=["smooth", "smooth_alpha", "rough_alpha"])
def test_direct_inversions_reduce_periodic_time(source):
    # xi_time_inverse and tau_slope_consistency solve at the reduced time, so
    # |t| = 1e9 passes the 1e-8 residual check; the returned y is the true
    # one (for alpha = 0.2, whole y-periods of size ~3e8 are added back): the
    # direct d'Alembert sum at it gives back s to the rounding of its |t|-sized terms
    flow = build_flow(source())
    s = np.linspace(-6.0, 6.0, 97)
    for t in (1e9, -1e9):
        y = xi_time_inverse(flow, t, s)
        assert np.max(np.abs(_xi_only(flow, t, y) - s)) <= 8 * np.spacing(1e9)
        if flow.mode == "smooth":
            assert tau_slope_consistency(flow, t, s) < 5e-4


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
        mid = 0.5 * (y[:-1] + y[1:])
        want = _state(_feet(flow, t, mid))
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


@pytest.mark.parametrize("rough", [False, True], ids=["smooth", "rough"])
def test_aperiodic_data_solve_at_far_times(rough):
    # a constant state translates: y = (s - v t)/tau is about -1.4e8 at
    # t = 1e9, where one ulp of y (3e-8) already exceeds 1e-8 (1 + |s|); the
    # residual bound grows with the rounding of the d'Alembert sum at feet
    # that large, and the states, read in the constant tails, are exact; the
    # point s = xi(t, 0) alone solves too, though at |t| = 1e9 rounding
    # leaves the warm start's lattice flat there
    p = datasets.constant_profile(0.7, 0.1, [0.3, 0, 0], [0, 0.2, 0], n=64, boundary="constant",
                                  rough=rough)
    flow = build_flow(p)
    near = evolve_states(flow, 1e6, np.linspace(-5.0, 5.0, 41))
    for t in (1e9, -1e9, 1e6, -1e6):
        for s in (np.linspace(-5.0, 5.0, 41), _xi_only(flow, t, np.zeros(1))):
            U = evolve_states(flow, t, s)
            for f, want in (("tau", 0.7), ("v", 0.1), ("eta", [0.3, 0, 0]), ("zeta", [0, 0.2, 0])):
                assert np.max(np.abs(getattr(U, f) - np.asarray(want))) <= 4e-16, (t, f)
                assert np.array_equal(getattr(U, f), getattr(near, f)[:s.size]), (t, f)
            y = xi_time_inverse(flow, t, s)
            assert np.max(np.abs(y - (s - 0.1 * t) / 0.7)) <= 1e-15 * abs(t), t


def test_inversion_residual_failure_still_raises():
    # an inflated delta puts the root outside the Lipschitz bracket: Newton
    # stops at the bracket's edge, and the residual check raises at |t| <= 1e6
    # as it does at t = 0.5
    p = datasets.constant_profile(0.7, 0.1, [0.3, 0, 0], [0, 0.2, 0], n=64, boundary="constant")
    broken = dataclasses.replace(build_flow(p), delta=0.9)
    for t in (0.5, 1e6, -1e6):
        with pytest.raises(RuntimeError, match=r"inversion residual .* at t = "):
            xi_time_inverse(broken, t, np.array([3.0]))


def test_inversion_residual_check_raises_on_nan(monkeypatch):
    # a NaN start leaves a NaN residual, which fails the check
    flow = build_flow(datasets.smooth_manifold_profile(n=256))
    monkeypatch.setattr(characteristics, "_newton_start", lambda flow, t, s, lo, hi: np.full(s.shape, np.nan))
    with pytest.raises(RuntimeError, match=r"inversion residual nan > .* at t = 0.3"):
        xi_time_inverse(flow, 0.3, np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("source", [
    lambda: datasets.smooth_manifold_profile(n=512),
    lambda: datasets.rough_manifold_base(101, alpha=0.2),
    lambda: datasets.smooth_manifold_profile(n=256, boundary="constant"),
], ids=["smooth", "rough", "smooth_constant"])
def test_inversion_of_a_point_does_not_depend_on_the_call(source):
    # at one time the warm start's lattice is the flow's, so each point
    # solves to the same bits alone, in any sub-grid and in the whole grid
    flow = build_flow(source())
    s = np.linspace(-7.0, 7.0, 301)
    for t in (0.0, 0.7, -25.0, 1e3, 1e9):
        y, U = xi_time_inverse(flow, t, s), evolve_states(flow, t, s)
        for part in (slice(0, 1), slice(150, 151), slice(300, 301), slice(20, None), slice(3, None, 7)):
            assert np.array_equal(xi_time_inverse(flow, t, s[part]), y[part]), (t, part)
            V = evolve_states(flow, t, s[part])
            for f in ("tau", "v", "eta", "zeta"):
                assert np.array_equal(getattr(V, f), getattr(U, f)[part]), (t, part, f)
    # at several times every point starts at its bracket midpoint, so a row
    # solves to the same bits in any sub-call that keeps two distinct times
    T = np.array([[0.7], [0.3], [-25.0], [1e9]])
    y = xi_time_inverse(flow, T, s)
    for rows in ([0, 1], [3, 0], [1, 2, 3], [0, 2]):
        assert np.array_equal(xi_time_inverse(flow, T[rows], s), y[rows]), rows
        assert np.array_equal(xi_time_inverse(flow, T[rows], s[40:90]), y[rows, 40:90]), rows


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
        from stringlab.weak import TestFunction, pairing_matrix

        val = pairing_matrix(cells, TestFunction.indicator(sa, sb))[0]
        assert val == pytest.approx(b_y - a_y, abs=1e-10)


def test_xi0_inverse_across_periods():
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    y = np.linspace(-40.0, 40.0, 257)  # spans multiple straightened periods
    back = xi_time_inverse(flow, 0.0, _xi0(flow, y))
    assert np.max(np.abs(back - y)) < 1e-9


def test_rough_tables_knot_at_the_data_jumps():
    # an oscillated tiling holds at most four equal-state runs per oscillation
    # cell: one table cell per run, knots at the run edges only
    runs, plan = oscillate_profile(datasets.subrelativistic_wave_base(101), 32, m=64)
    osc = plan.samples()
    flow = build_flow(runs)
    data = np.column_stack([osc.tau, osc.v, osc.eta, osc.zeta])
    edges = np.flatnonzero(np.r_[True, np.any(data[1:] != data[:-1], axis=1), True])
    assert runs.m == len(edges) - 1 and len(flow.y_edges) == runs.m + 1 and 8 * runs.m < osc.n
    # the sampled tiling compresses to the same runs and builds the same flow
    same = build_flow(osc, flow.alpha, flow.delta)
    for f in ("y_edges", "values", "slopes", "periods"):
        assert np.array_equal(getattr(flow, f), getattr(same, f)), f
    # tau = kappa and v = 0 throughout, so y = s / kappa and Phi = 0 exactly:
    # one sum per run keeps the table to rounding
    kappa = 2.0 ** -0.5
    assert np.max(np.abs(flow.y_edges - flow.xi_nodes / kappa)) < 1e-12
    assert not np.any(_knots(flow, "phi_nodes"))
    # a twin whose eta differs at every sample keeps tau and v, so its
    # per-sample table holds the same cumulative sums at every sample edge,
    # up to the rounding of 25,856 sample-by-sample terms (~3e-12)
    twin = dataclasses.replace(osc, eta=osc.eta + 1e-3 * np.arange(osc.n)[:, None])
    full = build_flow(twin, flow.alpha, flow.delta)
    assert len(full.y_edges) == osc.n + 1
    for f in ("y_edges", "xi_nodes", "phi_nodes"):
        assert np.max(np.abs(_knots(flow, f) - _knots(full, f)[edges])) < 1e-11, f
    ab = [0, 1 + flow.d]  # the rows A' = (tau + v)/2 and B' = (tau - v)/2
    assert np.array_equal(flow.slopes[ab], full.slopes[ab][:, edges[:-1]])
    for t in (0.5, -25.0, 37.7):
        cells = evolve_cells(flow, t)
        U = evolve_states(flow, t, 0.5 * (cells.breaks[:-1] + cells.breaks[1:]))
        for f in ("tau", "v", "eta", "zeta"):
            assert np.array_equal(getattr(U, f), getattr(cells.states, f)), (t, f)
    # the run cells pair like one cell per sample, and so does the sampled
    # tiling (paired on its runs); the per-sample sums are taken exactly,
    # since a mat-vec over its 25,856 cells rounds to ~2e-12
    fam = default_family(osc.s0, osc.s0 + osc.period)
    got = pairing_tables({0.0: evolve_cells(flow, 0.0), 1.0: osc}, fam)
    per_sample = CellField(osc.s0 + osc.ds * np.arange(osc.n + 1), osc.state(), osc.period)
    obs = observable_matrix(per_sample.states)
    for k, (g, w) in enumerate(zip(fam, _weights(per_sample, fam, _Workspace()))):
        terms = w[:, None] * obs
        exact = [math.fsum(col) for col in terms.T]
        assert np.max(np.abs(got[:, k] - exact)) < 1e-13, g.label


RUN_FREE = [datasets.rough_manifold_base(101), datasets.rough_manifold_base(101, alpha=0.2),
            datasets.rough_hull_base(64, d=1)]
RUN_FREE_IDS = ["manifold", "manifold_alpha", "hull_d1"]


@pytest.mark.parametrize("base", RUN_FREE, ids=RUN_FREE_IDS)
def test_run_free_tables_are_the_per_sample_sums(base):
    # every sample its own run: the cell sums of width / tau agree with the
    # sample-by-sample sums ds / tau, normalized at s = 0, to rounding
    flow = build_flow(base)
    ds, s = base.ds, base.s0 + base.ds * np.arange(base.n + 1)
    j = int((0.0 - base.s0) / ds)
    for table, w in (("y_edges", np.ones(base.n)), ("phi_nodes", base.v)):
        ref = np.r_[0.0, np.cumsum(w * ds / base.tau)]
        ref -= ref[j] + (0.0 - s[j]) / base.tau[j] * w[j]
        assert np.max(np.abs(_knots(flow, table) - ref)) < 1e-12, table
    assert flow.y_period == pytest.approx(np.sum(ds / base.tau), abs=1e-12)


@pytest.mark.parametrize("rough", [False, True], ids=["smooth", "rough"])
def test_xi_one_lookup_per_foot(rough, monkeypatch):
    # _xi_only (and xi_evaluate, for the slope dy xi) locates each foot once
    # and reads one row there, A at y + t and B at y - t: d'Alembert's sum of
    # the xi0 and Phi tables, to rounding
    flow = build_flow(datasets.rough_manifold_base(101, alpha=0.2) if rough
                      else datasets.smooth_manifold_profile(n=512))
    y = np.linspace(-30.0, 30.0, 1001)
    reads = []
    tables = CharacteristicFlow._tables

    def counted(self, cell, cols, *args):
        reads.append((np.shape(cell[0]), len(self.values[cols])))
        return tables(self, cell, cols, *args)

    for t in (0.0, 0.3, -25.0, 1e3):
        for deriv in (False, True):
            ref = (0.5 * (_xi0(flow, y + t, deriv) + _xi0(flow, y - t, deriv))
                   + 0.5 * (_phi0(flow, y + t, deriv) - _phi0(flow, y - t, deriv)))
            reads.clear()
            with monkeypatch.context() as mp:
                mp.setattr(CharacteristicFlow, "_tables", counted)
                got = xi_evaluate(flow, t, y)[2] if deriv else _xi_only(flow, t, y)
            assert reads == [(y.shape, 1)] * 2, (t, deriv)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (t, deriv)


def _two_evaluation_inverse(flow, t, s, y_tol=1e-12):
    """The safeguarded Newton of `xi_time_inverse`, from its start
    (`_newton_start`), with two evaluations per step, the value and then the
    slope, each locating both feet on its own.  Returns y and the number of
    Newton steps."""
    t, shift, lag = _reduce_time(flow, np.asarray(t, dtype=float))
    s = np.asarray(s, dtype=float) - shift
    e = s - _xi_only(flow, t, np.zeros_like(t))
    shape = e.shape
    t, s, e = (a.ravel() for a in np.broadcast_arrays(t, s, e))
    margin = 1e-9 * (1.0 + np.abs(e))
    lo = np.where(e >= 0.0, e * flow.delta, e / flow.delta) - margin
    hi = np.where(e >= 0.0, e / flow.delta, e * flow.delta) + margin
    y = _newton_start(flow, t, s, lo, hi)
    step, live, steps = hi - lo, np.arange(e.size), 0
    while live.size and steps < 200:
        steps += 1
        tl, yl = t[live], y[live]
        f = _xi_only(flow, tl, yl) - s[live]
        lo_l = np.where(f < 0.0, yl, lo[live])
        hi_l = np.where(f < 0.0, hi[live], yl)
        newton = f / xi_evaluate(flow, tl, yl)[2]
        y_new = yl - newton
        bisect = (y_new < lo_l) | (y_new > hi_l) | (np.abs(newton) > 0.5 * np.abs(step[live]))
        y_new = np.where(bisect, 0.5 * (lo_l + hi_l), y_new)
        lo[live], hi[live], y[live], step[live] = lo_l, hi_l, y_new, y_new - yl
        live = live[np.abs(y_new - yl) > y_tol * (1.0 + np.abs(y_new))]
    return y.reshape(shape) - lag, steps


def _state_by_hand(flow, y, t):
    """(tau, v, eta, zeta) at (t, xi(t, y)) from the y-slopes of the family
    rows at both feet, one row at a time: the cell slope of a rough table,
    the Hermite slope (with the interval's secant) of a smooth one."""
    d = flow.d

    def slopes(foot):
        foot = flow._wind(foot)[0]
        knots = flow.y_edges
        k = np.clip(np.searchsorted(knots, foot, side="right") - 1, 0, len(knots) - 2)
        if flow.mode == "pc":
            return [row[k] for row in flow.slopes]
        u = np.clip((foot - knots[k]) / (knots[k + 1] - knots[k]), 0.0, 1.0)
        w0, w1, w2 = 6.0 * u * (u - 1.0), (1.0 - u) * (1.0 - 3.0 * u), u * (3.0 * u - 2.0)
        return [w1 * row[k] + w2 * row[k + 1] - w0 * sec[k]
                for row, sec in zip(flow.slopes, flow.secants)]

    p, m = slopes(y + t), slopes(y - t)
    a, b = p[0], m[1 + d]  # A' = (tau + v)/2 at y + t, B' = (tau - v)/2 at y - t
    ep, em = np.stack(p[1:1 + d], axis=-1), np.stack(m[2 + d:], axis=-1)
    return a + b, a - b, ep + em, em - ep


@pytest.mark.parametrize("source", [
    lambda: datasets.smooth_manifold_profile(n=512),
    lambda: datasets.rough_manifold_base(101, alpha=0.2),
    lambda: datasets.smooth_manifold_profile(n=256, boundary="constant"),
    lambda: datasets.constant_profile(0.7, 0.1, [0.3, 0, 0], [0, 0.2, 0], n=64,
                                      boundary="constant", rough=True),
], ids=["smooth", "rough_alpha", "smooth_constant", "rough_constant"])
def test_newton_makes_one_evaluation_per_step(source, monkeypatch):
    # each Newton step locates each foot once and reads value and slope off
    # that one lookup: 2 lookups per step, plus 2 for xi(t, 0), 2 for the
    # warm start's lattice (one time for every point) and 2 for the final
    # read, whose family slopes evolve_states reads its states off, locating
    # no foot again; the results are those of the two-evaluation Newton from
    # the same start and of reading the slopes by hand, bit for bit
    flow = build_flow(source())
    s = np.linspace(-3.0, 3.0, 257)
    times = [0.0, 0.3, -25.0, 1e3] + ([1e9, -1e9] if flow.y_period is not None else [])
    lookups = []
    cell = CharacteristicFlow._cell

    def counted(self, y):
        lookups.append(np.shape(y))
        return cell(self, y)

    for t in times:
        want, steps = _two_evaluation_inverse(flow, t, s)
        monkeypatch.setattr(CharacteristicFlow, "_cell", counted)
        lookups.clear()
        got = xi_time_inverse(flow, t, s)
        assert len(lookups) == 2 * steps + 6, (t, steps, len(lookups))
        lookups.clear()
        U = evolve_states(flow, t, s)
        monkeypatch.undo()
        assert len(lookups) == 2 * steps + 6, (t, steps, len(lookups))
        assert np.array_equal(got, want), t
        r, shift, _ = _reduce_time(flow, t)
        y, _ = _two_evaluation_inverse(flow, r, s - shift)
        for f, ref in zip(("tau", "v", "eta", "zeta"), _state_by_hand(flow, y, r)):
            assert np.array_equal(getattr(U, f), ref), (t, f)
    # times and positions that broadcast together start at the bracket midpoints
    tt = np.linspace(-2.0, 2.0, 5)[:, None]
    assert np.array_equal(xi_time_inverse(flow, tt, s), _two_evaluation_inverse(flow, tt, s)[0])
    U = evolve_states(flow, tt, s)
    assert U.tau.shape == (5, 257) and U.eta.shape == (5, 257, flow.d)


def test_warm_start_needs_at_most_three_newton_evaluations(monkeypatch):
    # the smooth_solve profile: at one time Newton starts on the lattice
    # interpolant, so past xi(t, 0) and the lattice (two table reads each)
    # and the final read (a value and a slope read per foot) at most three
    # evaluations (two reads each) remain
    flow = build_flow(datasets.smooth_manifold_profile(n=16384, d=3))
    s = flow.profile.s_samples
    reads = []
    tables = CharacteristicFlow._tables

    def counted(self, *args):
        reads.append(1)
        return tables(self, *args)

    monkeypatch.setattr(CharacteristicFlow, "_tables", counted)
    for t in (-5.0, 0.3, 1e3, 1e9):
        reads.clear()
        xi_time_inverse(flow, t, s)
        assert len(reads) <= 8 + 2 * 3, (t, len(reads))


def _assert_same_cells(a, b, s_tol=1e-12, u_tol=4e-16):
    """Two periodic cell fields are one function of s: the same jumps to s_tol
    and the same states to u_tol.

    Cells narrower than s_tol (slivers where two breaks coincide to rounding)
    are dropped first, and breaks between states equal to u_tol do not count
    as jumps.  States agree to rounding, not bit for bit: a field stores
    (tau, v, eta, zeta), and re-forming the invariants v +- tau from them for
    the next evolution rounds once.
    """
    fields = []
    for cf in (a, b):
        keep = np.diff(cf.breaks) >= s_tol
        U = cf.states
        data = np.column_stack([U.tau, U.v, U.eta, U.zeta])[keep]
        breaks = np.r_[cf.breaks[:-1][keep], cf.breaks[-1]]
        jump = np.any(np.abs(data - np.roll(data, 1, axis=0)) > u_tol, axis=1)
        fields.append((breaks, data, np.mod(breaks[:-1][jump], cf.period)))
    ja, jb = fields[0][2], fields[1][2]
    assert len(ja) == len(jb) > 0
    gap = np.abs(ja[:, None] - jb[None, :])
    gap = np.minimum(gap, a.period - gap)
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) < s_tol
    for (b0, d0, _), (b1, d1, _) in ((fields[0], fields[1]), (fields[1], fields[0])):
        mid = 0.5 * (b0[:-1] + b0[1:])
        k = np.searchsorted(b1, b1[0] + np.mod(mid - b1[0], a.period), side="right") - 1
        assert np.max(np.abs(d1[np.clip(k, 0, len(d1) - 1)] - d0)) <= u_tol


SEMIGROUP_BASES = [datasets.subrelativistic_wave_base(101),
                   datasets.rough_manifold_base(101, alpha=0.2),
                   datasets.rough_hull_base(64, d=1)]


@pytest.mark.parametrize("base", SEMIGROUP_BASES, ids=["subrel_wave", "manifold_alpha", "hull_d1"])
def test_evolved_cells_are_a_semigroup(base):
    # an evolved CellField is rough initial data: evolving it by t2 is
    # evolving the original by t1 + t2
    flow = build_flow(base)
    for t1 in (0.5, -25.0, 37.7):
        mid = evolve_cells(flow, t1)
        assert mid.period == flow.s_period
        again = build_flow(mid)
        for t2 in (0.5, -25.0, 37.7):
            _assert_same_cells(evolve_cells(again, t2), evolve_cells(flow, t1 + t2))
        # and evolving back by -t1 gives the initial runs
        _assert_same_cells(evolve_cells(again, -t1), base.runs())


@pytest.mark.parametrize("base", SEMIGROUP_BASES, ids=["subrel_wave", "manifold_alpha", "hull_d1"])
def test_reversal_leaves_no_sliver_cells(base):
    # the breaks b - t + t and b + t - t agree to rounding and are one break,
    # so every cell of the reversed field is wide and reads the initial run
    # its midpoint lies in
    flow, runs = build_flow(base), base.runs()
    for t in (0.5, -25.0, 37.7):
        back = evolve_cells(build_flow(evolve_cells(flow, t)), -t)
        assert np.min(np.diff(back.breaks)) >= 1e-12
        mid = 0.5 * (back.breaks[:-1] + back.breaks[1:])
        k = np.searchsorted(runs.breaks, runs.breaks[0] + np.mod(mid - runs.breaks[0], runs.period),
                            side="right") - 1
        for name in ("tau", "v", "eta", "zeta"):
            got, want = getattr(back.states, name), getattr(runs.states, name)[k]
            assert np.max(np.abs(got - want)) <= 4e-16


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24), d=st.sampled_from([1, 3]),
       t1=st.floats(-40.0, 40.0), t2=st.floats(-40.0, 40.0))
def test_semigroup_on_random_admissible_cells(seed, n, d, t1, t2):
    # random hull states on cells of random widths, in a window that need not
    # contain s = 0 (the normalization winds by the period)
    rng = np.random.default_rng(seed)
    alpha, delta = rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.6)
    U = random_hull_states(rng, n, alpha, delta, d)
    breaks = rng.uniform(-8.0, 2.0) + np.r_[0.0, np.cumsum(rng.uniform(0.05, 1.0, n))]
    flow = build_flow(CellField(breaks, U, float(breaks[-1] - breaks[0])))
    assert _xi0(flow, 0.0) == pytest.approx(0.0, abs=1e-12)
    _assert_same_cells(evolve_cells(build_flow(evolve_cells(flow, t1)), t2),
                       evolve_cells(flow, t1 + t2))


def _assert_cells_equal(got, want):
    assert got.period == want.period
    assert np.array_equal(got.breaks, want.breaks)
    for f in ("tau", "v", "eta", "zeta"):
        assert np.array_equal(getattr(got.states, f), getattr(want.states, f)), f
    assert got.states.eta.flags.c_contiguous and got.states.zeta.flags.c_contiguous


@pytest.mark.parametrize("base", SEMIGROUP_BASES, ids=["subrel_wave", "manifold_alpha", "hull_d1"])
def test_evolve_cells_matches_midpoint_search(base):
    # the cells read off the merged breaks are the cells whose midpoints and
    # breaks are located by searching the knots, bit for bit; the only
    # `_cell` searches are the two feet of the breaks, none per cell
    flow = build_flow(base)
    lookups = []
    cell = CharacteristicFlow._cell

    def counted(self, y):
        lookups.append(np.shape(y))
        return cell(self, y)

    for t in (0.0, 0.5, -25.0, 37.7, 1e3, -1e3, 1e9, 2 * flow.y_period + 0.3):
        want = evolve_cells_by_midpoints(flow, t)
        lookups.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CharacteristicFlow, "_cell", counted)
            got = evolve_cells(flow, t)
        assert lookups == [got.breaks.shape] * 2, t
        _assert_cells_equal(got, want)
    back = build_flow(evolve_cells(flow, 1e3))
    _assert_cells_equal(evolve_cells(back, -1e3), evolve_cells_by_midpoints(back, -1e3))


def _random_cells(seed, n, d, periodic):
    """Random hull states on n cells of random widths; a periodic window need
    not contain s = 0, a constant-boundary one does."""
    rng = np.random.default_rng(seed)
    alpha, delta = rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.6)
    U = random_hull_states(rng, n, alpha, delta, d)
    widths = np.cumsum(rng.uniform(0.05, 1.0, n))
    start = rng.uniform(-8.0, 2.0) if periodic else -rng.uniform(0.0, widths[-1])
    breaks = start + np.r_[0.0, widths]
    return CellField(breaks, U, float(breaks[-1] - breaks[0]) if periodic else None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), d=st.sampled_from([1, 3]),
       t=st.floats(-40.0, 40.0), whole=st.integers(-3, 3))
def test_evolve_cells_matches_midpoint_search_on_random_cells(seed, n, d, t, whole):
    # t and t + whole periods: breaks of both families land anywhere in the
    # period, also across its wrap, and times near whole periods put feet on knots
    flow = build_flow(_random_cells(seed, n, d, periodic=True))
    for time_ in (t, whole * flow.y_period, t + whole * flow.y_period):
        _assert_cells_equal(evolve_cells(flow, time_), evolve_cells_by_midpoints(flow, time_))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), d=st.sampled_from([1, 3]),
       t=st.floats(-40.0, 40.0))
def test_evolve_cells_with_constant_boundary(seed, n, d, t):
    # a constant-boundary field evolves between the outermost breaks b -+ t;
    # beyond them (the tails) both feet lie beyond the same end of the data,
    # and the end cells carry the end states there, as evolve_states reads them
    cells = _random_cells(seed, n, d, periodic=False)
    flow = build_flow(cells)
    got = evolve_cells(flow, t)
    _assert_cells_equal(got, evolve_cells_by_midpoints(flow, t))
    assert got.period is None and got.m <= 2 * n + 1
    ends = got.breaks[[0, -1]] + [-1.0, 1.0]
    U = evolve_states(flow, t, ends)
    for f in ("tau", "v", "eta", "zeta"):
        assert np.array_equal(getattr(U, f), getattr(got.states, f)[[0, -1]]), f
        want = getattr(cells.states, f)[[0, -1]]
        assert np.max(np.abs(getattr(got.states, f)[[0, -1]] - want)) <= 4e-16, f


def _random_smooth(seed, d, periodic):
    """Smooth admissible data on 256 samples of [-2 pi, 2 pi): five random
    hull states blended by a smooth periodic partition of unity; the hull
    and the window are convex, so every blend is admissible."""
    rng = np.random.default_rng(seed)
    alpha, delta = rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.6)
    U = random_hull_states(rng, 5, alpha, delta, d)
    n, period = 256, 4.0 * np.pi
    s = -2.0 * np.pi + period / n * np.arange(n)
    w = np.exp(2.0 * np.cos(s[:, None] / 2.0 - rng.uniform(0.0, 2.0 * np.pi, 5)))
    w /= w.sum(axis=1, keepdims=True)
    return Profile(s[0], period / n, w @ U.tau, w @ U.v, w @ U.eta, w @ U.zeta,
                   "periodic" if periodic else "constant")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 3]), rough=st.booleans(),
       periodic=st.booleans(), t=st.floats(-40.0, 40.0))
def test_inversion_on_random_admissible_data(seed, d, rough, periodic, t):
    # at the reduced time (periodic data also at |t| = 1e9) the residual is
    # within its bound and y within its Lipschitz bracket; xi off the family
    # rows is d'Alembert's sum of the xi0 and Phi tables to rounding; rough
    # cells evolve to the states of the unsplit slopes, bit for bit
    source = _random_cells(seed, 12, d, periodic) if rough else _random_smooth(seed, d, periodic)
    flow = build_flow(source)
    s = np.sort(np.random.default_rng(seed).uniform(-6.0, 6.0, 64))
    for time_ in (t, 1e9, -1e9) if periodic else (t,):
        r, shift, _ = _reduce_time(flow, time_)
        y = xi_time_inverse(flow, r, s - shift)
        e = s - shift - _xi_only(flow, r, np.zeros(1))
        margin = 1e-9 * (1.0 + np.abs(e))
        assert np.all(y >= np.minimum(e * flow.delta, e / flow.delta) - margin), time_
        assert np.all(y <= np.maximum(e * flow.delta, e / flow.delta) + margin), time_
        xi = _xi_only(flow, r, y)
        bound = 1e-8 * (1.0 + np.abs(s - shift)) + 8.0 * np.spacing((np.abs(y) + abs(r)) / flow.delta)
        assert np.all(np.abs(xi - (s - shift)) <= bound), time_
        ref = (0.5 * (_xi0(flow, y + r) + _xi0(flow, y - r))
               + 0.5 * (_phi0(flow, y + r) - _phi0(flow, y - r)))
        assert np.max(np.abs(xi - ref)) <= 1e-13 * np.max(np.abs(ref)), time_
        if rough:
            _assert_cells_equal(evolve_cells(flow, time_),
                                evolve_cells_by_midpoints(flow, time_, source))


def test_rough_tables_without_runs_knot_every_sample():
    base = datasets.rough_manifold_base(101)
    flow = build_flow(base)
    assert len(flow.y_edges) == base.n + 1
    # xi0 = A + B is s at the knots, to the rounding of the family split
    s = base.s0 + base.ds * np.arange(base.n + 1)
    assert np.max(np.abs(flow.xi_nodes - s)) <= np.spacing(np.max(np.abs(s)))
    # every slope row holds the cell states by family: (tau + v)/2,
    # (eta - zeta)/2, then (tau - v)/2, (eta + zeta)/2; halving is exact
    assert np.array_equal(flow.slopes, 0.5 * np.vstack([base.tau + base.v, (base.eta - base.zeta).T,
                                                        base.tau - base.v, (base.eta + base.zeta).T]))


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


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "aperiodic"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_evolve_cells_rejects_a_non_finite_time(periodic, t):
    # unchecked, a non-finite time would break the merge of the break
    # families (IndexError) or leave a field without cells
    cells = datasets.rough_manifold_base(101).runs()
    if not periodic:
        cells = CellField(cells.breaks, cells.states)
    with pytest.raises(ValueError, match=f"^t must be finite; t = {t}$"):
        evolve_cells(build_flow(cells), t)


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


def test_reconstruct_matches_wave_solution_on_coarse_grids():
    # X is read off the knot tables, so the output grid sets no error
    init = oscillatory_family_init(2, n=16384)
    flow = build_flow(wave_to_augmented(init))
    times = np.linspace(-np.pi, np.pi, 17)
    for points in (257, 33):
        s_pts = np.linspace(-np.pi, np.pi, points)
        for g in reconstruct_string(flow, times, s_pts):
            assert np.max(np.abs(g.X - dalembert_wave_solve(init, g.t, s_pts).X)) < 1e-9


def test_reconstruct_rough_matches_cell_sums():
    p = datasets.rough_manifold_base(101, alpha=0.2)
    flow = build_flow(p)
    cells = p.runs()
    b, U = cells.breaks, cells.states
    sums = np.concatenate([np.zeros((1, p.d)),
                           np.cumsum((cells.widths() / U.tau)[:, None] * U.eta, axis=0)])

    def primitive(x):  # integral from b[0] to x of eta/tau ds, exact on the cells
        k = np.clip(np.searchsorted(b, x, side="right") - 1, 0, cells.m - 1)
        return sums[k] + ((x - b[k]) / U.tau[k])[:, None] * U.eta[k]

    for points in (257, 1025, 4097):
        s_pts = np.linspace(-2.0 * np.pi, 2.0 * np.pi, points)
        (g,) = reconstruct_string(flow, [0.0], s_pts)
        exact = primitive(s_pts) - primitive(np.zeros(1))
        assert np.max(np.abs(g.X - exact)) < 1e-12


def _period_integrals(p):
    """One period's integrals of zeta and eta over y (ds / tau), spectrally exact."""
    return (p.ds * np.sum(p.zeta / p.tau[:, None], axis=0),
            p.ds * np.sum(p.eta / p.tau[:, None], axis=0))


def test_reconstruct_one_period_shift():
    # xi(t + m Y_p, y) = xi(t, y) + m Phi_p and X gains -m * integral of zeta dy
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    zeta_p, _ = _period_integrals(p)
    s_pts = np.linspace(-1.0, 1.0, 33)
    for t in (0.4, -0.3):
        (g0,) = reconstruct_string(flow, [t], s_pts)
        for m in (1, 2, 3):
            (gm,) = reconstruct_string(flow, [t + m * flow.y_period], s_pts + m * flow.phi_period)
            assert np.max(np.abs(gm.X - (g0.X - m * zeta_p))) < 1e-13


def test_reconstruct_far_periodic_time_is_the_reduced_time():
    p = datasets.smooth_manifold_profile(n=1024)
    flow = build_flow(p)
    zeta_p, eta_p = _period_integrals(p)
    s_pts = np.linspace(-1.0, 1.0, 33)

    def cost(t):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            reconstruct_string(flow, [t], s_pts)
            runs.append(time.perf_counter() - t0)
        return min(runs)

    for t in (1e9, -1e9, -7.3 * flow.y_period):
        r, shift, lag = _reduce_time(flow, t)
        m, j = round((t - r) / flow.y_period), round(lag / flow.y_period)
        (g,) = reconstruct_string(flow, [t], s_pts)
        (gr,) = reconstruct_string(flow, [r], s_pts - shift)
        want = gr.X - m * zeta_p - j * eta_p
        assert np.max(np.abs(g.X - want)) < 1e-14 * np.max(np.abs(want)) + 1e-13
    assert cost(1e9) < 2.0 * cost(1.0)


def test_reconstruct_accepts_a_grid_without_zero():
    flow = build_flow(datasets.smooth_manifold_profile(n=512))
    s_pts = np.linspace(-1.0, 1.0, 33)
    (g,) = reconstruct_string(flow, [0.7], s_pts)
    (part,) = reconstruct_string(flow, [0.7], s_pts[20:])
    assert np.array_equal(part.X, g.X[20:])
    assert np.array_equal(part.dXds, g.dXds[20:])


OFF_GRID = [0.0, 0.1, 0.5]


def test_reconstruct_string_output_grid():
    # the graph's grid is the evaluation grid: off a uniform grid raises; one
    # point takes the source profile's ds, and a CellField flow has none
    flow = build_flow(datasets.smooth_manifold_profile(n=256))
    with pytest.raises(ValueError, match=r"s_points\[2\] = 0.5 is off the uniform grid"):
        reconstruct_string(flow, [0.3], OFF_GRID)
    (one,) = reconstruct_string(flow, [0.3], [0.5])
    (two,) = reconstruct_string(flow, [0.3], [0.5, 0.6])
    assert one.ds == flow.profile.ds and one.s0 == 0.5
    assert np.array_equal(one.X[0], two.X[0])
    cells = build_flow(datasets.rough_manifold_base(101).runs())
    with pytest.raises(ValueError, match="positive finite spacing"):
        reconstruct_string(cells, [0.3], [0.5])


def test_rough_data_leave_the_solver_only_as_cells():
    # a rough profile is turned into its runs once, when its flow is built;
    # sampled on a grid, its evolved cells would be lost, so solve_augmented
    # refuses it and sends it to evolve_cells
    p = datasets.rough_manifold_base(101)
    flow, runs = build_flow(p), build_flow(p.runs())
    assert flow.profile is None and flow.mode == "pc"
    for name in ("y_edges", "values", "slopes"):
        assert np.array_equal(getattr(flow, name), getattr(runs, name)), name
    for source in (p, flow):
        with pytest.raises(ValueError, match="rough data.*use evolve_cells"):
            solve_augmented(source, 0.5)


def test_solve_augmented_output_grid():
    flow = build_flow(datasets.smooth_manifold_profile(n=256))
    with pytest.raises(ValueError, match=r"s_out\[2\] = 0.5 is off the uniform grid"):
        solve_augmented(flow, 0.3, OFF_GRID)
    one = solve_augmented(flow, 0.3, [0.5])
    assert one.ds == flow.profile.ds and one.s_samples[0] == 0.5


BENCH_TIMES = (-5.0, -1.0, 0.3, 1.0, 5.0, 1e3, -1e3, 1e9)  # the smooth_solve workload's


def test_blocked_solves_equal_one_evaluation_of_the_whole_grid():
    # solve_augmented and galilean_on_solution evaluate _SOLVE_POINTS points at
    # a time: two whole blocks and a tail of 5 here, bit for bit evolve_states
    # on the whole grid
    prof = datasets.smooth_manifold_profile(n=2 * characteristics._SOLVE_POINTS + 5)
    flow, s, u = build_flow(prof), prof.s_samples, 0.01
    for t, boosted in zip(BENCH_TIMES, galilean_on_solution(flow, u, BENCH_TIMES, s)):
        want = evolve_states(flow, t, s)
        moved = evolve_states(flow, t, s - u * t)
        moved.v = moved.v + u
        for got, ref in ((solve_augmented(flow, t).state(), want), (boosted.state(), moved)):
            for name in ("tau", "v", "eta", "zeta"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), (t, name)


def test_smooth_solve_and_snapshot_peaks(tmp_path):
    # the smooth_solve workload's 16,384-point d = 3 solve and its snapshot,
    # traced after a warm call: 2.56 MB and 0.95 MB in blocks, where
    # whole-grid temporaries peaked at 5.38 MB and 7.47 MB
    flow = build_flow(datasets.smooth_manifold_profile(n=16384, d=3))
    path = str(tmp_path / "state.csv")

    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sol = solve_augmented(flow, 0.3)
    assert peak(lambda: solve_augmented(flow, 0.3)) < 3.0e6
    assert peak(lambda: write_snapshot(path, sol, {"t": 0.3})) < 1.5e6


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


@pytest.mark.parametrize("boundary", ["periodic", "constant"])
def test_residual_augmented_is_the_four_written_out_equations(boundary):
    rng = np.random.default_rng(3)
    n, d, dt, ds = 40, 3, 0.01, 0.05
    stack = [Profile(-1.0, ds, rng.uniform(0.5, 1.0, n), rng.uniform(-0.2, 0.2, n),
                     rng.normal(size=(n, d)), rng.normal(size=(n, d)), boundary)
             for _ in range(4)]
    got = residual_augmented(stack, dt)
    want = {"tau": [], "v": [], "eta": [], "zeta": []}
    for pm, p0, pp in zip(stack, stack[1:], stack[2:]):
        s_tau, s_v, s_eta, s_zeta = (centered_slopes(f, ds, boundary)
                                     for f in (p0.tau, p0.v, p0.eta, p0.zeta))
        v0, tau0 = p0.v, p0.tau
        r = {"tau": (pp.tau - pm.tau) / (2.0 * dt) + v0 * s_tau - tau0 * s_v,
             "v": (pp.v - pm.v) / (2.0 * dt) + v0 * s_v - tau0 * s_tau,
             "eta": (pp.eta - pm.eta) / (2.0 * dt) + v0[:, None] * s_eta + tau0[:, None] * s_zeta,
             "zeta": (pp.zeta - pm.zeta) / (2.0 * dt) + v0[:, None] * s_zeta
             + tau0[:, None] * s_eta}
        for key, val in r.items():
            want[key].append(val if boundary == "periodic" else val[1:-1])
    for key, vals in want.items():
        assert np.array_equal(got[key], np.stack(vals))
    assert got["max_abs"] == max(float(np.max(np.abs(np.stack(v)))) for v in want.values())


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


def test_galilean_output_grid():
    # the output profiles sample where they were evaluated; rough data have
    # no sampled output, they evolve as cells
    p = datasets.smooth_manifold_profile(n=256)
    flow = build_flow(p)
    with pytest.raises(ValueError, match=r"s_grid\[2\] = 0.5 is off the uniform grid"):
        galilean_on_solution(flow, 0.01, [0.7], OFF_GRID)
    (same,) = galilean_on_solution(flow, 0.0, [0.7], p.s_samples)
    assert np.max(np.abs(same.s_samples - p.s_samples)) < 1e-12
    assert np.array_equal(same.tau, evolve_states(flow, 0.7, p.s_samples).tau)
    rough = datasets.rough_manifold_base(101)
    with pytest.raises(ValueError, match="rough data.*use evolve_cells"):
        galilean_on_solution(build_flow(rough), 0.01, [0.7], rough.s_samples)


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
