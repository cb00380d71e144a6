import numpy as np
import pytest

from stringlab import datasets
from stringlab.characteristics import build_flow, solve_augmented
from stringlab.finite_volume import (
    CFLError,
    ConservativeState,
    advance,
    conservation_totals,
    flux,
    from_profile,
    lax_friedrichs_step,
    max_signal_speed,
)

E1 = np.array([[1.0, 0.0, 0.0]])


def test_flux_examples():
    fY, fZ, fh, fq = flux(np.zeros((1, 3)), np.zeros((1, 3)))
    assert np.all(fY == 0) and np.all(fZ == 0)
    assert fh[0] == 0.0 and fq[0] == -1.0
    fY, fZ, fh, fq = flux(E1, E1)
    assert np.allclose(fY, E1) and np.allclose(fZ, E1)
    assert fh[0] == 1.0 and fq[0] == 0.0


def test_flux_matches_expanded_algebra():
    rng = np.random.default_rng(8)
    Y = rng.uniform(-1.5, 1.5, (200, 3))
    Z = rng.uniform(-1.5, 1.5, (200, 3))
    fY, fZ, fh, fq = flux(Y, Z)
    # independent expansion, term by term
    q = np.einsum("ij,ij->i", Y, Z)
    h = np.sqrt(1.0 + np.einsum("ij,ij->i", Y, Y) + np.einsum("ij,ij->i", Z, Z) + q * q)
    assert np.max(np.abs(fY - (Z + q[:, None] * Y) / h[:, None])) < 1e-14
    assert np.max(np.abs(fZ - (Y + q[:, None] * Z) / h[:, None])) < 1e-14
    assert np.max(np.abs(fh - q)) < 1e-14
    assert np.max(np.abs(fq - (q * q - 1.0) / h)) < 1e-14


def test_signal_speed_matches_rescaled_speeds():
    rng = np.random.default_rng(9)
    Y = rng.uniform(-1.0, 1.0, (50, 3))
    Z = rng.uniform(-1.0, 1.0, (50, 3))
    q = np.einsum("ij,ij->i", Y, Z)
    h = np.sqrt(1.0 + np.sum(Y**2, 1) + np.sum(Z**2, 1) + q * q)
    v, tau = q / h, 1.0 / h
    assert max_signal_speed(Y, Z) == pytest.approx(np.max(np.abs(v) + tau), abs=1e-15)


def _reference_step(st, dt, cfl_max=0.9):
    """The cell-major Rusanov step, written from `flux` and `max_signal_speed`."""
    speed = max_signal_speed(st.Y, st.Z)
    if dt > cfl_max * st.ds / speed:
        raise CFLError("reference step above the CFL bound")
    lo, hi = (-1, 0) if st.boundary == "periodic" else (0, -1)
    Y = np.concatenate([st.Y[lo][None], st.Y, st.Y[hi][None]])
    Z = np.concatenate([st.Z[lo][None], st.Z, st.Z[hi][None]])
    fY, fZ, q, _ = flux(Y, Z)
    h = np.sqrt(1.0 + np.sum(Y**2, -1) + np.sum(Z**2, -1) + q**2)
    a_cell = (np.abs(q) + 1.0) / h
    a_iface = np.maximum(a_cell[:-1], a_cell[1:])[:, None]
    FY = 0.5 * (fY[:-1] + fY[1:]) - 0.5 * a_iface * (Y[1:] - Y[:-1])
    FZ = 0.5 * (fZ[:-1] + fZ[1:]) - 0.5 * a_iface * (Z[1:] - Z[:-1])
    lam = dt / st.ds
    return ConservativeState(st.s0, st.ds, st.Y - lam * (FY[1:] - FY[:-1]),
                             st.Z - lam * (FZ[1:] - FZ[:-1]), st.boundary)


def _reference_advance(st, t_final, cfl=0.9):
    t, steps = 0.0, 0
    while t < t_final - 1e-14:
        dt = min(cfl * st.ds / max_signal_speed(st.Y, st.Z), t_final - t)
        st = _reference_step(st, dt, cfl)
        t += dt
        steps += 1
    return st, steps


KERNEL_CASES = [
    pytest.param(dict(n=256, d=3, boundary="periodic"), id="periodic-d3"),
    pytest.param(dict(n=200, d=1, boundary="constant"), id="constant-d1"),
]


@pytest.mark.parametrize("kw", KERNEL_CASES)
def test_step_matches_cell_major_reference(kw):
    st = from_profile(datasets.smooth_manifold_profile(**kw))
    dt = 0.8 * st.ds / max_signal_speed(st.Y, st.Z)
    got, want = lax_friedrichs_step(st, dt), _reference_step(st, dt)
    assert np.array_equal(got.Y, want.Y) and np.array_equal(got.Z, want.Z)
    assert got.Y.shape == st.Y.shape and got.boundary == st.boundary


@pytest.mark.parametrize("kw", KERNEL_CASES)
def test_advance_matches_cell_major_reference_over_50_steps(kw):
    st = from_profile(datasets.smooth_manifold_profile(**kw))
    # the time 50 full reference steps reach
    ref, t50 = st, 0.0
    for _ in range(50):
        dt = 0.9 * ref.ds / max_signal_speed(ref.Y, ref.Z)
        ref = _reference_step(ref, dt, 0.9 + 1e-12)
        t50 += dt
    want, want_steps = _reference_advance(st, t50)
    got, steps = advance(st, t50)
    assert steps == want_steps == 50
    assert np.array_equal(got.Y, want.Y) and np.array_equal(got.Z, want.Z)


def test_advance_calls_share_no_scratch():
    # each call allocates its own scratch: calls of different sizes and
    # boundaries in a row give what fresh calls give, and leave their input as it was
    a = from_profile(datasets.smooth_manifold_profile(n=256, d=3))
    b = from_profile(datasets.smooth_manifold_profile(n=200, d=1, boundary="constant"))
    a_in, b_in = (a.Y.copy(), a.Z.copy()), (b.Y.copy(), b.Z.copy())
    first = [advance(a, 0.3), advance(b, 0.3)]
    second = [advance(b, 0.3), advance(a, 0.3)][::-1]
    for (x, nx), (y, ny) in zip(first, second):
        assert nx == ny and np.array_equal(x.Y, y.Y) and np.array_equal(x.Z, y.Z)
    assert np.array_equal(a.Y, a_in[0]) and np.array_equal(a.Z, a_in[1])
    assert np.array_equal(b.Y, b_in[0]) and np.array_equal(b.Z, b_in[1])


@pytest.mark.parametrize("t_final", [-1.0, -1e-300, np.nan, np.inf])
def test_advance_rejects_a_time_it_cannot_reach(t_final):
    # the march only runs forward: at a negative time it would take no step and
    # return the initial state, and at an infinite one it would never end
    st = from_profile(datasets.smooth_manifold_profile(n=64, d=1))
    with pytest.raises(ValueError, match=f"advance needs a finite t_final >= 0; got {t_final!r}"):
        advance(st, t_final)
    assert advance(st, 0.0)[1] == 0


def test_constant_state_is_a_fixed_point():
    p = datasets.constant_profile(0.6, 0.1, [0.3, 0, 0], [0.2, 0.1, 0], n=64)
    st = from_profile(p)
    st2 = lax_friedrichs_step(st, 0.01)
    assert np.array_equal(st2.Y, st.Y) and np.array_equal(st2.Z, st.Z)


def test_cfl_guard():
    p = datasets.smooth_manifold_profile(n=128)
    st = from_profile(p)
    with pytest.raises(CFLError):
        lax_friedrichs_step(st, 10.0 * st.ds)
    # 1% above the bound still raises, on periodic d = 3 and constant d = 1 data
    for kw in (dict(n=256, d=3), dict(n=200, d=1, boundary="constant")):
        st = from_profile(datasets.smooth_manifold_profile(**kw))
        bound = 0.9 * st.ds / max_signal_speed(st.Y, st.Z)
        lax_friedrichs_step(st, 0.99 * bound)
        with pytest.raises(CFLError):
            lax_friedrichs_step(st, 1.01 * bound)
        with pytest.raises(CFLError):
            lax_friedrichs_step(st, 1.01 * bound / 0.9, cfl_max=1.0)


def test_cfl_step_at_exactly_the_bound_is_accepted():
    # dt = cfl ds / speed is the bound the guard prints and `advance` steps
    # at; (cfl ds / speed) speed may round one ulp above cfl ds, which the
    # guard must not read as a violation
    cfl = 0.9
    st = from_profile(datasets.smooth_manifold_profile(n=200, d=1, boundary="constant"))
    for _ in range(50):
        st = lax_friedrichs_step(st, cfl * st.ds / max_signal_speed(st.Y, st.Z), cfl_max=cfl)


def test_totals_require_periodic():
    p = datasets.smooth_manifold_profile(n=64, boundary="constant")
    with pytest.raises(ValueError):
        conservation_totals(from_profile(p))


def test_exact_solution_conserves_derived_totals():
    p = datasets.smooth_manifold_profile(n=4096)
    flow = build_flow(p)
    totals = []
    for t in (0.0, 1.0, 2.0):
        sol = solve_augmented(flow, t)
        totals.append(conservation_totals(from_profile(sol)))
    h_vals = [tt["h"] for tt in totals]
    q_vals = [tt["q"] for tt in totals]
    assert max(h_vals) - min(h_vals) < 1e-6
    assert max(q_vals) - min(q_vals) < 1e-6


def test_conservation_law_residuals_at_truncation_order():
    # dt h + ds q = 0 and dt q + ds((q^2 - 1)/h) = 0 hold for the exact
    # solution up to the centered-difference truncation error
    res = []
    for n in (512, 1024, 2048):
        p = datasets.smooth_manifold_profile(n=n)
        flow = build_flow(p)
        dt = 2.0 * p.ds
        h, q, fq = {}, {}, {}
        for k, t in enumerate((0.7 - dt, 0.7, 0.7 + dt)):
            u = solve_augmented(flow, t).to_hqyz()
            h[k], q[k] = u.h, u.q
            fq[k] = (u.q**2 - 1.0) / u.h

        def ds_of(f):
            return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * p.ds)

        r_h = (h[2] - h[0]) / (2 * dt) + ds_of(q[1])
        r_q = (q[2] - q[0]) / (2 * dt) + ds_of(fq[1])
        res.append(max(float(np.max(np.abs(r_h))), float(np.max(np.abs(r_q)))))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_refinement_error_drops_against_exact_solver():
    errs = []
    for n in (128, 256, 512):
        p = datasets.smooth_manifold_profile(n=n)
        st, _ = advance(from_profile(p), 1.0)
        exact = solve_augmented(p, 1.0).to_hqyz()
        errs.append(float((np.sum(np.abs(st.Y - exact.Y)) + np.sum(np.abs(st.Z - exact.Z))) * st.ds))
    assert all(errs[i] / errs[i + 1] >= 1.7 for i in range(2))


def test_derived_total_drift_vanishes_under_refinement():
    drifts = []
    for n in (128, 256, 512):
        p = datasets.smooth_manifold_profile(n=n)
        st = from_profile(p)
        h0 = conservation_totals(st)["h"]
        st, _ = advance(st, 1.0)
        drifts.append(abs(conservation_totals(st)["h"] - h0))
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8


def test_profile_roundtrip():
    p = datasets.smooth_manifold_profile(n=128)
    st, u = from_profile(p), p.to_hqyz()
    assert (st.s0, st.ds, st.boundary) == (p.s0, p.ds, p.boundary)
    assert np.array_equal(st.Y, u.Y) and np.array_equal(st.Z, u.Z)
    h, q = st.derived()
    assert np.max(np.abs(h - u.h)) < 1e-14 and np.max(np.abs(q - u.q)) < 1e-14
