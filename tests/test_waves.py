import numpy as np
import pytest

from stringlab import waves
from stringlab.geometry import SuperluminalError, in_cm, in_m
from stringlab.waves import (
    StringGraph,
    WaveInitialData,
    check_relativistic_init,
    check_subrelativistic_init,
    dalembert_wave_solve,
    oscillatory_family_init,
    oscillatory_limit_init,
    oscillatory_limit_solution,
    wave_initial_from_functions,
    wave_to_augmented,
)

KAPPA = 2.0 ** -0.5


def test_oscillatory_init_values_at_zero():
    init = oscillatory_family_init(2)
    i0 = int(round((0.0 - init.s0) / init.ds))
    assert init.s_samples[i0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(init.x0[i0], [0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(init.dx0[i0], [0.0, 1.0, 0.0], atol=1e-12)
    assert init.kappa == KAPPA


def test_oscillatory_init_unit_tangent_and_constraints():
    for mode in (2, 7):
        init = oscillatory_family_init(mode)
        assert np.max(np.abs(np.sum(init.dx0**2, axis=1) - 1.0)) < 1e-12
        assert check_relativistic_init(init, 1e-10)
        assert check_subrelativistic_init(init, 1e-10)


def test_oscillatory_derivative_matches_position_profile():
    # the analytic tangent must be the s-derivative of the analytic positions
    for mode in (2, 6):
        init = oscillatory_family_init(mode)
        s = np.linspace(-3.0, 3.0, 400)
        eps = 1e-6
        fd = (init.x0_fn(s + eps) - init.x0_fn(s - eps)) / (2 * eps)
        assert np.max(np.abs(fd - init.dx0_fn(s))) < 1e-8


def test_oscillatory_init_mode_validation():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            oscillatory_family_init(bad)


def test_limit_data_is_subrelativistic_only():
    lim = oscillatory_limit_init()
    assert not check_relativistic_init(lim, 1e-10)
    assert check_subrelativistic_init(lim, 1e-10)


def test_dalembert_trivial_cases():
    # constant X0, zero V0: frozen string
    def x0_fn(s):
        s = np.asarray(s)
        return np.stack([np.full_like(s, 2.0), np.zeros_like(s)], axis=-1)

    def zero(s):
        s = np.asarray(s)
        return np.zeros(s.shape + (2,))

    init = wave_initial_from_functions(0.5, x0_fn, zero, zero, n=128)
    g = dalembert_wave_solve(init, 3.7)
    assert np.max(np.abs(g.X - [2.0, 0.0])) == 0.0
    # t = 0 returns the initial data exactly
    init2 = oscillatory_family_init(3, n=512)
    g0 = dalembert_wave_solve(init2, 0.0)
    assert np.max(np.abs(g0.X - init2.x0)) < 1e-15
    assert np.max(np.abs(g0.dXdt - init2.v0)) < 1e-15


def test_dalembert_limit_closed_form():
    lim = oscillatory_limit_init(n=512)
    for t in (0.3, -2.2, 5.0):
        g = dalembert_wave_solve(lim, t)
        assert np.max(np.abs(g.X - oscillatory_limit_solution(t, g.s_samples))) < 1e-14


def test_dalembert_velocity_integral_closed_form():
    # X0 = 0, V0 = sin(s) e1  ->  X = sin(s) sin(k t)/k e1, from sampled data
    k = 0.6

    def zero(s):
        s = np.asarray(s)
        return np.zeros(s.shape + (1,))

    n = 2048
    ds = 4.0 * np.pi / n
    s = -2.0 * np.pi + ds * np.arange(n)
    init = WaveInitialData(k, -2.0 * np.pi, ds, np.zeros((n, 1)),
                           np.sin(s)[:, None], np.zeros((n, 1)))
    for t in (0.4, 1.7):
        g = dalembert_wave_solve(init, t)
        want = (np.sin(g.s_samples) * np.sin(k * t) / k)[:, None]
        assert np.max(np.abs(g.X - want)) < 5e-6  # O(ds^2) from sampled V0
        want_t = (np.sin(g.s_samples) * np.cos(k * t))[:, None]
        assert np.max(np.abs(g.dXdt - want_t)) < 5e-6


def test_constraint_propagation_along_evolution():
    init = oscillatory_family_init(4, n=1024)
    for t in (0.7, -1.9):
        g = dalembert_wave_solve(init, t)
        evolved = WaveInitialData(init.kappa, init.s0, init.ds, g.X, g.dXdt, g.dXds)
        assert check_relativistic_init(evolved, 1e-10)
    lim = oscillatory_limit_init(n=1024)
    g = dalembert_wave_solve(lim, 1.3)
    evolved = WaveInitialData(lim.kappa, lim.s0, lim.ds, g.X, g.dXdt, g.dXds)
    assert check_subrelativistic_init(evolved, 1e-10)
    assert not check_relativistic_init(evolved, 1e-10)


def test_uniform_convergence_rate_of_family():
    tt = np.linspace(-2 * np.pi, 2 * np.pi, 129)
    ss = np.linspace(-2 * np.pi, 2 * np.pi, 257)
    sups = []
    for mode in (8, 16, 32, 64):
        init = oscillatory_family_init(mode)
        worst = 0.0
        for t in tt:
            g = dalembert_wave_solve(init, float(t), ss)
            worst = max(worst, float(np.max(np.linalg.norm(
                g.X - oscillatory_limit_solution(float(t), ss), axis=-1))))
        sups.append(worst)
    ratios = [sups[i] / sups[i + 1] for i in range(3)]
    assert all(1.6 <= r <= 2.4 for r in ratios)
    # C/n bound with C independent of n
    assert max(s * m for s, m in zip(sups, (8, 16, 32, 64))) < 2.5


def test_time_translation_commutes():
    init = oscillatory_family_init(3, n=4096)
    t1, t2 = 0.8, 1.1
    g1 = dalembert_wave_solve(init, t1)
    resampled = WaveInitialData(init.kappa, init.s0, init.ds, g1.X, g1.dXdt, g1.dXds)
    g12 = dalembert_wave_solve(resampled, t2)
    direct = dalembert_wave_solve(init, t1 + t2)
    # resampling error is bounded by the interpolation scale ds^2 * curvature
    curv = float(np.max(np.abs(np.diff(g1.X, 2, axis=0)))) / init.ds**2
    assert np.max(np.abs(g12.X - direct.X)) < 10 * init.ds**2 * max(curv, 1.0)


def test_constant_extension_tail_guard():
    # nonflat data queried beyond its support must fail loudly
    n = 64
    ds = 0.1
    s = ds * np.arange(n)
    from stringlab.geometry import DomainError

    init = WaveInitialData(0.5, 0.0, ds, np.sin(s)[:, None], np.zeros((n, 1)),
                           np.cos(s)[:, None], boundary="constant")
    with pytest.raises(DomainError):
        dalembert_wave_solve(init, 100.0)


def test_wave_to_augmented_memberships():
    init = oscillatory_family_init(5, n=1024)
    U = wave_to_augmented(init).state()
    assert np.all(U.tau == KAPPA) and np.all(U.v == 0.0)
    assert np.all(in_m(U, 1e-10))
    lim = wave_to_augmented(oscillatory_limit_init(n=1024)).state()
    assert np.all(in_cm(lim, 1e-10))
    assert not np.all(in_m(lim, 1e-10))

    def zero(s):
        s = np.asarray(s)
        return np.zeros(s.shape + (3,))

    flat = wave_initial_from_functions(KAPPA, zero, zero, zero, n=64)
    Uz = wave_to_augmented(flat).state()
    assert np.all(in_cm(Uz, 1e-12))
    assert np.all(Uz.tau == KAPPA)


def test_area_coefficients_of_relativistic_wave():
    # under the branch constraints: A = kappa (1 + |ds X|^2), B = 1/kappa, C = 0, D = kappa
    init = oscillatory_family_init(2, n=512)
    g = dalembert_wave_solve(init, 0.6)
    A, B, C, D = g.area_coefficients()
    y2 = np.sum(g.dXds**2, axis=1)
    assert np.max(np.abs(A - KAPPA * (1.0 + y2))) < 1e-12
    assert np.max(np.abs(B - 1.0 / KAPPA)) < 1e-12
    assert np.max(np.abs(C)) < 1e-12
    assert np.max(np.abs(D - KAPPA)) < 1e-12


def test_area_coefficients_superluminal_guard():
    g = StringGraph(0.0, 0.0, 0.1, np.zeros((4, 1)), np.zeros((4, 1)),
                    np.full((4, 1), 1.5))
    with pytest.raises(SuperluminalError):
        g.area_coefficients()


def _eager_solve(init, t):
    """The d'Alembert formula with every field evaluated at call time."""
    k = init.kappa
    qp, qm = init.s_samples + k * t, init.s_samples - k * t
    dp, dm = waves._eval_dx0(init, qp), waves._eval_dx0(init, qm)
    vp, vm = waves._eval_v0(init, qp), waves._eval_v0(init, qm)
    X = 0.5 * (waves._eval_x0(init, qp) + waves._eval_x0(init, qm))
    dXds = 0.5 * (dp + dm)
    if np.any(init.v0):
        X = X + (waves._v0_antiderivative(init, qp) - waves._v0_antiderivative(init, qm)) / (2.0 * k)
        dXds = dXds + (vp - vm) / (2.0 * k)
    return X, dXds, 0.5 * k * (dp - dm) + 0.5 * (vp + vm)


def _sampled_moving_init():
    n = 256
    ds = 4.0 * np.pi / n
    s = -2.0 * np.pi + ds * np.arange(n)
    return WaveInitialData(0.6, -2.0 * np.pi, ds, np.c_[np.cos(s), np.sin(2 * s)],
                           np.c_[np.sin(s), 0.3 * np.cos(s)], np.c_[-np.sin(s), 2 * np.cos(2 * s)])


def _constant_boundary_init():
    n = 256
    ds = 0.05
    s = -6.4 + ds * np.arange(n)
    bump = np.exp(-4.0 * s**2)
    return WaveInitialData(0.5, -6.4, ds, bump[:, None], 0.1 * bump[:, None],
                           (-8.0 * s * bump)[:, None], boundary="constant")


@pytest.mark.parametrize("make, times", [
    (lambda: oscillatory_family_init(8, n=512), (0.3, -5.0, 7.7)),
    (_sampled_moving_init, (0.3, -5.0, 7.7)),
    (_constant_boundary_init, (0.3, -1.5, 20.0)),
], ids=["analytic", "sampled_moving", "constant_boundary"])
def test_deferred_fields_equal_the_eager_formula(make, times):
    # one call per time, and one call on the (t, s) lattice whose rows are the times
    init = make()
    lattice = dalembert_wave_solve(init, np.array(times)[:, None])
    assert lattice.X.shape == (len(times), init.n, init.d) and (lattice.n, lattice.d) == (init.n, init.d)
    for i, t in enumerate(times):
        g = dalembert_wave_solve(init, t)
        X, dXds, dXdt = _eager_solve(init, t)
        for fields in (g.X, g.dXds, g.dXdt), (lattice.X[i], lattice.dXds[i], lattice.dXdt[i]):
            assert all(np.array_equal(a, b) for a, b in zip(fields, (X, dXds, dXdt)))


def test_reading_x_never_evaluates_the_derivative_data():
    calls = {"x0": 0, "dx0": 0, "v0": 0}

    def counted(name, f):
        def wrapped(s):
            calls[name] += 1
            return f(s)
        return wrapped

    ref = oscillatory_family_init(5, n=256)
    init = wave_initial_from_functions(
        ref.kappa, counted("x0", ref.x0_fn), counted("v0", lambda s: 0.1 * ref.dx0_fn(s)),
        counted("dx0", ref.dx0_fn), n=256)
    for t, shape in ((0.9, (256, 3)), (np.array([[0.2], [0.9], [1.4]]), (3, 256, 3))):
        calls.update(x0=0, dx0=0, v0=0)
        g = dalembert_wave_solve(init, t)
        assert g.X.shape == shape
        # one call per field on both feet at once, at every time of the call
        assert calls == {"x0": 1, "dx0": 0, "v0": 0}
        first = g.dXds
        assert g.dXds is first
        assert calls == {"x0": 1, "dx0": 1, "v0": 1}
        g.dXdt
        assert calls == {"x0": 1, "dx0": 1, "v0": 1}


def test_assigning_a_deferred_field_keeps_the_other():
    init = _sampled_moving_init()
    _, dXds, dXdt = _eager_solve(init, 0.8)
    g = dalembert_wave_solve(init, 0.8)
    g.dXdt = 2.0 * g.dXdt
    assert np.array_equal(g.dXdt, 2.0 * dXdt)
    assert np.array_equal(g.dXds, dXds)
    h = dalembert_wave_solve(init, 0.8)
    h.dXds = np.zeros_like(dXds)
    assert np.array_equal(h.dXdt, dXdt) and not np.any(h.dXds)


def test_dalembert_wave_solve_output_grid():
    init = oscillatory_family_init(2, n=256)
    with pytest.raises(ValueError, match=r"s_out\[2\] = 0.5 is off the uniform grid"):
        dalembert_wave_solve(init, 0.3, np.array([0.0, 0.1, 0.5]))


@pytest.mark.parametrize("boundary", ["periodic", "constant"])
def test_v0_antiderivative_is_the_trapezoid_integral(boundary):
    # the integral from s0 of the linear interpolant of random moving v0
    # (periodic, or constant beyond the ends), summed cell by cell over the
    # extended samples, at points up to 20 beyond the window
    rng = np.random.default_rng(5)
    n, ds, s0 = 64, 0.2, -6.4
    v0 = rng.uniform(-0.5, 0.5, size=(n, 2))
    init = WaveInitialData(0.6, s0, ds, np.zeros((n, 2)), v0, np.zeros((n, 2)), boundary)
    q = np.r_[rng.uniform(s0 - 20.0, s0 + n * ds + 20.0, 2001), s0 - 20.0, s0 + n * ds + 20.0]
    lo, hi = int(np.floor((q.min() - s0) / ds)) - 1, int(np.ceil((q.max() - s0) / ds)) + 1
    idx = np.arange(lo, hi + 1)
    ext = v0[idx % n] if boundary == "periodic" else v0[np.clip(idx, 0, n - 1)]
    nodes = np.concatenate([np.zeros((1, 2)), np.cumsum(0.5 * ds * (ext[1:] + ext[:-1]), axis=0)])
    nodes -= nodes[-lo]  # zero at s0
    u = (q - s0) / ds
    k = np.floor(u).astype(int) - lo
    t = (u - np.floor(u))[:, None]
    want = nodes[k] + ds * (ext[k] * t + 0.5 * (ext[k + 1] - ext[k]) * t**2)
    assert np.max(np.abs(waves._v0_antiderivative(init, q) - want)) < 1e-13

