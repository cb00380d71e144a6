"""Invariant battery behind the `validate` subcommand.

Each check is small, seeded, and deterministic; the runner returns a
machine-readable list of {name, pass, detail} records.  `inject` corrupts
the named check's data on purpose, so the harness itself can be tested.
"""

from __future__ import annotations

import numpy as np

from . import datasets
from .characteristics import (
    admissibility,
    build_flow,
    evolve_states,
    solve_augmented,
    tau_slope_consistency,
    xi_evaluate,
    xi_wave_residual,
)
from .finite_volume import conservation_totals, from_profile, lax_friedrichs_step, max_signal_speed
from .geometry import (
    ManifoldParams,
    StateU,
    decompose_to_m_arrays,
    dual_fields,
    embed_state,
    from_rescaled,
    hamiltonian,
    in_cm,
    in_g,
    in_m,
    membership_forms_agree,
    state_from_blocks,
    to_rescaled,
)
from .profiles import Profile
from .waves import WaveInitialData, branch_residuals, dalembert_wave_solve, oscillatory_family_init
from .weak import TestFunction, oscillate_profile, pairing_matrix


def _random_states(rng, n, d=3):
    tau = rng.uniform(0.2, 1.2, n)
    v = rng.uniform(-0.6, 0.6, n)
    eta = rng.uniform(-0.7, 0.7, (n, d))
    zeta = rng.uniform(-0.7, 0.7, (n, d))
    return StateU(tau, v, eta, zeta)


def random_hull_states(rng, n, alpha, delta, d=3) -> StateU:
    """Uniformish samples of the solid product-of-slabs region CM cap G.

    a+ = v + tau ranges over [alpha + delta, min(1, alpha + 1/delta)] and
    a- = v - tau over [max(-1, alpha - 1/delta), alpha - delta]; both are
    nonempty for |alpha| + delta < 1.
    """
    a_p = rng.uniform(alpha + delta, min(1.0, alpha + 1.0 / delta), n)
    a_m = rng.uniform(max(-1.0, alpha - 1.0 / delta), alpha - delta, n)
    blocks = []
    for a in (a_p, a_m):
        r = np.sqrt(1.0 - a**2)
        dirs = rng.normal(size=(n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = r * rng.uniform(0.0, 1.0, n) ** (1.0 / d)
        blocks.append(radii[:, None] * dirs)
    return state_from_blocks(a_p, a_m, blocks[0], blocks[1])


def legendre_bruteforce(Y, Z) -> float:
    """Grid maximization of Z.W - L(Y, W) in four zooming rounds.

    The domain (1+Y^2)(1-W^2)+(YW)^2 >= 0 lies in the ball |W| <= sqrt(1+Y^2),
    which bounds the initial search box; no code is shared with `hamiltonian`."""
    d = len(Y)
    center = np.zeros(d)
    half = float(np.sqrt(1.0 + np.dot(Y, Y)))
    best = -np.inf
    for r in range(4):
        coarse = 41 if r == 0 else 21
        axes = [np.linspace(center[k] - half, center[k] + half, coarse) for k in range(d)]
        # |W|^2, W.Y and W.Z on the product grid, by broadcasting the axes
        w2 = wy = wz = 0.0
        for k, a in enumerate(axes):
            a = a.reshape((1,) * k + (coarse,) + (1,) * (d - 1 - k))
            w2, wy, wz = w2 + a * a, wy + a * Y[k], wz + a * Z[k]
        rad = (1.0 + np.dot(Y, Y)) * (1.0 - w2) + wy**2
        val = np.where(rad >= 0.0, wz + np.sqrt(np.maximum(rad, 0.0)), -np.inf)
        i = np.unravel_index(int(np.argmax(val)), val.shape)
        best = max(best, float(val[i]))
        step = 2.0 * half / (coarse - 1)
        center, half = np.array([a[j] for a, j in zip(axes, i)]), 2.0 * step
    return best


def check_legendre_duality(rng, inject=False) -> dict:
    worst = 0.0
    for _ in range(20):
        Y = rng.uniform(-1.5, 1.5, 3)
        Z = rng.uniform(-1.5, 1.5, 3)
        h, _ = hamiltonian(Y, Z)
        if inject:
            h += 1e-2
        worst = max(worst, abs(h - legendre_bruteforce(Y, Z)))
    return {"pass": worst <= 1e-4, "detail": f"max closed-vs-brute gap {worst:.3e}"}


def check_embedding_constraint(rng, inject=False) -> dict:
    Y = rng.uniform(-1.2, 1.2, (200, 3))
    W = rng.uniform(-0.55, 0.55, (200, 3))
    U = embed_state(Y, W)
    if inject:
        U.tau = U.tau + 1e-6
    worst = max(float(np.max(np.abs(U.sum_squares() - 1.0))),
                float(np.max(np.abs(U.cross()))))
    return {"pass": worst <= 1e-12, "detail": f"max constraint residual {worst:.3e}"}


def check_dual_identity(rng, inject=False) -> dict:
    Y = rng.uniform(-1.5, 1.5, (300, 3))
    Z = rng.uniform(-1.5, 1.5, (300, 3))
    V, W = dual_fields(Y, Z)
    lhs = np.sum(W * V, axis=1)
    rhs = np.sum(Y * Z, axis=1) + (1e-6 if inject else 0.0)
    worst = float(np.max(np.abs(lhs - rhs)))
    return {"pass": worst <= 1e-12, "detail": f"max |W.V - Y.Z| {worst:.3e}"}


def check_transform_roundtrip(rng, inject=False) -> dict:
    U = _random_states(rng, 500)
    back = to_rescaled(from_rescaled(U))
    if inject:
        back.v = back.v + 1e-9
    worst = max(
        float(np.max(np.abs(back.tau - U.tau))), float(np.max(np.abs(back.v - U.v))),
        float(np.max(np.abs(back.eta - U.eta))), float(np.max(np.abs(back.zeta - U.zeta))),
    )
    return {"pass": worst <= 1e-14, "detail": f"max round-trip error {worst:.3e}"}


def check_membership_forms(rng, inject=False) -> dict:
    params = ManifoldParams(0.0, 0.4)
    on = random_hull_states(rng, 3000, params.alpha, params.delta)
    # lift half of them onto the manifold for mixed verdicts
    w, tau, v, eta, zeta = decompose_to_m_arrays(on, params)
    lifted = StateU(tau[:, 0], v[:, 0], eta[:, 0], zeta[:, 0])
    off = _random_states(rng, 4000)
    batches = [on, lifted, off]
    if inject:
        # a state straddling the tolerance shell where the forms disagree:
        # quadratic residuals (A, B) = (1.5 tol, -0.7 tol) fail the quadratic
        # test but keep both block residuals A +- 2B inside 3 tol
        A, B = 1.5e-10, -0.7e-10
        straddle = state_from_blocks(
            np.sqrt(1.0 + A + 2 * B) * np.array(0.6),
            -np.sqrt(1.0 + A - 2 * B) * np.array(0.6),
            np.sqrt((1.0 + A + 2 * B) * (1.0 - 0.36)) * np.array([1.0, 0.0, 0.0]),
            np.sqrt((1.0 + A - 2 * B) * (1.0 - 0.36)) * np.array([0.0, 1.0, 0.0]),
        )
        batches.append(straddle)
    ok = True
    for U in batches:
        ok = ok and bool(np.all(membership_forms_agree(U, 1e-10)))
    n_m = int(np.sum(in_m(lifted, 1e-10)))
    return {"pass": ok and n_m == len(lifted.tau),
            "detail": f"forms agree on mixed verdicts; {n_m} lifted states on manifold"}


def check_decomposition(rng, inject=False) -> dict:
    params = ManifoldParams(0.0, 0.4)
    U = random_hull_states(rng, 500, params.alpha, params.delta)
    w, tau, v, eta, zeta = decompose_to_m_arrays(U, params)
    rec_eta = np.sum(w[..., None] * eta, axis=1)
    rec_zeta = np.sum(w[..., None] * zeta, axis=1)
    if inject:
        rec_eta = rec_eta + 1e-10
    err = max(float(np.max(np.abs(rec_eta - U.eta))), float(np.max(np.abs(rec_zeta - U.zeta))),
              float(np.max(np.abs(np.sum(w, axis=1) - 1.0))))
    pts = StateU(tau, v, eta, zeta)
    mask = w > 0.0
    member = (in_m(pts, 1e-12) & in_g(pts, params.alpha, params.delta, 1e-12)) | ~mask
    return {"pass": err < 1e-12 and bool(np.all(member)),
            "detail": f"recombination error {err:.3e}; all weighted points in M cap G"}


def check_hull_convexity(rng, inject=False) -> dict:
    params = ManifoldParams(0.0, 0.4)
    U = random_hull_states(rng, 400, params.alpha, params.delta)
    _, tau, v, eta, zeta = decompose_to_m_arrays(U, params)
    lam = rng.uniform(0.0, 1.0, 400)
    mix = StateU(
        lam * tau[:, 0] + (1 - lam) * tau[:, 3],
        lam * v[:, 0] + (1 - lam) * v[:, 3],
        lam[:, None] * eta[:, 0] + (1 - lam[:, None]) * eta[:, 3],
        lam[:, None] * zeta[:, 0] + (1 - lam[:, None]) * zeta[:, 3],
    )
    if inject:
        mix.tau = mix.tau * (1.0 + 1e-3)
    ok = bool(np.all(in_cm(mix, 1e-10) & in_g(mix, params.alpha, params.delta, 1e-10)))
    return {"pass": ok, "detail": "segments between manifold points stay in CM cap G"}


def check_wave_propagation(rng, inject=False) -> dict:
    init = oscillatory_family_init(4, n=2048)
    g = dalembert_wave_solve(init, 0.8 + (0.3 if inject else 0.0))
    if inject:
        g.dXdt = g.dXdt * 1.001
    evolved = WaveInitialData(init.kappa, init.s0, init.ds, g.X, g.dXdt, g.dXds)
    worst = max(float(np.max(np.abs(r))) for r in branch_residuals(evolved))
    return {"pass": worst <= 1e-10, "detail": f"branch residual after transport {worst:.3e}"}


def check_flow_bounds(rng, inject=False) -> dict:
    p = datasets.smooth_manifold_profile(n=1024, d=3)
    flow = build_flow(p)
    _, _, dxi = xi_evaluate(flow, np.array([[-2.0], [0.0], [1.5]]), np.linspace(-8.0, 8.0, 300))
    worst_lo, worst_hi = float(np.min(dxi)), float(np.max(dxi))
    if inject:
        worst_lo = flow.delta - 1e-3
    lo_ok = worst_lo >= flow.delta - 1e-10
    hi_ok = worst_hi <= 1.0 / flow.delta + 1e-10
    return {"pass": lo_ok and hi_ok,
            "detail": f"dy xi in [{worst_lo:.6f}, {worst_hi:.6f}], window "
                      f"[{flow.delta:.6f}, {1.0 / flow.delta:.6f}]"}


def check_solver_membership(rng, inject=False) -> dict:
    p = datasets.smooth_manifold_profile(n=2048, d=3)
    flow = build_flow(p)
    worst = 0.0
    for t in (-1.0, 0.3, 2.0):
        sol = solve_augmented(flow, t)
        U = sol.state()
        worst = max(worst, float(np.max(np.abs(U.sum_squares() - 1.0))),
                    float(np.max(np.abs(U.cross()))))
    if inject:
        worst += 1e-6
    return {"pass": worst <= 1e-6, "detail": f"manifold drift after evolution {worst:.3e}"}


def check_tau_consistency(rng, inject=False) -> dict:
    p = datasets.smooth_manifold_profile(n=2048, d=3)
    flow = build_flow(p)
    dev = tau_slope_consistency(flow, 0.7, p.s_samples)
    if inject:
        dev += 1e-2
    return {"pass": dev <= 5e-4, "detail": f"max |dxi/dy - tau| across samples {dev:.3e}"}


def check_finite_propagation(rng, inject=False) -> dict:
    n, d = 512, 3
    s0, period = -2 * np.pi, 4 * np.pi
    ds = period / n
    s = s0 + ds * np.arange(n)
    bump = np.exp(-8.0 * s**2) * (np.abs(s) < 2.0)
    tau = 0.6 + 0.05 * bump
    v = 0.03 * bump
    eta = np.zeros((n, d))
    eta[:, 0] = 0.2 * bump
    p = Profile(s0, ds, tau, v, eta, np.zeros((n, d)), "constant")
    flow = build_flow(p)
    t = 1.5
    c_max = float(np.max(np.abs(p.v) + p.tau))
    far = np.array([2.0 + c_max * t + 0.5, -2.0 - c_max * t - 0.5])
    if inject:
        far = far / 2.0
    U = evolve_states(flow, t, far)
    worst = max(float(np.max(np.abs(U.tau - 0.6))), float(np.max(np.abs(U.v))),
                float(np.max(np.abs(U.eta))), float(np.max(np.abs(U.zeta))))
    return {"pass": worst <= 1e-12, "detail": f"tail deviation beyond the light cone {worst:.3e}"}


def check_fv_conservation(rng, inject=False) -> dict:
    p = datasets.smooth_manifold_profile(n=256, d=3)
    st = from_profile(p)
    tot0 = conservation_totals(st)
    for _ in range(100):
        st = lax_friedrichs_step(st, 0.8 * st.ds / max_signal_speed(st.Y, st.Z))
    tot1 = conservation_totals(st)
    drift = max(float(np.max(np.abs(tot1["Y"] - tot0["Y"]))),
                float(np.max(np.abs(tot1["Z"] - tot0["Z"]))))
    if inject:
        drift += 1e-9
    return {"pass": drift <= 1e-12, "detail": f"evolved-total drift over 100 steps {drift:.3e}"}


def check_test_function_normalization(rng, inject=False) -> dict:
    worst = 0.0
    for g in (TestFunction.gaussian(0.3, 0.7), TestFunction.hat(-1.0, 1.3),
              TestFunction.indicator(-2.0, 1.5)):
        lo, hi = g.support(1e-18)
        grid = np.linspace(lo, hi, 400001)
        quad = np.trapezoid(np.abs(g(grid)), grid)
        ref = g.normalization + (1e-8 if inject else 0.0)
        worst = max(worst, abs(quad - ref))
    return {"pass": worst <= 1e-10, "detail": f"max |quadrature - closed form| {worst:.3e}"}


def check_oscillation_layouts(rng, inject=False) -> dict:
    base = datasets.subrelativistic_wave_base(cells=101)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    g = TestFunction.gaussian(0.5, 0.9)
    osc_f, plan = oscillate_profile(base, 32, params, m=64, layout="forward")
    osc_r, _ = oscillate_profile(base, 32, params, m=64, layout="reversed")
    pf = pairing_matrix(osc_f, g)
    pr = pairing_matrix(osc_r, g)
    pb = pairing_matrix(base, g)
    gap_f = float(np.max(np.abs(pf - pb)))
    gap_r = float(np.max(np.abs(pr - pb)))
    if inject:
        gap_r += 1.0
    scale = 4.0 / plan.n_eff
    return {"pass": gap_f <= scale and gap_r <= scale,
            "detail": f"layout gaps to base {gap_f:.3e} / {gap_r:.3e} (bound {scale:.3e})"}


def check_xi_wave_equation(rng, inject=False) -> dict:
    res = []
    for n in (512, 1024):
        p = datasets.smooth_manifold_profile(n=n, d=3)
        flow = build_flow(p)
        res.append(xi_wave_residual(flow, [0.4, 1.1], np.linspace(-2, 2, 21),
                                    8.0 * p.period / n))
    order = float(np.log2(res[0] / res[1]))
    if inject:
        order -= 1.0
    return {"pass": order >= 1.9, "detail": f"wave-residual order {order:.3f} "
                                            f"(residuals {res[0]:.2e} -> {res[1]:.2e})"}


CHECKS = {
    "legendre_duality": check_legendre_duality,
    "embedding_constraint": check_embedding_constraint,
    "dual_identity": check_dual_identity,
    "transform_roundtrip": check_transform_roundtrip,
    "membership_forms": check_membership_forms,
    "decomposition": check_decomposition,
    "hull_convexity": check_hull_convexity,
    "wave_propagation": check_wave_propagation,
    "flow_bounds": check_flow_bounds,
    "solver_membership": check_solver_membership,
    "tau_consistency": check_tau_consistency,
    "finite_propagation": check_finite_propagation,
    "fv_conservation": check_fv_conservation,
    "test_function_normalization": check_test_function_normalization,
    "oscillation_layouts": check_oscillation_layouts,
    "xi_wave_equation": check_xi_wave_equation,
}


def run_validation(seed: int = 0, inject: str | None = None) -> dict:
    """Run every invariant check with one seed; `inject` forces one to fail."""
    if inject is not None and inject not in CHECKS:
        raise ValueError(f"unknown check {inject!r}; available: {sorted(CHECKS)}")
    results = []
    for name in sorted(CHECKS):
        rng = np.random.default_rng(seed)
        rec = CHECKS[name](rng, inject=(name == inject))
        results.append({"name": name, "pass": bool(rec["pass"]), "detail": rec["detail"]})
    return {
        "experiment": "validate",
        "params": {"seed": seed, "inject": inject},
        "results": results,
        "pass": all(r["pass"] for r in results),
    }
