import numpy as np
import pytest

from stringlab.geometry import (
    DomainError,
    ManifoldParams,
    StateHQYZ,
    StateU,
    SuperluminalError,
    decompose_to_m_arrays,
    dual_fields,
    embed_state,
    from_rescaled,
    hamiltonian,
    in_cm,
    in_g,
    in_m,
    in_m_eps,
    in_s_kappa,
    lagrangian,
    membership_forms_agree,
    to_rescaled,
)

from _oracles import lagrangian_reference, legendre_bruteforce, random_hull_states

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
KAPPA = 2.0 ** -0.5


# -- Lagrangian and Hamiltonian ---------------------------------------------

def test_lagrangian_examples():
    assert lagrangian(np.zeros(3), np.zeros(3)) == -1.0
    assert lagrangian(E1, np.zeros(3)) == pytest.approx(-np.sqrt(2.0), abs=0)
    # radicand (1+1)(1-0.25)+0 = 1.5
    got = lagrangian(E1, 0.5 * E2)
    assert got == pytest.approx(-np.sqrt(1.5), abs=1e-15)
    assert got == pytest.approx(lagrangian_reference(E1, 0.5 * E2), abs=1e-15)


def test_lagrangian_superluminal():
    with pytest.raises(SuperluminalError):
        lagrangian(np.zeros(3), 2.0 * E1)


def test_hamiltonian_examples():
    h, q = hamiltonian(np.zeros(3), np.zeros(3))
    assert h == 1.0 and q == 0.0
    h, q = hamiltonian(E1, E1)
    assert h == 2.0 and q == 1.0


def test_hamiltonian_matches_bruteforce_legendre():
    rng = np.random.default_rng(42)
    for _ in range(25):
        Y = rng.uniform(-1.5, 1.5, 3)
        Z = rng.uniform(-1.5, 1.5, 3)
        h, _ = hamiltonian(Y, Z)
        assert abs(h - legendre_bruteforce(Y, Z)) < 1e-4


def test_dual_fields_examples_and_identity():
    V, W = dual_fields(np.zeros(3), np.zeros(3))
    assert np.all(V == 0) and np.all(W == 0)
    V, W = dual_fields(E1, E1)
    assert np.allclose(V, E1) and np.allclose(W, E1)
    rng = np.random.default_rng(7)
    Y = rng.uniform(-1.5, 1.5, (200, 3))
    Z = rng.uniform(-1.5, 1.5, (200, 3))
    V, W = dual_fields(Y, Z)
    assert np.max(np.abs(np.sum(W * V, axis=1) - np.sum(Y * Z, axis=1))) < 1e-12


def test_dual_w_bounded_when_q_small():
    # |W| < 1 holds on the |q| <= 1 subdomain (wave states have q = 0)
    rng = np.random.default_rng(11)
    Y = rng.uniform(-1.0, 1.0, (100, 3))
    Z = np.cross(Y, rng.uniform(-1.0, 1.0, (100, 3)))  # Y.Z = 0
    _, W = dual_fields(Y, Z)
    assert np.max(np.sum(W**2, axis=1)) < 1.0


# -- perspective transform ---------------------------------------------------

def test_rescale_examples():
    U = to_rescaled(StateHQYZ(1.0, 0.0, np.zeros(3), np.zeros(3)))
    assert U.tau == 1.0 and U.v == 0.0
    U = to_rescaled(StateHQYZ(2.0, 1.0, E1, E1))
    assert U.tau == 0.5 and U.v == 0.5
    assert np.allclose(U.eta, 0.5 * E1) and np.allclose(U.zeta, 0.5 * E1)


def test_rescale_roundtrip():
    rng = np.random.default_rng(3)
    h = rng.uniform(1.0, 5.0, 1000)
    q = rng.uniform(-2.0, 2.0, 1000)
    Y = rng.uniform(-2.0, 2.0, (1000, 3))
    Z = rng.uniform(-2.0, 2.0, (1000, 3))
    u = StateHQYZ(h, q, Y, Z)
    back = from_rescaled(to_rescaled(u))
    worst = max(np.max(np.abs(back.h - h)), np.max(np.abs(back.q - q)),
                np.max(np.abs(back.Y - Y)), np.max(np.abs(back.Z - Z)))
    assert worst < 1e-14


def test_rescale_domain_errors():
    with pytest.raises(DomainError):
        to_rescaled(StateHQYZ(0.0, 0.0, np.zeros(3), np.zeros(3)))
    with pytest.raises(DomainError):
        from_rescaled(StateU(-0.1, 0.0, np.zeros(3), np.zeros(3)))


def test_transform_preserves_segments():
    # images of straight segments remain straight (reweighted combinations)
    rng = np.random.default_rng(9)
    A = StateU(0.5, 0.1, rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3))
    B = StateU(0.8, -0.2, rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3))
    lam = 0.3
    mid = StateU(lam * A.tau + (1 - lam) * B.tau, lam * A.v + (1 - lam) * B.v,
                 lam * A.eta + (1 - lam) * B.eta, lam * A.zeta + (1 - lam) * B.zeta)
    ua, ub, um = from_rescaled(A), from_rescaled(B), from_rescaled(mid)
    # um must lie on the segment [ua, ub]: solve the weight from the h-coordinate
    w = (um.h - ub.h) / (ua.h - ub.h)
    assert abs(w * ua.q + (1 - w) * ub.q - um.q) < 1e-12
    assert np.max(np.abs(w * ua.Y + (1 - w) * ub.Y - um.Y)) < 1e-12


# -- embedding ----------------------------------------------------------------

def test_embed_examples():
    U = embed_state(np.zeros(3), np.zeros(3))
    assert U.tau == 1.0 and U.v == 0.0
    assert np.all(U.eta == 0) and np.all(U.zeta == 0)
    # unit-speed oscillatory tangent at arbitrary s and mode
    for s, mode in ((0.3, 2), (-1.2, 5)):
        Y = np.array([-np.sin(s), np.cos(s) * np.cos(mode * s), -np.cos(s) * np.sin(mode * s)])
        U = embed_state(Y, np.zeros(3))
        assert U.tau == pytest.approx(KAPPA, abs=1e-15)
        assert U.v == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(U.eta, KAPPA * Y, atol=1e-15)
        assert np.allclose(U.zeta, 0.0)


def test_embed_constraint_identity():
    rng = np.random.default_rng(15)
    Y = rng.uniform(-1.2, 1.2, (500, 3))
    W = rng.uniform(-0.55, 0.55, (500, 3))
    U = embed_state(Y, W)
    assert np.max(np.abs(U.sum_squares() - 1.0)) < 1e-12
    assert np.max(np.abs(U.cross())) < 1e-12
    assert np.min(U.tau) > 0.0


# -- membership ---------------------------------------------------------------

def test_membership_examples():
    Y0 = np.array([0.6, 0.8, 0.0])
    wave = StateU(KAPPA, 0.0, KAPPA * Y0, np.zeros(3))
    assert in_m(wave)
    assert in_s_kappa(wave, KAPPA)
    hull = StateU(0.5, 0.0, np.zeros(3), np.zeros(3))
    assert in_cm(hull)
    assert not in_m(hull)
    assert in_g(hull, 0.0, 0.4)  # 0.5 in [0.4, 2.5] on both branches
    assert in_cm(hull) & in_g(hull, 0.0, 0.4)
    assert not in_g(StateU(0.3, 0.0, np.zeros(3), np.zeros(3)), 0.0, 0.4)
    assert in_m_eps(wave, 1)
    assert in_m_eps(wave, -1)


def test_membership_unknown_set():
    with pytest.raises(ValueError):
        in_m_eps(StateU(0.5, 0.0, np.zeros(3), np.zeros(3)), 2)


def test_membership_forms_agree_mixed_verdicts():
    rng = np.random.default_rng(2024)
    params = ManifoldParams(0.0, 0.4)
    hull = random_hull_states(rng, 5000, 0.0, 0.4)
    _, tau, v, eta, zeta = decompose_to_m_arrays(hull, params)
    on = StateU(tau[:, 0], v[:, 0], eta[:, 0], zeta[:, 0])
    off = StateU(rng.uniform(0.2, 1.2, 5000), rng.uniform(-0.6, 0.6, 5000),
                 rng.uniform(-0.7, 0.7, (5000, 3)), rng.uniform(-0.7, 0.7, (5000, 3)))
    n_true = 0
    for U in (hull, on, off):
        assert np.all(membership_forms_agree(U, 1e-10))
        n_true += int(np.sum(in_m(U, 1e-10)))
    assert n_true >= 5000  # the lifted batch is entirely on the manifold
    assert not np.all(in_m(off, 1e-10))


# -- extremal decomposition ---------------------------------------------------

def test_decompose_reference_point():
    params = ManifoldParams(alpha=0.0, delta=0.4)
    w, tau, v, eta, zeta = decompose_to_m_arrays(StateU(0.5, 0.0, np.zeros(3), np.zeros(3)), params)
    assert w.tolist() == [0.25, 0.25, 0.25, 0.25]
    mu = round(np.sqrt(0.75), 12)
    got = sorted((tuple(float(x) for x in np.round(e, 12)),
                  tuple(float(x) for x in np.round(z, 12)))
                 for e, z in zip(eta, zeta))
    want = sorted([((mu, 0.0, 0.0), (0.0, 0.0, 0.0)),
                   ((-mu, 0.0, 0.0), (0.0, 0.0, 0.0)),
                   ((0.0, 0.0, 0.0), (mu, 0.0, 0.0)),
                   ((0.0, 0.0, 0.0), (-mu, 0.0, 0.0))])
    assert got == want
    assert np.all(tau == 0.5) and np.all(v == 0.0)


def test_decompose_manifold_point_is_identity():
    params = ManifoldParams(alpha=0.0, delta=0.4)
    Y0 = np.array([0.6, 0.8, 0.0])
    U = StateU(KAPPA, 0.0, KAPPA * Y0, np.zeros(3))
    w, tau, v, eta, zeta = decompose_to_m_arrays(U, params)
    assert w.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert tau[0] == U.tau and v[0] == U.v
    assert np.array_equal(eta[0], U.eta) and np.array_equal(zeta[0], U.zeta)


@pytest.mark.parametrize("d", [1, 3])
def test_decompose_random_hull_states(d):
    rng = np.random.default_rng(123 + d)
    params = ManifoldParams(alpha=0.0, delta=0.4)
    U = random_hull_states(rng, 500, 0.0, 0.4, d=d)
    w, tau, v, eta, zeta = decompose_to_m_arrays(U, params)
    assert np.max(np.abs(np.sum(w, axis=1) - 1.0)) < 1e-12
    rec_eta = np.sum(w[..., None] * eta, axis=1)
    rec_zeta = np.sum(w[..., None] * zeta, axis=1)
    assert np.max(np.abs(rec_eta - U.eta)) < 1e-12
    assert np.max(np.abs(rec_zeta - U.zeta)) < 1e-12
    pts = StateU(tau, v, eta, zeta)
    inside = (in_m(pts, 1e-12) & in_g(pts, 0.0, 0.4, 1e-12)) | (w <= 0.0)
    assert np.all(inside)


def test_decompose_precondition():
    params = ManifoldParams(alpha=0.0, delta=0.4)
    with pytest.raises(DomainError):
        decompose_to_m_arrays(StateU(0.9, 0.5, 0.8 * np.ones(3), np.zeros(3)), params)


def test_hull_segments_stay_inside():
    rng = np.random.default_rng(77)
    params = ManifoldParams(alpha=0.0, delta=0.4)
    U = random_hull_states(rng, 300, 0.0, 0.4)
    _, tau, v, eta, zeta = decompose_to_m_arrays(U, params)
    lam = rng.uniform(0.0, 1.0, 300)
    mix = StateU(lam * tau[:, 0] + (1 - lam) * tau[:, 3],
                 lam * v[:, 0] + (1 - lam) * v[:, 3],
                 lam[:, None] * eta[:, 0] + (1 - lam[:, None]) * eta[:, 3],
                 lam[:, None] * zeta[:, 0] + (1 - lam[:, None]) * zeta[:, 3])
    assert np.all(in_cm(mix, 1e-10))
    assert np.all(in_g(mix, 0.0, 0.4, 1e-10))


# -- Galilean boost -----------------------------------------------------------

def test_galilean_hull_membership_recheck():
    rng = np.random.default_rng(5)
    U = random_hull_states(rng, 200, 0.0, 0.4)
    for u in (0.05, -0.2, 0.8):
        shifted = StateU(U.tau, U.v + u, U.eta, U.zeta)
        # shifted membership is exactly the shifted inequality, recomputed
        expect = shifted.sum_squares() + 2.0 * np.abs(shifted.cross()) <= 1.0 + 1e-10
        assert np.array_equal(in_cm(shifted, 1e-10), expect)
    small = StateU(U.tau, U.v + 1e-3, U.eta, U.zeta)
    margin = 1.0 - (U.sum_squares() + 2.0 * np.abs(U.cross()))
    assert np.all(in_cm(small, 1e-10) | (margin < 0.01))
