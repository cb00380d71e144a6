"""Pointwise state algebra for graph-like relativistic strings.

A string graph (t, s) -> (t, s, X(t, s)) in R^{2+d} carries the gradient
pair Y = ds X, W = -dt X.  Everything in this module is algebra on that
pair and on the augmented state U = (tau, v, eta, zeta) in R^{1+1+d+d}:

    L(Y, W)  = -sqrt((1 + Y^2)(1 - W^2) + (Y.W)^2)       (Minkowski area density)
    h(Y, Z)  = sup_W  Z.W - L(Y, W) = sqrt(1 + Y^2 + Z^2 + (Y.Z)^2)
    q        = Y.Z
    V        = dh/dY = (Y + q Z)/h,   W = dh/dZ = (Z + q Y)/h

The perspective map T sends U to u = (h, q, Y, Z) = (1, v, eta, zeta)/tau
and its inverse divides by h.  Both preserve straight lines and convexity.

Constraint sets, with a = v + eps*tau and c = eta - eps*zeta per sign
branch eps in {+1, -1}:

    M    : tau*v = eta.zeta  and  tau^2 + v^2 + eta^2 + zeta^2 = 1
           (equivalently a^2 + |c|^2 = 1 on both branches)
    CM   : tau^2 + v^2 + eta^2 + zeta^2 + 2|tau*v - eta.zeta| <= 1
           (the closed convex hull of M; a^2 + |c|^2 <= 1 on both branches)
    G    : delta <= tau +/- (v - alpha) <= 1/delta   (bi-Lipschitz window)

In the (a, c) block coordinates, CM cap G is a product of solid spherical
slabs and M cap G the product of their boundary spheres; that structure is
what `decompose_to_m_arrays` exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGN_BRANCHES = (1, -1)


class SuperluminalError(ValueError):
    """Raised when a gradient pair leaves the domain of the area density."""


class DomainError(ValueError):
    """Raised when an operation's state precondition fails."""


@dataclass
class ManifoldParams:
    """Constants fixing the invariant window G: its centre alpha and half-width delta."""

    alpha: float = 0.0
    delta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass
class StateU:
    """Augmented state (tau, v, eta, zeta); fields may carry leading axes.

    tau, v have shape (...,); eta, zeta have shape (..., d).
    """

    tau: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        self.zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))

    @property
    def d(self) -> int:
        return self.eta.shape[-1]

    def copy(self) -> "StateU":
        return StateU(self.tau.copy(), self.v.copy(), self.eta.copy(), self.zeta.copy())

    def block(self, eps: int):
        """Sign-branch coordinates (a, c) = (v + eps*tau, eta - eps*zeta)."""
        return self.v + eps * self.tau, self.eta - eps * self.zeta

    def sum_squares(self) -> np.ndarray:
        return (
            self.tau**2
            + self.v**2
            + np.sum(self.eta**2, axis=-1)
            + np.sum(self.zeta**2, axis=-1)
        )

    def cross(self) -> np.ndarray:
        """The bilinear constraint combination tau*v - eta.zeta."""
        return self.tau * self.v - np.sum(self.eta * self.zeta, axis=-1)


@dataclass
class StateHQYZ:
    """Unrescaled evolution state (h, q, Y, Z); same array conventions."""

    h: np.ndarray
    q: np.ndarray
    Y: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.Y = np.atleast_1d(np.asarray(self.Y, dtype=float))
        self.Z = np.atleast_1d(np.asarray(self.Z, dtype=float))

    @property
    def d(self) -> int:
        return self.Y.shape[-1]


def state_from_blocks(a_plus, a_minus, c_plus, c_minus) -> StateU:
    """Invert the block coordinates: a+- = v +- tau, c+- = eta -+ zeta."""
    a_plus = np.asarray(a_plus, dtype=float)
    a_minus = np.asarray(a_minus, dtype=float)
    c_plus = np.asarray(c_plus, dtype=float)
    c_minus = np.asarray(c_minus, dtype=float)
    tau = 0.5 * (a_plus - a_minus)
    v = 0.5 * (a_plus + a_minus)
    eta = 0.5 * (c_plus + c_minus)
    zeta = 0.5 * (c_minus - c_plus)
    return StateU(tau, v, eta, zeta)


def lagrangian(Y, W):
    """Area density L(Y, W) = -sqrt((1+Y^2)(1-W^2) + (Y.W)^2), always <= 0."""
    Y = np.asarray(Y, dtype=float)
    W = np.asarray(W, dtype=float)
    rad = (1.0 + np.sum(Y**2, axis=-1)) * (1.0 - np.sum(W**2, axis=-1)) + np.sum(
        Y * W, axis=-1
    ) ** 2
    if np.any(rad < 0.0):
        raise SuperluminalError("superluminal state: negative radicand in L(Y, W)")
    return -np.sqrt(rad)


def hamiltonian(Y, Z):
    """Partial Legendre dual of L in W: returns (h, q) with h >= 1, q = Y.Z."""
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    q = np.sum(Y * Z, axis=-1)
    h = np.sqrt(1.0 + np.sum(Y**2, axis=-1) + np.sum(Z**2, axis=-1) + q**2)
    return h, q


def dual_fields(Y, Z):
    """Gradient pair (V, W) = (dh/dY, dh/dZ); satisfies W.V = Y.Z identically.

    h^2 - |W h|^2 = (1+Y^2)(1-q^2), so |W| < 1 exactly when |q| < 1 (always
    the case for wave-family states, where Y.Z = 0).
    """
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    h, q = hamiltonian(Y, Z)
    hh = h[..., None]
    qq = q[..., None]
    V = (Y + qq * Z) / hh
    W = (Z + qq * Y) / hh
    return V, W


def to_rescaled(u: StateHQYZ) -> StateU:
    """Perspective map T^-1: (h, q, Y, Z) -> (1, q, Y, Z)/h. Requires h > 0."""
    if np.any(u.h <= 0.0):
        raise DomainError("to_rescaled requires h > 0")
    hh = u.h[..., None]
    return StateU(1.0 / u.h, u.q / u.h, u.Y / hh, u.Z / hh)


def from_rescaled(U: StateU) -> StateHQYZ:
    """Perspective map T: (tau, v, eta, zeta) -> (1, v, eta, zeta)/tau. Requires tau > 0."""
    if np.any(U.tau <= 0.0):
        raise DomainError("from_rescaled requires tau > 0")
    tt = U.tau[..., None]
    return StateHQYZ(1.0 / U.tau, U.v / U.tau, U.eta / tt, U.zeta / tt)


def embed_state(Y, W) -> StateU:
    """Map a gradient pair onto the constraint manifold.

    tau = -L/(1+Y^2), v = Y.W/(1+Y^2), eta = tau*Y, zeta = W - v*Y.
    The output satisfies the constraint identities exactly (up to rounding)
    whenever L is defined and nonzero.
    """
    Y = np.asarray(Y, dtype=float)
    W = np.asarray(W, dtype=float)
    L = lagrangian(Y, W)
    if np.any(L == 0.0):
        raise DomainError("embed_state requires a nonzero area density")
    p = 1.0 + np.sum(Y**2, axis=-1)
    a = np.sum(Y * W, axis=-1)
    tau = -L / p
    v = a / p
    eta = tau[..., None] * Y
    zeta = W - v[..., None] * Y
    return StateU(tau, v, eta, zeta)


def in_g(U: StateU, alpha: float, delta: float, tol: float = 1e-10):
    """delta <= tau +- (v - alpha) <= 1/delta on both branches."""
    ok = True
    for eps in SIGN_BRANCHES:
        w = U.tau + eps * (U.v - alpha)
        ok = ok & (w >= delta - tol) & (w <= 1.0 / delta + tol)
    return ok


def in_m_eps(U: StateU, eps: int, tol: float = 1e-10):
    """(v + eps*tau)^2 + |eta - eps*zeta|^2 = 1 within tol."""
    if eps not in SIGN_BRANCHES:
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    a, c = U.block(eps)
    return np.abs(a**2 + np.sum(c**2, axis=-1) - 1.0) <= tol


def in_m(U: StateU, tol: float = 1e-10):
    """Constraint manifold M, tested in both equivalent forms.

    Quadratic form: |sum of squares - 1| <= tol and |tau*v - eta.zeta| <= tol.
    Block form: both branch spheres within 3*tol (the two block residuals are
    (sum - 1) +- 2*cross, so the factor keeps the forms consistent).
    Returns the conjunction; `membership_forms_agree` checks the verdicts match.
    """
    quad = (np.abs(U.sum_squares() - 1.0) <= tol) & (np.abs(U.cross()) <= tol)
    block = in_m_eps(U, 1, 3.0 * tol) & in_m_eps(U, -1, 3.0 * tol)
    return quad & block


def membership_forms_agree(U: StateU, tol: float = 1e-10):
    """True where the quadratic-form and block-form verdicts for M coincide."""
    quad = (np.abs(U.sum_squares() - 1.0) <= tol) & (np.abs(U.cross()) <= tol)
    block = in_m_eps(U, 1, 3.0 * tol) & in_m_eps(U, -1, 3.0 * tol)
    return quad == block


def in_cm(U: StateU, tol: float = 1e-10):
    """Closed convex hull: sum of squares + 2|tau*v - eta.zeta| <= 1 + tol."""
    return U.sum_squares() + 2.0 * np.abs(U.cross()) <= 1.0 + tol


def in_s_kappa(U: StateU, kappa: float, tol: float = 1e-10):
    """Wave-family slice of M: tau = kappa, v = 0, |eta -+ zeta|^2 = 1 - kappa^2."""
    ok = (np.abs(U.tau - kappa) <= tol) & (np.abs(U.v) <= tol)
    target = 1.0 - kappa**2
    for eps in SIGN_BRANCHES:
        _, c = U.block(eps)
        ok = ok & (np.abs(np.sum(c**2, axis=-1) - target) <= tol)
    return ok


# Relative slack below which a block already sits on its sphere and is kept
# as-is instead of being lifted (avoids sqrt-of-roundoff perturbations).
_DEGENERATE_REL = 1e-12


def _lift_direction(c: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to c: Gram-Schmidt from the least-aligned axis.

    Ties (including c = 0) resolve to the lowest axis index, so the output is
    deterministic.
    """
    d = c.shape[-1]
    k = np.argmin(np.abs(c), axis=-1)
    e = np.zeros_like(c)
    np.put_along_axis(e, k[..., None], 1.0, axis=-1)
    c2 = np.sum(c**2, axis=-1)
    proj = np.where(c2 > 0.0, np.take_along_axis(c, k[..., None], axis=-1)[..., 0] /
                    np.where(c2 > 0.0, c2, 1.0), 0.0)
    e = e - proj[..., None] * c
    norm = np.sqrt(np.sum(e**2, axis=-1))
    return e / norm[..., None]


def _decompose_block(a: np.ndarray, c: np.ndarray):
    """Write c as a convex combination of points on the sphere |x|^2 = 1 - a^2.

    Returns (points, weights) with shapes (..., 2, d) and (..., 2); the second
    weight is 0 where the block is degenerate (already on its sphere, or a
    collapsed d = 1 endpoint).
    """
    d = c.shape[-1]
    r2 = np.maximum(1.0 - a**2, 0.0)
    c2 = np.sum(c**2, axis=-1)
    mu2 = r2 - c2
    degenerate = mu2 <= _DEGENERATE_REL * np.maximum(r2, 1e-300)

    points = np.zeros(c.shape[:-1] + (2, d))
    weights = np.zeros(c.shape[:-1] + (2,))
    if d >= 2:
        mu = np.sqrt(np.maximum(mu2, 0.0))
        e = mu[..., None] * _lift_direction(c)
        points[..., 0, :] = c + e
        points[..., 1, :] = c - e
        weights[..., 0] = 0.5
        weights[..., 1] = 0.5
    else:
        r = np.sqrt(r2)
        safe_r = np.where(r > 0.0, r, 1.0)
        lam = np.clip((c[..., 0] + r) / (2.0 * safe_r), 0.0, 1.0)
        points[..., 0, 0] = r
        points[..., 1, 0] = -r
        weights[..., 0] = lam
        weights[..., 1] = 1.0 - lam
        # a collapsed endpoint (lam in {0,1}) is degenerate too: emit c itself
        degenerate = degenerate | (lam <= _DEGENERATE_REL) | (lam >= 1.0 - _DEGENERATE_REL)

    points[..., 0, :] = np.where(degenerate[..., None], c, points[..., 0, :])
    weights[..., 0] = np.where(degenerate, 1.0, weights[..., 0])
    weights[..., 1] = np.where(degenerate, 0.0, weights[..., 1])
    return points, weights


def decompose_to_m_arrays(U: StateU, params: ManifoldParams, tol: float = 1e-10):
    """Vectorized extremal decomposition over CM cap G states.

    Returns (weights, tau, v, eta, zeta) with a trailing point axis of length 4
    (zero weight marks an absent point).  The block coordinates a+- are kept
    unchanged, so every emitted point stays in G; each c block is lifted to its
    sphere, so every point with positive weight lies on M.
    """
    ok = in_cm(U, tol) & in_g(U, params.alpha, params.delta, tol)
    if not np.all(ok):
        raise DomainError("decompose_to_m_arrays requires states in CM cap G")

    a_p, c_p = U.block(1)
    a_m, c_m = U.block(-1)
    pts_p, w_p = _decompose_block(a_p, c_p)
    pts_m, w_m = _decompose_block(a_m, c_m)

    # product of the two blocks: point (i, j) pairs c_p[i] with c_m[j]
    w = (w_p[..., :, None] * w_m[..., None, :]).reshape(w_p.shape[:-1] + (4,))
    cp = pts_p[..., :, None, :]
    cm = pts_m[..., None, :, :]
    eta = 0.5 * (cp + cm)
    zeta = 0.5 * (cm - cp)
    eta = eta.reshape(w.shape + (U.d,))
    zeta = zeta.reshape(w.shape + (U.d,))
    tau = np.broadcast_to(U.tau[..., None], w.shape).copy()
    v = np.broadcast_to(U.v[..., None], w.shape).copy()
    return w, tau, v, eta, zeta

