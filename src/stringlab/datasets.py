"""Canonical initial-data constructors for experiments and validation.

All generators are analytic in s, so refined grids resample the same
underlying fields (no interpolation between resolutions), and the
manifold-valued generators satisfy their constraints to rounding: states
are assembled in the block coordinates a+- = v +- tau, c+- = eta -+ zeta,
where the constraint is simply |(a, c)| = 1 per branch.
"""

from __future__ import annotations

import numpy as np

from .geometry import StateU, state_from_blocks
from .profiles import Profile

TWO_PI = 2.0 * np.pi


def _unit_direction(s, phase, swing, d):
    """Smoothly rotating unit vectors in R^d with |d/ds| <= ~2*swing."""
    s = np.asarray(s, dtype=float)
    th = swing * np.sin(s + phase)
    ps = swing * np.cos(2.0 * s + phase)
    if d == 1:
        return np.ones(s.shape + (1,))
    cols = [np.cos(th) * np.cos(ps), np.cos(th) * np.sin(ps)]
    if d >= 3:
        cols.append(np.sin(th))
    cols += [np.zeros_like(s)] * (d - len(cols))
    return np.stack(cols, axis=-1)


def smooth_manifold_state(s, d: int = 3, mid: float = 0.62, amp: float = 0.1,
                          swing: float = 0.25, hull_factor: float = 1.0,
                          alpha: float = 0.0) -> StateU:
    """Gently varying state on (or inside) the constraint manifold.

    a+ = alpha + mid + amp sin(s), a- = alpha - mid + amp sin(s + 2);
    each c block is hull_factor * r(s) times a rotating unit vector, with
    r = sqrt(1 - a^2).  hull_factor = 1 lands exactly on the manifold,
    hull_factor < 1 strictly inside its convex hull.  Slopes are kept small
    so interpolation-induced constraint drift stays near rounding level.
    """
    s = np.asarray(s, dtype=float)
    a_p = alpha + mid + amp * np.sin(s)
    a_m = alpha - mid + amp * np.sin(s + 2.0)
    r_p = np.sqrt(1.0 - a_p**2)
    r_m = np.sqrt(1.0 - a_m**2)
    c_p = hull_factor * r_p[..., None] * _unit_direction(s, 0.3, swing, d)
    c_m = hull_factor * r_m[..., None] * _unit_direction(s, 1.9, swing, d)
    return state_from_blocks(a_p, a_m, c_p, c_m)


def smooth_manifold_profile(n: int = 4096, d: int = 3, s0: float = -TWO_PI,
                            period: float = 2.0 * TWO_PI, boundary: str = "periodic",
                            **kw) -> Profile:
    """Smooth relativistic (manifold-valued) profile on a uniform grid."""
    ds = period / n
    s = s0 + ds * np.arange(n)
    U = smooth_manifold_state(s, d=d, **kw)
    return Profile.from_state(s0, ds, U, boundary)


def smooth_hull_profile(n: int = 4096, d: int = 3, s0: float = -TWO_PI,
                        period: float = 2.0 * TWO_PI, hull_factor: float = 0.8,
                        boundary: str = "periodic", **kw) -> Profile:
    """Strictly subrelativistic profile (inside the hull, off the manifold)."""
    return smooth_manifold_profile(n, d, s0, period, boundary,
                                   hull_factor=hull_factor, **kw)


def constant_profile(tau0: float, v0: float, eta0, zeta0, n: int = 256,
                     s0: float = -TWO_PI, period: float = 2.0 * TWO_PI,
                     boundary: str = "periodic", rough: bool = False) -> Profile:
    eta0 = np.atleast_1d(np.asarray(eta0, dtype=float))
    zeta0 = np.atleast_1d(np.asarray(zeta0, dtype=float))
    ds = period / n
    return Profile(
        s0, ds,
        np.full(n, tau0), np.full(n, v0),
        np.tile(eta0, (n, 1)), np.tile(zeta0, (n, 1)),
        boundary, rough,
    )


def subrelativistic_wave_base(cells: int = 101, s0: float = -TWO_PI,
                              period: float = 2.0 * TWO_PI) -> Profile:
    """Rough hull-valued base: the augmented form of the limit wave string.

    tau = kappa = 2^{-1/2}, v = 0, eta = kappa (-sin s, 0, 0), zeta = 0,
    sampled as cell values.  Inside the hull strictly except where
    sin^2 s = 1 (cell centers avoid those points), so its oscillatory
    approximants are relativistic while the base is not.
    """
    kappa = 2.0 ** -0.5
    ds = period / cells
    s = s0 + (np.arange(cells) + 0.5) * ds
    eta = np.zeros((cells, 3))
    eta[:, 0] = -kappa * np.sin(s)
    return Profile(s0, ds, np.full(cells, kappa), np.zeros(cells), eta,
                   np.zeros((cells, 3)), "periodic", rough=True)


def rough_manifold_base(cells: int = 101, d: int = 3, s0: float = -TWO_PI,
                        period: float = 2.0 * TWO_PI, **kw) -> Profile:
    """Rough manifold-valued base (cell values of the smooth generator)."""
    ds = period / cells
    s = s0 + (np.arange(cells) + 0.5) * ds
    U = smooth_manifold_state(s, d=d, **kw)
    return Profile.from_state(s0, ds, U, "periodic", rough=True)


def rough_hull_base(cells: int = 101, d: int = 3, s0: float = -TWO_PI,
                    period: float = 2.0 * TWO_PI, hull_factor: float = 0.8,
                    **kw) -> Profile:
    """Rough hull-valued base strictly off the manifold."""
    ds = period / cells
    s = s0 + (np.arange(cells) + 0.5) * ds
    U = smooth_manifold_state(s, d=d, hull_factor=hull_factor, **kw)
    return Profile.from_state(s0, ds, U, "periodic", rough=True)
