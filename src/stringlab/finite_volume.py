"""First-order finite-volume oracle for the conservative (Y, Z) system.

    dt Y + ds((Z + qY)/h) = 0,    dt Z + ds((Y + qZ)/h) = 0,

with q = Y.Z and h = sqrt(1 + Y^2 + Z^2 + q^2) always derived from (Y, Z),
never evolved, so the companion conservation laws

    dt h + ds q = 0,    dt q + ds((q^2 - 1)/h) = 0,

remain genuine checks.  The scheme is local Lax-Friedrichs (Rusanov) with
interface speed bound |v| + tau = (|q| + 1)/h, first order and robust; this
module exists to cross-validate the exact characteristic solver, not to
compete with it.

Each step derives (h, q) once, from the padded state, and reads the CFL
speed, the cell fluxes and the interface speeds off that one pair.  The
step works on component-major (d, n + 2) copies of Y and Z, so every
component sum is a sum of contiguous rows; `advance` transposes once on
entry and once on exit.  `flux` and `max_signal_speed` stay the cell-major
(n, d) reference that the tests compare the step against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import StateHQYZ, hamiltonian, to_rescaled
from .profiles import Profile


class CFLError(ValueError):
    """Requested step exceeds the stable CFL bound."""


@dataclass
class ConservativeState:
    """Cell-centered (Y, Z) values on a uniform periodic or padded grid."""

    s0: float
    ds: float
    Y: np.ndarray  # (n, d)
    Z: np.ndarray  # (n, d)
    boundary: str = "periodic"

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def d(self) -> int:
        return self.Y.shape[1]

    def derived(self):
        """(h, q) recomputed from the evolved fields."""
        return hamiltonian(self.Y, self.Z)


def flux(Y, Z):
    """All four fluxes: fY = (Z + qY)/h, fZ = (Y + qZ)/h, fh = q, fq = (q^2-1)/h."""
    h, q = hamiltonian(Y, Z)
    hh = h[..., None]
    qq = q[..., None]
    fY = (Z + qq * Y) / hh
    fZ = (Y + qq * Z) / hh
    return fY, fZ, q, (q**2 - 1.0) / h


def max_signal_speed(Y, Z) -> float:
    """Sharp bound max |v| + tau = (|q| + 1)/h on the characteristic speeds."""
    h, q = hamiltonian(Y, Z)
    return float(np.max((np.abs(q) + 1.0) / h))


def _rusanov(Yp, Zp, ds: float, periodic: bool, dt: float | None, cfl_max: float,
             cap: float = np.inf) -> float:
    """One Rusanov update of padded component-major (d, n + 2) fields, in place.

    Fills the two ghost columns, derives (h, q) once by explicit component
    sums in `hamiltonian`'s order, and reads the cell speeds, the fluxes and
    the interface speeds off that one pair.  With `dt=None` the step is
    min(cfl_max * ds / speed, cap); an explicit `dt` above the CFL bound
    raises CFLError.  Returns the step taken.
    """
    lo, hi = (-2, 1) if periodic else (1, -2)
    for F in (Yp, Zp):
        F[:, 0], F[:, -1] = F[:, lo], F[:, hi]
    q = Yp[0] * Zp[0]
    y2 = Yp[0] * Yp[0]
    z2 = Zp[0] * Zp[0]
    for k in range(1, Yp.shape[0]):
        q += Yp[k] * Zp[k]
        y2 += Yp[k] * Yp[k]
        z2 += Zp[k] * Zp[k]
    h = np.sqrt(1.0 + y2 + z2 + q * q)
    a_cell = (np.abs(q) + 1.0) / h
    speed = float(np.max(a_cell))
    if dt is None:
        dt = min(cfl_max * ds / speed, cap)
    elif dt > cfl_max * ds / speed:  # the bound as printed and as `advance` steps
        raise CFLError(f"dt = {dt:.3e} exceeds CFL {cfl_max} * ds / speed = "
                       f"{cfl_max * ds / speed:.3e}")
    half_a = 0.5 * np.maximum(a_cell[:-1], a_cell[1:])
    lam = dt / ds
    for Yk, Zk in zip(Yp, Zp):
        fY = (Zk + q * Yk) / h
        fZ = (Yk + q * Zk) / h
        FY = 0.5 * (fY[:-1] + fY[1:]) - half_a * (Yk[1:] - Yk[:-1])
        FZ = 0.5 * (fZ[:-1] + fZ[1:]) - half_a * (Zk[1:] - Zk[:-1])
        Yk[1:-1] -= lam * (FY[1:] - FY[:-1])
        Zk[1:-1] -= lam * (FZ[1:] - FZ[:-1])
    return dt


def _padded(state: ConservativeState):
    """Component-major (d, n + 2) copies of Y and Z; the kernel fills the ghosts."""
    Yp = np.empty((state.d, state.n + 2))
    Zp = np.empty((state.d, state.n + 2))
    Yp[:, 1:-1] = state.Y.T
    Zp[:, 1:-1] = state.Z.T
    return Yp, Zp


def _unpadded(state: ConservativeState, Yp, Zp) -> ConservativeState:
    return ConservativeState(state.s0, state.ds, Yp[:, 1:-1].T.copy(), Zp[:, 1:-1].T.copy(),
                             state.boundary)


def lax_friedrichs_step(state: ConservativeState, dt: float, cfl_max: float = 0.9) -> ConservativeState:
    """One conservative Rusanov update; raises CFLError above cfl_max."""
    Yp, Zp = _padded(state)
    _rusanov(Yp, Zp, state.ds, state.boundary == "periodic", dt, cfl_max)
    return _unpadded(state, Yp, Zp)


def advance(state: ConservativeState, t_final: float, cfl: float = 0.9) -> tuple[ConservativeState, int]:
    """March to t_final with dt = cfl * ds / speed, re-bounded every step."""
    Yp, Zp = _padded(state)
    periodic = state.boundary == "periodic"
    t, steps = 0.0, 0
    while t < t_final - 1e-14:
        t += _rusanov(Yp, Zp, state.ds, periodic, None, cfl, t_final - t)
        steps += 1
    return _unpadded(state, Yp, Zp), steps


def conservation_totals(state: ConservativeState) -> dict:
    """Cell totals (times ds) of Y, Z and of the derived h and q.

    Periodic boundaries only: the evolved totals are conserved to rounding,
    the derived totals drift at the scheme's truncation order.
    """
    if state.boundary != "periodic":
        raise ValueError("conservation totals are defined for periodic boundaries")
    h, q = state.derived()
    return {
        "Y": state.ds * np.sum(state.Y, axis=0),
        "Z": state.ds * np.sum(state.Z, axis=0),
        "h": float(state.ds * np.sum(h)),
        "q": float(state.ds * np.sum(q)),
    }


def from_profile(profile: Profile) -> ConservativeState:
    """Cell data from an augmented-state profile through the perspective map."""
    u = profile.to_hqyz()
    return ConservativeState(profile.s0, profile.ds, u.Y.copy(), u.Z.copy(), profile.boundary)


def to_profile(state: ConservativeState, rough: bool = False) -> Profile:
    h, q = state.derived()
    U = to_rescaled(StateHQYZ(h, q, state.Y, state.Z))
    return Profile(state.s0, state.ds, U.tau, U.v, U.eta, U.zeta, state.boundary, rough)
