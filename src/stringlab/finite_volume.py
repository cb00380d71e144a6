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
step works in place on one component-major (2, d, n + 2) copy of (Y, Z),
so every component sum is a sum of contiguous rows and both fields move in
one pass; `advance` transposes once on entry and once on exit, and
allocates the step's scratch arrays once for all its steps.  `flux` and
`max_signal_speed` stay the cell-major (n, d) reference that the tests
compare the step against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import hamiltonian
from .profiles import Profile

CFL = 0.9  # the CFL number `advance` steps at, and `lax_friedrichs_step`'s default bound


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


def _rusanov(W, work, ds: float, periodic: bool, dt: float | None, cfl_max: float,
             cap: float = np.inf) -> float:
    """One Rusanov update of the padded fields W = (Y, Z), shape (2, d, n + 2), in place.

    Fills the ghost columns, derives (h, q) once by explicit component sums
    in `hamiltonian`'s order, and reads the cell speeds, the fluxes and the
    interface speeds off that one pair.  Y and Z move together: their
    fluxes (Z + qY)/h and (Y + qZ)/h are one expression over W and its
    field-swapped view.  Every intermediate is written into the scratch of
    `_scratch`, so a step allocates nothing.  The interface fluxes are kept
    doubled, (f[:-1] + f[1:]) - a * (Y[1:] - Y[:-1]) with a the larger cell
    speed, and their differences scaled by 0.5 * dt / ds once: halving is
    exact, so the result is bit-identical to the expression form
    0.5 * (f[:-1] + f[1:]) - 0.5 * a * (Y[1:] - Y[:-1]).  With `dt=None` the
    step is min(cfl_max * ds / speed, cap); an explicit `dt` above the CFL
    bound raises CFLError.  Returns the step taken.
    """
    cells, face, f, F = work
    q, h, a, tmp = cells
    lo, hi = (-2, 1) if periodic else (1, -2)
    W[..., 0], W[..., -1] = W[..., lo], W[..., hi]
    # q = Y.Z, and (Y^2, Z^2) accumulated in the rows of h and a, component by component
    Y, Z = W
    sq = cells[1:3]
    np.multiply(Y[0], Z[0], out=q)
    np.multiply(W[:, 0], W[:, 0], out=sq)
    for k in range(1, W.shape[1]):
        q += np.multiply(Y[k], Z[k], out=tmp)
        sq += np.multiply(W[:, k], W[:, k], out=f[:, 0])  # f is free until the fluxes
    h += 1.0  # h = sqrt(1 + Y^2 + Z^2 + q^2)
    h += a
    h += np.multiply(q, q, out=tmp)
    np.sqrt(h, out=h)
    np.abs(q, out=a)  # the cell speeds (|q| + 1) / h
    a += 1.0
    a /= h
    speed = float(np.max(a))
    if dt is None:
        dt = min(cfl_max * ds / speed, cap)
    elif dt > cfl_max * ds / speed:  # the bound as printed and as `advance` steps
        raise CFLError(f"dt = {dt:.3e} exceeds CFL {cfl_max} * ds / speed = "
                       f"{cfl_max * ds / speed:.3e}")
    np.maximum(a[:-1], a[1:], out=face)
    np.multiply(q, W, out=f)  # the cell fluxes of Y and Z, read before either moves
    f += W[::-1]
    f /= h
    np.add(f[..., :-1], f[..., 1:], out=F)  # twice the interface fluxes
    D = f[..., :-1]  # the cell fluxes are spent: their buffer takes the differences
    np.subtract(W[..., 1:], W[..., :-1], out=D)
    D *= face
    F -= D
    np.subtract(F[..., 1:], F[..., :-1], out=D[..., :-1])
    D[..., :-1] *= 0.5 * dt / ds
    W[..., 1:-1] -= D[..., :-1]
    return dt


def _padded(state: ConservativeState) -> np.ndarray:
    """Component-major (2, d, n + 2) copy of (Y, Z); the kernel fills the ghosts."""
    W = np.empty((2, state.d, state.n + 2))
    W[0, :, 1:-1] = state.Y.T
    W[1, :, 1:-1] = state.Z.T
    return W


def _scratch(d: int, n: int):
    """The work arrays of `_rusanov` on n cells of d components: four cell
    rows (q, h, the cell speeds, a product), the interface speeds, the
    cell fluxes (2, d, n + 2) and the interface fluxes (2, d, n + 1)."""
    return (np.empty((4, n + 2)), np.empty(n + 1), np.empty((2, d, n + 2)),
            np.empty((2, d, n + 1)))


def _unpadded(state: ConservativeState, W) -> ConservativeState:
    return ConservativeState(state.s0, state.ds, W[0, :, 1:-1].T.copy(), W[1, :, 1:-1].T.copy(),
                             state.boundary)


def lax_friedrichs_step(state: ConservativeState, dt: float, cfl_max: float = CFL) -> ConservativeState:
    """One conservative Rusanov update; raises CFLError above cfl_max."""
    W = _padded(state)
    _rusanov(W, _scratch(state.d, state.n), state.ds, state.boundary == "periodic", dt, cfl_max)
    return _unpadded(state, W)


def advance(state: ConservativeState, t_final: float) -> tuple[ConservativeState, int]:
    """March to t_final with dt = CFL * ds / speed, re-bounded every step.

    The padded fields and the kernel's scratch are allocated once per call
    and reused by every step.  A negative or non-finite t_final raises
    ValueError: the march only runs forward, and would never reach it.
    """
    if not 0.0 <= t_final < np.inf:
        raise ValueError(f"advance needs a finite t_final >= 0; got {t_final!r}")
    W = _padded(state)
    work = _scratch(state.d, state.n)
    periodic = state.boundary == "periodic"
    t, steps = 0.0, 0
    while t < t_final - 1e-14:
        t += _rusanov(W, work, state.ds, periodic, None, CFL, t_final - t)
        steps += 1
    del work  # freed before the output copies, so the two never coexist
    return _unpadded(state, W), steps


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
