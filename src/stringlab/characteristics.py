"""Exact global integration of the augmented string system by characteristics.

The augmented system

    dt tau  + v ds tau  =  tau ds v,      dt v    + v ds v    =  tau ds tau,
    dt eta  + v ds eta  = -tau ds zeta,   dt zeta + v ds zeta = -tau ds eta,

diagonalizes along the families ds/dt = v + eps*tau, eps in {+1, -1}: the
quantities (v - eps*tau) and (eta + eps*zeta) ride each family unchanged.

Straightening map.  xi(t, .) with dy xi = tau(t, xi(t, y)), dt xi =
v(t, xi(t, y)) and xi(0, 0) = 0 solves the unit-speed wave equation
dtt xi = dyy xi, so d'Alembert's formula determines it globally from the
initial data:

    xi(t, y) = [xi0(y + t) + xi0(y - t)]/2 + [Phi(y + t) - Phi(y - t)]/2,
    Phi(y)   = integral_0^y v(0, xi0(sigma)) dsigma,
    (dt xi +- dy xi)(t, y) = (v +- tau)(0, xi0(y +- t)).

State recovery at s = xi(t, y) pairs each invariant with its feeding foot:

    (v + tau)(t, s) = (v + tau)(0, xi0(y + t)),   eta - zeta likewise,
    (v - tau)(t, s) = (v - tau)(0, xi0(y - t)),   eta + zeta likewise.

Inside the window delta <= tau +- (v - alpha) <= 1/delta the slope dy xi
stays in [delta, 1/delta] for all time, xi(t, .) is bi-Lipschitz, and the
formulas define a global solution for every measurable initial state.
Evolution is evaluation: there is no time stepping, and discretization
error lives only in the initial-curve tables and field interpolation.

The ODE dy xi0 = tau(0, xi0) is separable, so the tables come from
quadrature on the profile's own s-grid: y(s) = integral_0^s dsigma/tau and
Phi(s) = integral_0^s v/tau dsigma at every grid point.  Smooth and rough
data share one monotone knot table and one evaluator; smooth data use
fourth-order quadrature and cubic Hermite interpolation (certified
monotone interval by interval), piecewise constant (rough) data exact cell
sums, linear interpolation and cell lookups for the transported packets.
A rough table has one cell per run of equal samples, so its knots sit only
where the data jump: an oscillated tiling with a few runs per oscillation
cell evolves and pairs on its runs, not on its samples.

Inversion.  Every state evaluation needs the y with xi(t, y) = s.  One
vectorized, safeguarded Newton solver (`xi_time_inverse`) serves all of
them: the initial-curve inverse (t = 0), solves and string
reconstruction.  Times and positions are arrays that broadcast together,
so a whole set of slices or a whole anchor line is one call.  Newton uses
the exact slope of the tables' own interpolants inside the Lipschitz
bracket, falls back to bisection, and converges in about five steps.

Periodic data are global in time exactly: with t = m Y_p + r, the solution
satisfies U(t, s) = U(r, s - m Phi_p) (the shift taken modulo S_p), so
`evolve_states` and `evolve_cells` evaluate |t| = 1e9 as accurately as
|t| < Y_p / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainError, StateU
from .profiles import CellField, Profile, centered_slopes, cubic_interp, cumulative_integral
from .waves import StringGraph


class InadmissibleDataError(ValueError):
    """Initial data admits no global bi-Lipschitz straightening."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass
class AdmissibilityWindow:
    alpha: float
    delta: float
    sup_v_minus_tau: float
    inf_v_plus_tau: float


def admissibility(profile: Profile, delta_cap: float = 1.0 - 1e-12) -> AdmissibilityWindow:
    """Best centering alpha and largest window half-width delta for the data.

    Global solvability requires v - tau < v' + tau' between any two samples;
    the optimal alpha is the midpoint of [sup(v - tau), inf(v + tau)] and the
    returned delta also respects the upper bound tau +- (v - alpha) <= 1/delta.
    Raises InadmissibleDataError carrying the violating sample pair.
    """
    for name in ("tau", "v"):
        bad = np.flatnonzero(~np.isfinite(getattr(profile, name)))
        if bad.size:
            i = int(bad[0])
            raise InadmissibleDataError(
                f"{name} must be finite; {name}[{i}] = {getattr(profile, name)[i]} "
                f"at s = {profile.s_samples[i]:.6g}",
                pair=(i, i),
            )
    if np.any(profile.tau <= 0.0):
        i = int(np.argmin(profile.tau))
        raise InadmissibleDataError(
            f"tau must be positive; tau = {profile.tau[i]:.6g} at s = {profile.s_samples[i]:.6g}",
            pair=(i, i),
        )
    wm = profile.v - profile.tau
    wp = profile.v + profile.tau
    i = int(np.argmax(wm))
    j = int(np.argmin(wp))
    s = profile.s_samples
    if wm[i] >= wp[j]:
        raise InadmissibleDataError(
            "no admissible window: "
            f"(v - tau)(s = {s[i]:.6g}) = {wm[i]:.6g} >= (v + tau)(s = {s[j]:.6g}) = {wp[j]:.6g}",
            pair=(i, j),
        )
    alpha = 0.5 * (wm[i] + wp[j])
    delta_low = 0.5 * (wp[j] - wm[i])
    hi = max(np.max(wp) - alpha, alpha - np.min(wm))
    delta = min(delta_low, 1.0 / hi, delta_cap)
    return AdmissibilityWindow(alpha, delta, float(wm[i]), float(wp[j]))


def _hermite(u, h, f0, f1, m0, m1, deriv=False):
    """Cubic Hermite through (f0, m0), (f1, m1) at u in [0, 1] of a width-h cell (d/dy if deriv)."""
    m0, m1 = m0 * h, m1 * h
    if deriv:
        return (6.0 * u * (u - 1.0) * (f0 - f1) + (1.0 - u) * (1.0 - 3.0 * u) * m0
                + u * (3.0 * u - 2.0) * m1) / h
    w = 1.0 - u
    return (1.0 + 2.0 * u) * w * w * f0 + u * w * w * m0 + u * u * (3.0 - 2.0 * u) * f1 \
        + u * u * (u - 1.0) * m1


@dataclass
class CharacteristicFlow:
    """Immutable evaluation machinery for one set of initial data.

    The initial curve is one monotone table: knots `y_edges` = y(s_i), values
    `xi_nodes` = s_i and `phi_nodes` = Phi(s_i), slopes `xi_slopes` = tau and
    `phi_slopes` = v, one per knot for smooth data (cubic Hermite) and one
    per cell for rough data ("pc", linear).  A rough cell is a run of
    consecutive samples with equal (tau, v, eta, zeta), so rough knots sit
    only at the data's jumps, and `pk_values` holds one row per run (per
    sample for smooth data).  All methods are pure and safe
    for concurrent callers.  `alpha`/`delta` record the admissible window
    used; the slopes are certified inside [delta - tol, 1/delta + tol].
    """

    profile: Profile
    alpha: float
    delta: float
    mode: str  # "smooth" or "pc"
    y_edges: np.ndarray
    xi_nodes: np.ndarray
    xi_slopes: np.ndarray
    phi_nodes: np.ndarray
    phi_slopes: np.ndarray
    # periodic extension data
    y_period: float | None
    s_period: float | None
    phi_period: float | None
    # packet samples (n, 2 + 2d): [v+tau, v-tau, eta-zeta, eta+zeta]
    pk_values: np.ndarray
    pk_slopes: np.ndarray | None = None

    # -- initial curve -----------------------------------------------------

    def _wind(self, y):
        """y wound into the first period of a periodic table, and the winding number."""
        y, wind = np.asarray(y, dtype=float), 0.0
        if self.y_period is not None:
            wind = np.floor((y - self.y_edges[0]) / self.y_period)
            y = y - wind * self.y_period
        return y, wind

    def _cell(self, y):
        """y wound into the first period, the winding number and the knot interval."""
        y, wind = self._wind(y)
        k = np.searchsorted(self.y_edges, y, side="right") - 1
        return y, wind, np.clip(k, 0, len(self.y_edges) - 2)

    def _table(self, y, values, slopes, period, deriv):
        """One table of the initial curve at y, or its y-derivative.

        Smooth tables are cubic Hermite between the knots, rough ones linear
        on each cell.  Periodic tables wind by whole y-periods, each adding
        `period`; the others continue linearly with their end slopes.  The
        derivative is that of the interpolant, the end slope beyond the ends.
        """
        y, wind, k = self._cell(y)
        knots = self.y_edges
        if self.mode == "pc":
            val = slopes[k] if deriv else values[k] + (y - knots[k]) * slopes[k]
        else:
            h = knots[k + 1] - knots[k]
            u = (y - knots[k]) / h
            val = _hermite(np.clip(u, 0.0, 1.0) if deriv else u, h, values[k], values[k + 1],
                           slopes[k], slopes[k + 1], deriv)
        if deriv:
            return val
        if self.y_period is not None:
            return val + wind * period
        lo, hi = knots[0], knots[-1]
        val = np.where(y < lo, values[0] + slopes[0] * (y - lo), val)
        return np.where(y > hi, values[-1] + slopes[-1] * (y - hi), val)

    def xi0(self, y, deriv=False):
        """Initial curve xi(0, y), defined for every real y (its slope with deriv)."""
        return self._table(y, self.xi_nodes, self.xi_slopes, self.s_period, deriv)

    def phi0(self, y, deriv=False):
        """Antiderivative of v(0, xi0(.)), normalized to vanish at y = 0."""
        return self._table(y, self.phi_nodes, self.phi_slopes, self.phi_period, deriv)

    def xi0_inverse(self, s):
        """Monotone inversion of the initial curve: xi_time_inverse at t = 0."""
        return xi_time_inverse(self, 0.0, s)

    # -- transported packets ----------------------------------------------

    def invariants_at(self, y):
        """(v+tau, v-tau, eta-zeta, eta+zeta) of the initial data at xi0(y)."""
        d = self.profile.d
        if self.mode == "pc":
            p = self.pk_values[self._cell(y)[2]]
        else:
            s = self.xi0(y)
            p = cubic_interp(self.profile.s0, self.profile.ds, self.pk_values, s,
                             self.profile.boundary, slopes=self.pk_slopes)
        return p[..., 0], p[..., 1], p[..., 2:2 + d], p[..., 2 + d:]


def build_flow(profile: Profile, alpha: float | None = None, delta: float | None = None,
               slope_tol: float = 1e-9) -> CharacteristicFlow:
    """Construct the straightening map for admissible initial data.

    The knots y(s) = integral_0^s dsigma/tau and Phi(s) = integral_0^s
    v/tau dsigma sit on the profile's own s-grid: exact cell sums for rough
    data, taken at the edges of its runs of equal samples (its jumps), the
    fourth-order `cumulative_integral` for smooth data, whose
    periodic tables close at s0 + S_p with full-period trapezoid sums Y_p
    and Phi_p.  One interpolation at s = 0 normalizes xi0(0) = phi0(0) = 0.
    Raises InadmissibleDataError through `admissibility`, and DomainError
    for a one-sample smooth constant-boundary profile (no knot interval), a
    slope outside [delta - tol, 1/delta + tol] (unreachable after
    admissibility) or a smooth interval that fails the Fritsch-Carlson
    monotonicity test a, b > 0, a^2 + b^2 <= 9.
    """
    if alpha is None or delta is None:
        win = admissibility(profile)
        alpha, delta = win.alpha, win.delta
    n, ds = profile.n, profile.ds
    periodic = profile.boundary == "periodic"
    if n < 2 and not (profile.rough or periodic):
        raise DomainError(f"a smooth constant-boundary table needs n >= 2 samples; "
                          f"got n = {n} at s0 = {profile.s0:.6g}")
    tau, v = profile.tau.copy(), profile.v.copy()
    knots = rows = slice(None)
    if profile.rough:
        dy = ds / tau
        y = np.concatenate([[0.0], np.cumsum(dy)])
        phi = np.concatenate([[0.0], np.cumsum(v * dy)])
        # one cell per run of equal samples: the rough knots are the data's jumps
        data = np.column_stack([tau, v, profile.eta, profile.zeta])
        knots = np.flatnonzero(np.r_[True, np.any(data[1:] != data[:-1], axis=1), True])
        rows = knots[:-1]
    else:
        y = cumulative_integral(1.0 / tau, ds, profile.boundary)
        phi = cumulative_integral(v / tau, ds, profile.boundary)
        if periodic:  # the Euler-Maclaurin end correction vanishes over a full period
            y = np.append(y, ds * np.sum(1.0 / tau))
            phi = np.append(phi, ds * np.sum(v / tau))
            tau, v = np.append(tau, tau[0]), np.append(v, v[0])
    tr, vr, er, zr = (a[rows] for a in (profile.tau, profile.v, profile.eta, profile.zeta))
    pk = np.column_stack([vr + tr, vr - tr, er - zr, er + zr])
    s = profile.s0 + ds * np.arange(len(y))
    if not s[0] <= 0.0 <= s[-1]:
        raise DomainError("the grid window must contain s = 0 (normalization xi(0,0) = 0)")
    j = min(int((0.0 - profile.s0) / ds), len(s) - 2)

    def at_zero(table, w):  # the table at s = 0; its s-slope is w / tau
        if profile.rough:
            return table[j] + (0.0 - s[j]) / tau[j] * w[j]
        return _hermite((0.0 - s[j]) / ds, ds, table[j], table[j + 1],
                        w[j] / tau[j], w[j + 1] / tau[j + 1])

    flow = CharacteristicFlow(
        profile, alpha, delta, "pc" if profile.rough else "smooth",
        y_edges=(y - at_zero(y, np.ones_like(tau)))[knots], xi_nodes=s[knots],
        xi_slopes=tau[rows], phi_nodes=(phi - at_zero(phi, v))[knots], phi_slopes=v[rows],
        y_period=float(y[-1]) if periodic else None,
        s_period=n * ds if periodic else None,
        phi_period=float(phi[-1]) if periodic else None,
        pk_values=pk,
        pk_slopes=None if profile.rough else centered_slopes(pk, ds, profile.boundary),
    )
    if np.min(tau) < delta - slope_tol or np.max(tau) > 1.0 / delta + slope_tol:
        raise DomainError("initial-curve slope escaped [delta, 1/delta]")
    if not profile.rough:
        # Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980): a Hermite interval is
        # monotone if its end slopes over the secant have a, b > 0, a^2 + b^2 <= 9
        secant = ds / np.diff(y)
        a, b = tau[:-1] / secant, tau[1:] / secant
        bad = np.flatnonzero((a <= 0.0) | (b <= 0.0) | (a * a + b * b > 9.0))
        if bad.size:
            i = int(bad[0])
            raise DomainError(
                f"the smooth initial curve is not certified monotone on s in "
                f"[{s[i]:.6g}, {s[i + 1]:.6g}] (Fritsch-Carlson a = {a[i]:.3g}, b = {b[i]:.3g}, "
                f"need a, b > 0 and a^2 + b^2 <= 9); use rough=True or a finer grid")
    return flow


def xi_evaluate(flow: CharacteristicFlow, t, y):
    """(xi, dt xi, dy xi) at (t, y) from the d'Alembert formulas."""
    y = np.asarray(y, dtype=float)
    ap, _, _, _ = flow.invariants_at(y + t)
    _, am, _, _ = flow.invariants_at(y - t)
    return _xi_only(flow, t, y), 0.5 * (ap + am), 0.5 * (ap - am)


def _xi_only(flow, t, y, deriv=False):
    """xi(t, y) by d'Alembert; with deriv, dy xi from the tables' own slopes."""
    yp = y + t
    ym = y - t
    return (0.5 * (flow.xi0(yp, deriv) + flow.xi0(ym, deriv))
            + 0.5 * (flow.phi0(yp, deriv) - flow.phi0(ym, deriv)))


def _finite(name, a):
    """a as a float array; ValueError naming its first non-finite entry."""
    a = np.asarray(a, dtype=float)
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        i = int(bad[0])
        at = f"[{i}]" if a.ndim else ""
        raise ValueError(f"{name} must be finite; {name}{at} = {a.flat[i]}")
    return a


def xi_time_inverse(flow: CharacteristicFlow, t, s, y_tol: float = 1e-12):
    """y with xi(t, y) = s, by safeguarded Newton; t and s broadcast together.

    With e = s - xi(t, 0), the Lipschitz bounds delta <= dy xi <= 1/delta
    put the root in [e delta, e/delta] (in [e/delta, e delta] for e < 0).
    Newton starts at the bracket midpoint and steps with the exact slope of
    the tables' interpolants: cubic Hermite for smooth flows, the cell slopes
    for rough ones.  Every evaluation narrows the bracket, and a step that
    leaves it or fails to halve the previous step is replaced by bisection,
    so the iteration cannot fail.  A point stops once its step is at most
    y_tol (1 + |y|).  A non-finite t or s raises ValueError naming it.
    """
    t, s = _finite("t", t), _finite("s", s)
    e = s - _xi_only(flow, t, np.zeros_like(t))
    shape = e.shape
    t, s, e = (a.ravel() for a in np.broadcast_arrays(t, s, e))
    margin = 1e-9 * (1.0 + np.abs(e))
    lo = np.where(e >= 0.0, e * flow.delta, e / flow.delta) - margin
    hi = np.where(e >= 0.0, e / flow.delta, e * flow.delta) + margin
    y = 0.5 * (lo + hi)
    step = hi - lo
    live = np.arange(y.size)  # points still iterating
    for _ in range(200):
        if not live.size:
            break
        tl, yl = t[live], y[live]
        f = _xi_only(flow, tl, yl) - s[live]
        lo_l = np.where(f < 0.0, yl, lo[live])
        hi_l = np.where(f < 0.0, hi[live], yl)
        newton = f / _xi_only(flow, tl, yl, True)
        y_new = yl - newton
        bisect = (y_new < lo_l) | (y_new > hi_l) | (np.abs(newton) > 0.5 * np.abs(step[live]))
        y_new = np.where(bisect, 0.5 * (lo_l + hi_l), y_new)
        lo[live], hi[live], y[live], step[live] = lo_l, hi_l, y_new, y_new - yl
        live = live[np.abs(y_new - yl) > y_tol * (1.0 + np.abs(y_new))]
    if y.size:
        resid = float(np.max(np.abs(_xi_only(flow, t, y) - s)))
        scale = 1.0 + float(np.max(np.abs(s)))
        if resid > 1e-8 * scale:
            # unreachable for a bi-Lipschitz curve; indicates a broken bracket
            raise RuntimeError(f"internal error: inversion residual {resid:.3e}")
    return y.reshape(shape)


def _reduce_time(flow, t):
    """(r, shift) with U(t, s) = U(r, s - shift): t = m Y_p + r, shift = m Phi_p mod S_p.

    m = round(t / Y_p) for periodic flows, so |r| <= Y_p / 2; the shift is
    reduced into [-S_p/2, S_p/2].  Aperiodic flows and m = 0 give (t, 0).
    """
    if flow.y_period is None:
        return t, 0.0
    m = np.round(t / flow.y_period)
    shift = m * flow.phi_period
    return t - m * flow.y_period, shift - flow.s_period * np.round(shift / flow.s_period)


def _state_from_feet(flow, y, t):
    """U at (t, xi(t, y)): each invariant pair read off at its foot y +- t."""
    ap, _, cp, _ = flow.invariants_at(y + t)
    _, am, _, cm = flow.invariants_at(y - t)
    return StateU(0.5 * (ap - am), 0.5 * (ap + am), 0.5 * (cp + cm), 0.5 * (cm - cp))


def evolve_states(flow: CharacteristicFlow, t, s_points) -> StateU:
    """Exact solution state at times t and positions s_points (broadcast together).

    Periodic flows evaluate far times exactly through one period shift
    (`_reduce_time`): xi0(y + Y_p) = xi0(y) + S_p and Phi(y + Y_p) =
    Phi(y) + Phi_p give xi(m Y_p + r, y) = xi(r, y) + m Phi_p, so
    U(t, s) = U(r, s - m Phi_p) with m = round(t / Y_p), the shift taken
    modulo S_p.  The feet y +- r then stay within a period of the table;
    evaluated directly, the d'Alembert sum at |t| = 1e9 would lose about
    nine digits to cancellation.  For m = 0 nothing changes.
    """
    t, s = _finite("t", t), _finite("s_points", s_points)
    r, shift = _reduce_time(flow, t)
    return _state_from_feet(flow, xi_time_inverse(flow, r, s - shift), r)


def solve_augmented(source: Profile | CharacteristicFlow, t: float,
                    s_out: np.ndarray | None = None) -> Profile:
    """Evaluate the global solution at time t on a uniform output grid.

    `source` is either an initial profile (the flow is built on the fly) or a
    prebuilt CharacteristicFlow.  The output profile keeps the input grid,
    boundary mode and sampling semantics unless `s_out` overrides positions.
    """
    flow = source if isinstance(source, CharacteristicFlow) else build_flow(source)
    prof = flow.profile
    if s_out is None:
        s_pts = prof.s_samples
        s0, ds = prof.s0, prof.ds
    else:
        s_pts = np.asarray(s_out, dtype=float)
        ds = float(s_pts[1] - s_pts[0]) if len(s_pts) > 1 else prof.ds
        s0 = float(s_pts[0]) - (0.5 * ds if prof.rough else 0.0)
    U = evolve_states(flow, t, s_pts)
    return Profile(s0, ds, U.tau, U.v, U.eta, U.zeta, prof.boundary, prof.rough)


def tau_slope_consistency(flow: CharacteristicFlow, t, s_points) -> float:
    """Cross-check of the transported tau against the slope of xi(t, .).

    Returns max |(s_{i+1}-s_i)/(y_{i+1}-y_i) - tau_mid|, a second-order
    consistency measure between the integrated curve and the packet route.
    """
    s = np.asarray(s_points, dtype=float)
    y = xi_time_inverse(flow, t, s)
    U = evolve_states(flow, t, s)
    slope = np.diff(s) / np.diff(y)
    tau_mid = 0.5 * (U.tau[1:] + U.tau[:-1])
    return float(np.max(np.abs(slope - tau_mid)))


def evolve_cells(flow: CharacteristicFlow, t: float) -> CellField:
    """Exact piecewise-constant solution of rough data at time t.

    The state at (t, xi(t, y)) is constant between consecutive points of
    {b - t} union {b + t}, b running over the knots of the table (the jumps
    of the initial data); mapping those y-breakpoints through xi(t, .) gives
    the exact evolved cells.  Periodic flows evolve to the reduced time r of
    `_reduce_time` and shift the breakpoints by m Phi_p (mod S_p), as
    `evolve_states` does, so far times keep full accuracy.
    """
    if flow.mode != "pc":
        raise DomainError("evolve_cells requires a rough (piecewise-constant) flow")
    b = flow.y_edges
    t, shift = _reduce_time(flow, t)
    if flow.y_period is not None:
        pts = np.unique(flow._wind(np.concatenate([b[:-1] - t, b[:-1] + t]))[0])
        breaks_y = np.append(pts, pts[0] + flow.y_period)
    else:
        breaks_y = np.unique(np.concatenate([b - t, b + t]))
    mid = 0.5 * (breaks_y[:-1] + breaks_y[1:])
    return CellField(_xi_only(flow, t, breaks_y) + shift, _state_from_feet(flow, mid, t))


def reconstruct_string(flow: CharacteristicFlow, times, s_points,
                       sub_dt: float = 5e-3) -> list[StringGraph]:
    """Recover the string graph X from an augmented solution.

    ds X = eta/tau and dt X = -zeta - v eta/tau; X(0, .) comes from a
    fourth-order cumulative s-integration normalized by X(0, 0) = 0, the
    anchor line X(t, 0) from composite-Simpson time integration (continuous
    evaluation makes the substep free), and each requested time slice is
    anchored there.  All Simpson nodes are one batched solve and all slices
    another.  Requires tau >= delta/2 everywhere (degenerate states
    rejected) and a uniform s grid containing 0.
    """
    s_pts = np.asarray(s_points, dtype=float)
    ds = float(s_pts[1] - s_pts[0])
    if not s_pts[0] <= 0.0 <= s_pts[-1]:
        raise ValueError("s_points must contain 0 for the X(0,0) = 0 normalization")
    if float(np.min(flow.profile.tau)) < 0.5 * flow.delta:
        raise DomainError("degenerate state: tau below delta/2")
    times = list(times)
    if not times:
        return []

    # anchor line X(t, 0): march outward from t = 0 through the sorted times in
    # both directions, one composite-Simpson leg per step (a repeated time is a
    # leg of length 0), every node of every leg in one solve
    chains = (sorted(t for t in times if t >= 0.0),
              sorted((t for t in times if t < 0.0), reverse=True))
    legs = [(a, b) for chain in chains for a, b in zip([0.0] + chain[:-1], chain)]
    nodes = [np.linspace(a, b, max(2, 2 * int(math.ceil(abs(b - a) / (2.0 * sub_dt)))) + 1)
             for a, b in legs]
    tt = np.concatenate(nodes)
    U = evolve_states(flow, tt, np.zeros_like(tt))
    rate = -U.zeta - U.v[:, None] * U.eta / U.tau[:, None]
    anchor = {0.0: np.zeros(flow.profile.d)}
    for (a, b), vals in zip(legs, np.split(rate, np.cumsum([len(x) for x in nodes])[:-1])):
        w = np.ones(len(vals))
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        anchor[b] = anchor[a] + (b - a) / (len(vals) - 1) / 3.0 * np.tensordot(w, vals, axes=(0, 0))

    # every requested slice in one solve, each anchored at X(t, 0)
    tq, sq = np.broadcast_arrays(np.asarray(times, dtype=float)[:, None], s_pts)
    U = evolve_states(flow, tq, sq)
    if np.any(U.tau < 0.5 * flow.delta):
        raise DomainError("degenerate state: tau below delta/2")
    dxds = U.eta / U.tau[..., None]
    dxdt = -U.zeta - U.v[..., None] * dxds
    graphs = []
    for k, t in enumerate(times):
        prim = cumulative_integral(dxds[k], ds, "constant")
        at0 = cubic_interp(s_pts[0], ds, prim, np.zeros(1), "constant")[0]
        graphs.append(StringGraph(t, float(s_pts[0]), ds, prim - at0 + anchor[t], dxds[k],
                                  dxdt[k], flow.profile.boundary))
    return graphs


def residual_string(graphs: list[StringGraph], dt: float) -> np.ndarray:
    """Centered discrete residual of the graph-area system.

    dt(B dt X - C ds X) - ds(C dt X + D ds X) on the interior time levels of
    a uniformly spaced stack; s-derivatives wrap for periodic graphs and the
    two edge samples are dropped otherwise.
    """
    if len(graphs) < 3:
        raise ValueError("need at least three time levels")
    ds = graphs[0].ds
    periodic = graphs[0].boundary == "periodic"
    P, Q = [], []
    for g in graphs:
        _, B, C, D = g.area_coefficients()
        P.append(B[:, None] * g.dXdt - C[:, None] * g.dXds)
        Q.append(C[:, None] * g.dXdt + D[:, None] * g.dXds)
    out = []
    for k in range(1, len(graphs) - 1):
        dP = (P[k + 1] - P[k - 1]) / (2.0 * dt)
        if periodic:
            dQ = (np.roll(Q[k], -1, axis=0) - np.roll(Q[k], 1, axis=0)) / (2.0 * ds)
            out.append(dP - dQ)
        else:
            dQ = (Q[k][2:] - Q[k][:-2]) / (2.0 * ds)
            out.append(dP[1:-1] - dQ)
    return np.stack(out)


def residual_augmented(profiles: list[Profile], dt: float) -> dict:
    """Centered discrete residuals of the four augmented equations.

    Input: time-ordered profiles on one grid, uniformly spaced by dt.
    Returns per-equation residual stacks over the interior time levels plus
    their max magnitudes.
    """
    if len(profiles) < 3:
        raise ValueError("need at least three time levels")
    ds = profiles[0].ds
    periodic = profiles[0].boundary == "periodic"

    def ds_of(f):
        if periodic:
            return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * ds)
        pad = np.empty_like(f)
        pad[1:-1] = (f[2:] - f[:-2]) / (2.0 * ds)
        pad[0] = pad[1]
        pad[-1] = pad[-2]
        return pad

    res = {"tau": [], "v": [], "eta": [], "zeta": []}
    for k in range(1, len(profiles) - 1):
        pm, p0, pp = profiles[k - 1], profiles[k], profiles[k + 1]
        dt_tau = (pp.tau - pm.tau) / (2.0 * dt)
        dt_v = (pp.v - pm.v) / (2.0 * dt)
        dt_eta = (pp.eta - pm.eta) / (2.0 * dt)
        dt_zeta = (pp.zeta - pm.zeta) / (2.0 * dt)
        s_tau, s_v = ds_of(p0.tau), ds_of(p0.v)
        s_eta, s_zeta = ds_of(p0.eta), ds_of(p0.zeta)
        v0, tau0 = p0.v, p0.tau
        r_tau = dt_tau + v0 * s_tau - tau0 * s_v
        r_v = dt_v + v0 * s_v - tau0 * s_tau
        r_eta = dt_eta + v0[:, None] * s_eta + tau0[:, None] * s_zeta
        r_zeta = dt_zeta + v0[:, None] * s_zeta + tau0[:, None] * s_eta
        if not periodic:
            r_tau, r_v = r_tau[1:-1], r_v[1:-1]
            r_eta, r_zeta = r_eta[1:-1], r_zeta[1:-1]
        res["tau"].append(r_tau)
        res["v"].append(r_v)
        res["eta"].append(r_eta)
        res["zeta"].append(r_zeta)
    out = {k: np.stack(vs) for k, vs in res.items()}
    out["max_abs"] = max(float(np.max(np.abs(a))) for a in out.values())
    return out


def galilean_on_solution(flow: CharacteristicFlow, u: float, times, s_grid) -> list[Profile]:
    """Boosted solution slices: U~(t, s) = U(t, s - u t) + (0, u, 0, 0).

    The boosted initial data are recertified by `admissibility` (failure
    raises); evaluation uses the original flow at the shifted positions, so
    no resampling error enters.
    """
    prof = flow.profile
    shifted = Profile(prof.s0, prof.ds, prof.tau, prof.v + u, prof.eta, prof.zeta,
                      prof.boundary, prof.rough)
    admissibility(shifted)
    s_pts = np.asarray(s_grid, dtype=float)
    ds = float(s_pts[1] - s_pts[0]) if len(s_pts) > 1 else prof.ds
    out = []
    for t in times:
        U = evolve_states(flow, t, s_pts - u * t)
        out.append(Profile(float(s_pts[0]), ds, U.tau, U.v + u, U.eta, U.zeta,
                           prof.boundary, prof.rough))
    return out


def xi_wave_residual(flow: CharacteristicFlow, t_pts, y_pts, dy_fd: float,
                     dt_fd: float | None = None) -> float:
    """Max discrete wave-equation residual of xi on a (t, y) lattice.

    Centered second differences with distinct steps in t and y (equal steps
    would telescope exactly through the d'Alembert form and measure nothing);
    the residual decays at second order for smooth data.
    """
    if dt_fd is None:
        dt_fd = 0.5 * dy_fd
    worst = 0.0
    y = np.asarray(y_pts, dtype=float)
    for t in t_pts:
        dtt = (_xi_only(flow, t + dt_fd, y) - 2.0 * _xi_only(flow, t, y)
               + _xi_only(flow, t - dt_fd, y)) / dt_fd**2
        dyy = (_xi_only(flow, t, y + dy_fd) - 2.0 * _xi_only(flow, t, y)
               + _xi_only(flow, t, y - dy_fd)) / dy_fd**2
        worst = max(worst, float(np.max(np.abs(dtt - dyy))))
    return worst
