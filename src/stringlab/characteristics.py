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

State recovery.  In the straightening coordinates the state is the y-slope
of the initial tables: dy xi0 = tau, dy Phi = v and dy E+- = eta -+ zeta
with E+-(y) = integral_0^y (eta -+ zeta) dy.  Each invariant rides its
family from its feeding foot, so at s = xi(t, y)

    (v + tau)(t, s) = (v + tau)(0, xi0(y + t)),   eta - zeta likewise,
    (v - tau)(t, s) = (v - tau)(0, xi0(y - t)),   eta + zeta likewise,

the slopes of the tables read at the feet y + t and y - t.

Inside the window delta <= tau +- (v - alpha) <= 1/delta the slope dy xi
stays in [delta, 1/delta] for all time, xi(t, .) is bi-Lipschitz, and the
formulas define a global solution for every measurable initial state.
Evolution is evaluation: there is no time stepping, and discretization
error lives only in the initial-curve tables and field interpolation.

The ODE dy xi0 = tau(0, xi0) is separable, so the tables come from one
quadrature at the data's own s-points: the knots y(s) = integral_0^s
dsigma/tau and the columns (s, Phi, E+, E-).  They are stored by family,
A = (xi0 + Phi)/2 with E+/2 read at y + t and B = (xi0 - Phi)/2 with E-/2
read at y - t, so xi = A(y + t) + B(y - t), the string X = [E+(y + t) +
E-(y - t)]/2 (dy X = eta, dt X = -zeta) and the state is the families'
slopes there.  Smooth and rough data share one monotone table type and
reader (`profiles.KnotTable`): smooth data use fourth-order quadrature on
their grid and cubic Hermite interpolation (certified monotone interval by
interval), rough data exact cell sums and linear interpolation, so a rough
table's slope is the cell state itself.  Rough data enter as cells (a rough
Profile as its runs of equal samples) and leave only as cells: `evolve_cells`
returns a CellField, initial data again.  Smooth data are sampled on a grid.

Inversion.  Every state evaluation needs the y with xi(t, y) = s.  One
vectorized, safeguarded Newton solver (`xi_time_inverse`) serves all of
them, over arrays of times and positions that broadcast together.  Each
step reads one column per foot, A at y + t and B at y - t, value and slope
off one lookup.  At one time Newton starts on the linear interpolant of
xi(t, .) over a coarse y lattice of the flow's own (one node per 16 knots)
and converges in 2-3 steps.  One final read per foot (A or B, and the
family's slopes) gives the residual and the state; X is read at its cells.
`solve_augmented` and `galilean_on_solution` solve their grids 4,096 points
at a time (`_SOLVE_POINTS`) into output arrays allocated once.  At one time
a point's state depends on no other point, so the blocks give the bits of
one call, and the solver's temporaries stay at about 1.5 MB at any n.
Temporaries that grow with n are handed back to the operating system when
freed and faulted in again, a page at a time, on every solve.

Periodic data are global in time exactly: a whole period of time only
shifts the solution (`_reduce_time`), so `evolve_states`, `evolve_cells`
and `reconstruct_string` evaluate |t| = 1e9 as accurately as |t| < Y_p / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DomainError, StateU
from .profiles import (CellField, KnotTable, Profile, centered_slopes, cumulative_integral, require_finite,
                       uniform_grid)
from .waves import StringGraph

_SOLVE_POINTS = 4096  # output points solved at a time (see the module docstring)


class InadmissibleDataError(ValueError):
    """Initial data admits no global bi-Lipschitz straightening."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass
class AdmissibilityWindow:
    alpha: float
    delta: float


def admissibility(source: Profile | CellField) -> AdmissibilityWindow:
    """Best centering alpha and largest window half-width delta for the data.

    Global solvability requires v - tau < v' + tau' between any two samples
    (cells of a CellField); the optimal alpha is the midpoint of
    [sup(v - tau), inf(v + tau)] and the returned delta also respects the
    upper bound tau +- (v - alpha) <= 1/delta.  Raises
    InadmissibleDataError carrying the violating sample (cell) pair.
    """
    if isinstance(source, CellField):
        U, s = source.states, 0.5 * (source.breaks[:-1] + source.breaks[1:])
    else:
        U, s = source.state(), source.s_samples
    for name in ("tau", "v"):
        vals = getattr(U, name)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise InadmissibleDataError(
                f"{name} must be finite; {name}[{i}] = {vals[i]} at s = {s[i]:.6g}",
                pair=(i, i),
            )
    if np.any(U.tau <= 0.0):
        i = int(np.argmin(U.tau))
        raise InadmissibleDataError(
            f"tau must be positive; tau = {U.tau[i]:.6g} at s = {s[i]:.6g}",
            pair=(i, i),
        )
    wm = U.v - U.tau
    wp = U.v + U.tau
    i = int(np.argmax(wm))
    j = int(np.argmin(wp))
    if wm[i] >= wp[j]:
        raise InadmissibleDataError(
            "no admissible window: "
            f"(v - tau)(s = {s[i]:.6g}) = {wm[i]:.6g} >= (v + tau)(s = {s[j]:.6g}) = {wp[j]:.6g}",
            pair=(i, j),
        )
    alpha = 0.5 * (wm[i] + wp[j])
    delta_low = 0.5 * (wp[j] - wm[i])
    hi = max(np.max(wp) - alpha, alpha - np.min(wm))
    delta = min(delta_low, 1.0 / hi, 1.0 - 1e-12)
    return AdmissibilityWindow(alpha, delta)


@dataclass
class CharacteristicFlow(KnotTable):
    """Immutable evaluation machinery for one set of initial data.

    The initial data are one monotone `KnotTable` over the knots `y_edges`
    whose rows come in two characteristic families: A = (xi0 + Phi)/2 and
    E+/2 (d rows), read at the foot y + t, then B = (xi0 - Phi)/2 and E-/2,
    read at y - t, where xi0 = s, Phi and E+- are the initial columns.  Their
    y-slopes (tau + v)/2, (eta - zeta)/2, (tau - v)/2 and (eta + zeta)/2 are
    the initial state.  Smooth tables take their `secants` from the
    quadrature increments; rough data are cells, whose knots sit only at the
    data's jumps.  `profile` is the smooth Profile the flow was built from
    (None for rough data), kept only for the output grid of `solve_augmented`
    and `galilean_on_solution`.  All methods are pure and safe for
    concurrent callers.  `alpha`/`delta` record the admissible window used;
    the slopes are certified inside [delta - 1e-9, 1/delta + 1e-9].
    """

    profile: Profile | None
    d: int
    alpha: float
    delta: float

    xi_nodes = property(lambda self: self.values[0] + self.values[1 + self.d])
    xi_slopes = property(lambda self: self.slopes[0] + self.slopes[1 + self.d])
    s_period = property(lambda self: None if self.periods is None
                        else float(self.periods[0] + self.periods[1 + self.d]))
    phi_period = property(lambda self: None if self.periods is None
                          else float(self.periods[0] - self.periods[1 + self.d]))

    @property
    def boundary(self) -> str:
        return "constant" if self.s_period is None else "periodic"

    def _family(self, sign, first=False):
        """The rows the foot y + sign t reads: A and E+/2 for sign 1, B and
        E-/2 for sign -1; with first, only A or B."""
        start = 0 if sign > 0 else 1 + self.d
        return slice(start, start + (1 if first else 1 + self.d))


def _feet(flow, t, y, first=False, value=True, slope=True):
    """The feet y + t and y - t, each located once: per foot the (values,
    slopes) of its family's rows (only A or B with first), each shaped
    (rows, *y.shape), the one not asked for None."""
    return [flow._tables(flow._cell(y + sign * t), flow._family(sign, first), value, slope)
            for sign in (1, -1)]


def _state(feet, out=None):
    """U at (t, xi(t, y)) from the family slopes at the feet y + t and y - t:
    tau, v = A' +- B' and eta = E+'/2 + E-'/2, zeta = E-'/2 - E+'/2, written
    into the StateU `out` (eta and zeta C-ordered with d trailing) or a new one."""
    (_, p), (_, m) = feet
    out = _empty_state(p.shape[1:], len(p) - 1) if out is None else out
    np.add(p[0], m[0], out=out.tau)
    np.subtract(p[0], m[0], out=out.v)
    np.add(p[1:], m[1:], out=np.moveaxis(out.eta, -1, 0))
    np.subtract(m[1:], p[1:], out=np.moveaxis(out.zeta, -1, 0))
    return out


def _empty_state(shape, d):
    """An uninitialized StateU over the points of `shape`, with d trailing in eta and zeta."""
    return StateU(np.empty(shape), np.empty(shape), np.empty(shape + (d,)), np.empty(shape + (d,)))


def _trailing(a):
    """Table rows (rows, *shape) as one C-ordered (*shape, rows) array."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _by_family(a, d):
    """Rows (xi0, E+ (d), Phi, E- (d)) turned in place into the family rows
    ((xi0 + Phi)/2, E+/2, (xi0 - Phi)/2, E-/2); halving is exact."""
    a[0], a[1 + d] = a[0] + a[1 + d], a[0] - a[1 + d]
    a *= 0.5
    return a


def build_flow(source: Profile | CellField, alpha: float | None = None,
               delta: float | None = None) -> CharacteristicFlow:
    """Construct the straightening map for admissible initial data.

    One cumulative quadrature of (1, v, eta - zeta, eta + zeta)/tau over s
    at the data's own s-points gives the knots y(s) and the columns Phi, E+
    and E-; the s-points are the xi0 column, and the integrands' numerators,
    with tau for the 1, are the columns' y-slopes.  The columns are stored by
    family (`CharacteristicFlow`).  Rough data are cells (a CellField, or a
    rough Profile turned into its runs of equal samples by `Profile.runs`
    here), of any widths, whose columns are exact cumulative cell sums at
    the breaks; their flow keeps no profile.  Smooth profiles use the
    fourth-order `cumulative_integral` on their grid, whose periodic tables
    close at s0 + S_p with full-period trapezoid sums; their secants are the
    quadrature increments over the y-increments, so a constant state reads
    back to rounding.  Every column vanishes at y = 0, read off the flow's
    own table: the knots move by the root of xi0, and Phi and E+- lose their
    values there, so xi0(0) and Phi(0) are 0 to rounding on any grid.
    Raises InadmissibleDataError through `admissibility`, and DomainError
    for a one-sample smooth constant-boundary profile (no knot interval), an
    aperiodic window without s = 0, a slope outside [delta - 1e-9,
    1/delta + 1e-9] (unreachable after admissibility) or a smooth interval
    that fails the Fritsch-Carlson monotonicity test a, b > 0,
    a^2 + b^2 <= 9.
    """
    if alpha is None or delta is None:
        win = admissibility(source)
        alpha, delta = win.alpha, win.delta
    if isinstance(source, Profile) and source.rough:
        source = source.runs()
    profile = source if isinstance(source, Profile) else None
    rough = profile is None
    if rough:
        U, s, s_period = source.states, source.breaks, source.period
    else:
        n, ds, s_period = profile.n, profile.ds, profile.period
        if profile.boundary != "periodic":
            s_period = None
            if n < 2:
                raise DomainError(f"a smooth constant-boundary table needs n >= 2 samples; "
                                  f"got n = {n} at s0 = {profile.s0:.6g}")
        U = profile.state()
        s = profile.s0 + ds * np.arange(n + (s_period is not None))
    # the integrand numerators (1, eta - zeta, v, eta + zeta), one row each,
    # C-ordered so that a family's rows gather without a copy, with the
    # closing knot of a periodic smooth table repeating the first sample; the
    # 1 becomes tau below, and the rows are then the columns' y-slopes
    d, m = U.d, U.tau.size
    W = np.empty((2 + 2 * d, len(s) - rough))
    W[0, :m], W[1 + d, :m] = 1.0, U.v
    np.subtract(U.eta.T, U.zeta.T, out=W[1:1 + d, :m])
    np.add(U.eta.T, U.zeta.T, out=W[2 + d:, :m])
    W[:, m:] = W[:, :1]
    if s_period is None and not s[0] <= 0.0 <= s[-1]:
        raise DomainError("the window must contain s = 0 (normalization xi(0,0) = 0)")
    if rough:
        tau, secants = U.tau, None
        Q = np.zeros((len(W), len(s)))
        np.multiply(W, source.widths() / tau, out=Q[:, 1:])
        np.cumsum(Q[:, 1:], axis=1, out=Q[:, 1:])
    else:
        tau = U.tau if s_period is None else np.append(U.tau, U.tau[0])
        Q, secants = np.empty(W.shape), np.empty((len(W), len(s) - 1))
        for i, w in enumerate(W):
            Q[i], secants[i] = cumulative_integral(w[:n] / U.tau, ds, profile.boundary)
        # the increments over the y-increments; the xi0 column's increment is ds
        secants[1:] /= secants[0]
        secants[0] = ds / secants[0]
    if np.min(tau) < delta - 1e-9 or np.max(tau) > 1.0 / delta + 1e-9:
        raise DomainError("initial-curve slope escaped [delta, 1/delta]")
    if not rough:
        # Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980): a Hermite interval is
        # monotone if its end slopes over the secant have a, b > 0, a^2 + b^2 <= 9
        a, b = tau[:-1] / secants[0], tau[1:] / secants[0]
        bad = np.flatnonzero((a <= 0.0) | (b <= 0.0) | (a * a + b * b > 9.0))
        if bad.size:
            i = int(bad[0])
            raise DomainError(
                f"the smooth initial curve is not certified monotone on s in "
                f"[{s[i]:.6g}, {s[i + 1]:.6g}] (Fritsch-Carlson a = {a[i]:.3g}, b = {b[i]:.3g}, "
                f"need a, b > 0 and a^2 + b^2 <= 9); use rough=True or a finer grid")
    periods, y_period, y = None, None, Q[0].copy()
    if s_period is not None:
        periods, y_period = Q[:, -1].copy(), float(Q[0, -1])
        periods[0] = s_period
    Q[0], W[0] = s, tau
    V, M, sec, per = (None if a is None else _by_family(a, d) for a in (Q, W, secants, periods))
    flow = CharacteristicFlow("pc" if rough else "smooth", y, V, M, sec, y_period, per, profile, d,
                              alpha, delta)
    # every column vanishes at y = 0: the knots move by xi0's root, then A
    # and B lose the half of Phi(0) they carry (keeping A + B = xi0), E+-/2 all
    flow.y_edges = y - _inverse(flow, 0.0, 0.0)[0]
    c = flow._tables(flow._cell(0.0), slice(None))[0]
    c[0] = 0.5 * (c[0] - c[1 + d])
    c[1 + d] = -c[0]
    flow.values -= c[:, None]
    return flow


def xi_evaluate(flow: CharacteristicFlow, t, y):
    """(xi, dt xi, dy xi) at (t, y) from the d'Alembert formulas: dt xi = v, dy xi = tau."""
    (p, dp), (m, dm) = _feet(flow, t, np.asarray(y, dtype=float), first=True)
    return p[0] + m[0], dp[0] - dm[0], dp[0] + dm[0]


def _xi_only(flow, t, y):
    """xi(t, y) = A(y + t) + B(y - t)."""
    (p, _), (m, _) = _feet(flow, t, y, True, slope=False)
    return p[0] + m[0]


def xi_time_inverse(flow: CharacteristicFlow, t, s):
    """y with xi(t, y) = s, by safeguarded Newton; t and s broadcast together.

    With e = s - xi(t, 0), the Lipschitz bounds delta <= dy xi <= 1/delta
    put the root in [e delta, e/delta] (in [e/delta, e delta] for e < 0).
    Newton starts at `_newton_start`, whose lattice depends on the flow and
    t alone, so at one time a point's y does not depend on the call's other
    points; a call at several times starts at the bracket midpoint.  It
    steps with the exact slope of the tables' interpolants, each step one
    read of A at y + t and B at y - t (`_feet`).  Every evaluation narrows
    the bracket, and a step that leaves it or fails to halve the previous
    step is replaced by bisection, so the iteration cannot fail.  A point
    stops once its step is at most 1e-12 (1 + |y|).  Periodic flows solve at
    the reduced time of `_reduce_time` and add the whole y-periods back.
    The residual must stay within 1e-8 (1 + |s|) plus 8 ulps of
    (|y| + |t|)/delta, the rounding of a d'Alembert sum at feet that far
    out (aperiodic data at |t| = 1e9).  A non-finite t or s raises
    ValueError naming it.
    """
    return _inverse(flow, t, s)[0]


def _inverse(flow, t, s):
    """(y, cells, feet): `xi_time_inverse`, then per foot of its final read
    at the reduced time the `_cell` lookup and (values, slopes) as `_feet`
    gives them, the value of A or B only; `reconstruct_string` reads X at
    the cells."""
    t, s = require_finite("t", t), require_finite("s", s)
    t, shift, lag = _reduce_time(flow, t)
    s = s - shift
    e = s - _xi_only(flow, t, np.zeros_like(t))
    t, s, e = np.broadcast_arrays(t, s, e)
    shape = e.shape
    y = _newton(flow, *(a.ravel() for a in (t, s, e))).reshape(shape)
    cells = [flow._cell(y + sign * t) for sign in (1, -1)]
    feet = [(flow._tables(c, flow._family(sign, True))[0],
             flow._tables(c, flow._family(sign), False, True)[1]) for c, sign in zip(cells, (1, -1))]
    (xp, _), (xm, _) = feet
    resid = np.abs(xp[0] + xm[0] - s)
    bound = 1e-8 * (1.0 + np.abs(s)) + 8.0 * np.spacing((np.abs(y) + np.abs(t)) / flow.delta)
    if not np.all(resid <= bound):  # a NaN fails too
        # unreachable for a bi-Lipschitz curve; indicates a broken bracket
        i = np.unravel_index(np.argmax(~(resid <= bound)), shape)
        raise RuntimeError(f"internal error: inversion residual {resid[i]:.3e} > {bound[i]:.3e} "
                           f"at t = {t[i]:.6g}, s = {s[i]:.6g}")
    return y - lag, cells, feet


def _newton(flow, t, s, e):
    """The safeguarded Newton of `xi_time_inverse` on flat t and s, with
    e = s - xi(t, 0); its work arrays die with the call, before the final read."""
    margin = 1e-9 * (1.0 + np.abs(e))
    lo = np.where(e >= 0.0, e * flow.delta, e / flow.delta) - margin
    hi = np.where(e >= 0.0, e / flow.delta, e * flow.delta) + margin
    y = _newton_start(flow, t, s, lo, hi)
    step = hi - lo
    live = np.arange(y.size)  # points still iterating
    for _ in range(200):
        if not live.size:
            break
        tl, yl = t[live], y[live]
        (p, dp), (m, dm) = _feet(flow, tl, yl, first=True)
        f = p[0] + m[0] - s[live]
        lo_l = np.where(f < 0.0, yl, lo[live])
        hi_l = np.where(f < 0.0, hi[live], yl)
        newton = f / (dp[0] + dm[0])
        y_new = yl - newton
        bisect = (y_new < lo_l) | (y_new > hi_l) | (np.abs(newton) > 0.5 * np.abs(step[live]))
        y_new = np.where(bisect, 0.5 * (lo_l + hi_l), y_new)
        lo[live], hi[live], y[live], step[live] = lo_l, hi_l, y_new, y_new - yl
        live = live[np.abs(y_new - yl) > 1e-12 * (1.0 + np.abs(y_new))]
    return y


def _newton_start(flow, t, s, lo, hi):
    """Newton's start for the points (t, s) in their brackets [lo, hi]: at
    one time, the linear interpolant of xi(t, .) over a lattice across the
    knots, one node per 16 (s less whole s-periods over one y-period for
    periodic flows); the bracket midpoint for a point whose lattice
    interval does not hold s (beyond the lattice, or flat by rounding) and
    for calls at several times."""
    y = 0.5 * (lo + hi)
    if not t.size or np.any(t != t[0]):
        return y
    yc = np.linspace(flow.y_edges[0], flow.y_edges[-1], flow.y_edges.size // 16 + 2)
    xc = _xi_only(flow, t[0], yc)
    wind, y_p = 0.0, 0.0
    if flow.y_period is not None:
        wind, y_p = np.floor((s - xc[0]) / flow.s_period), flow.y_period
        s = s - wind * flow.s_period
    j = np.clip(np.searchsorted(xc, s), 1, yc.size - 1)
    y0, y1, x0, x1 = yc[j - 1], yc[j], xc[j - 1], xc[j]
    held = (x0 <= s) & (s <= x1) & (x0 < x1)
    start = y0 + (s - x0) * ((y1 - y0) / np.where(held, x1 - x0, 1.0)) + wind * y_p
    return np.clip(np.where(held, start, y), lo, hi)


def _reduce_time(flow, t):
    """(r, shift, lag) with xi(t, y) = xi(r, y + lag) + shift, so U(t, s) = U(r, s - shift).

    The periodic-time algebra, in one place.  For periodic flows t = m Y_p + r
    with m = round(t / Y_p), so |r| <= Y_p / 2, and m Phi_p = shift + j S_p
    with the shift in [-S_p/2, S_p/2]; the whole s-periods j S_p dropped from
    the shift are lag = j Y_p in y.  The string moves by whole periods of
    its E+- columns: X(t, s) = X(r, s - shift) + m (E+_p - E-_p)/2 - j (E+_p
    + E-_p)/2.  At the reduced time the feet stay within a period of the
    table; read at t itself, the d'Alembert sum at |t| = 1e9 would lose
    about nine digits to cancellation.  Aperiodic flows and m = 0 give
    (t, 0, 0).
    """
    if flow.y_period is None:
        return t, 0.0, 0.0
    m = np.round(t / flow.y_period)
    j = np.round(m * flow.phi_period / flow.s_period)
    return t - m * flow.y_period, m * flow.phi_period - j * flow.s_period, j * flow.y_period


def evolve_states(flow: CharacteristicFlow, t, s_points) -> StateU:
    """Exact solution state at times t and positions s_points (broadcast together).

    The states are the family slopes at the feet of the final read of
    `_inverse`, which solves periodic flows at the reduced time of
    `_reduce_time`, so no foot is located twice.
    """
    return _state(_inverse(flow, require_finite("t", t), require_finite("s_points", s_points))[2])


def _source_profile(flow):
    """The smooth Profile a flow was built from; its grid shapes the output."""
    if flow.profile is None:
        raise ValueError("this flow was built from rough data, which evolve exactly as cells: "
                         "use evolve_cells, or evolve_states at chosen points")
    return flow.profile


def solve_augmented(source: Profile | CharacteristicFlow, t: float,
                    s_out: np.ndarray | None = None) -> Profile:
    """Sample the global solution of smooth data at time t on a uniform grid.

    `source` is either a smooth initial profile (the flow is built on the
    fly) or a prebuilt CharacteristicFlow.  The output profile keeps the
    input grid and boundary mode unless `s_out` overrides positions; an
    `s_out` off a uniform grid raises ValueError (`uniform_grid`).  Rough
    data raise ValueError: they evolve exactly as cells (`evolve_cells`).
    """
    flow = source if isinstance(source, CharacteristicFlow) else build_flow(source)
    prof = _source_profile(flow)
    if s_out is None:
        s_pts, (s0, ds) = prof.s_samples, (prof.s0, prof.ds)
    else:
        s_pts = np.asarray(s_out, dtype=float)
        s0, ds = uniform_grid(s_pts, prof.ds, "s_out")
    U = _states_at(flow, t, s_pts)
    return Profile(s0, ds, U.tau, U.v, U.eta, U.zeta, prof.boundary)


def _states_at(flow, t, s_pts):
    """`evolve_states` at the one time t over the 1-D s_pts, _SOLVE_POINTS
    points at a time, each block's states written into one StateU allocated
    here.  Only one time is blocked: at several times Newton starts at the
    bracket midpoint, which a block would move (`_newton_start`)."""
    t, n = require_finite("t", t), s_pts.size
    U = _empty_state((n,), flow.d)
    for i in range(0, n, _SOLVE_POINTS):
        b = slice(i, i + _SOLVE_POINTS)
        _state(_inverse(flow, t, s_pts[b])[2], StateU(U.tau[b], U.v[b], U.eta[b], U.zeta[b]))
    return U


def tau_slope_consistency(flow: CharacteristicFlow, t, s_points) -> float:
    """Cross-check of the transported tau against the slope of xi(t, .).

    Returns max |(s_{i+1}-s_i)/(y_{i+1}-y_i) - tau_mid|, a second-order
    consistency measure between the secants of xi(t, .) and the state read
    off the tables' slopes.
    The y are solved at the reduced time of `_reduce_time` (`_inverse`).
    """
    s = np.asarray(s_points, dtype=float)
    y, _, feet = _inverse(flow, t, s)
    U = _state(feet)
    slope = np.diff(s) / np.diff(y)
    tau_mid = 0.5 * (U.tau[1:] + U.tau[:-1])
    return float(np.max(np.abs(slope - tau_mid)))


def evolve_cells(flow: CharacteristicFlow, t: float) -> CellField:
    """Exact piecewise-constant solution of rough data at time t.

    The state at (t, xi(t, y)) is constant between consecutive points of
    {b - t} union {b + t}, b running over the knots of the table (the jumps
    of the initial data); mapping those y-breakpoints through xi(t, .) gives
    the exact evolved cells.  Past the breaks up to a point of their stable
    merge, y + t lies in the knot interval of the last b - t break and y - t
    in that of the last b + t break: each cell reads its state off the
    families' slope rows there, with no point located.  Periodic flows
    evolve to the reduced time of `_reduce_time` and move the breakpoints
    by its shift, so far times keep full accuracy.  The field keeps the
    flow's period, so it builds the flow of its own evolution.  A
    non-finite t raises ValueError naming it.
    """
    if flow.mode != "pc":
        raise DomainError("evolve_cells requires a rough (piecewise-constant) flow")
    b, periodic = flow.y_edges, flow.y_period is not None
    t, shift, _ = _reduce_time(flow, require_finite("t", t))
    # breaks of the two families that agree to the rounding of the knots
    # (within 64 ulps of their magnitude) are one break: a sliver between
    # them would read its two feet from different cells
    tol = 64.0 * np.spacing(np.max(np.abs(b)) + np.abs(t))
    n = len(b) - periodic  # knots per family: a period's closing knot is its first
    pts = flow._wind(np.concatenate([b[:n] - t, b[:n] + t]))[0]
    order = np.argsort(pts, kind="stable")  # knot j of b - t is j, of b + t is n + j
    pts = np.take(pts, order)
    before = pts[-1] - flow.y_period if periodic else -np.inf  # the break before the first
    keep = np.flatnonzero(np.diff(pts, prepend=before) > tol)
    # a cell's feet lie past the breaks up to the next kept one (the next
    # period's first, for the last cell), c of them b + t; before its first
    # crossing a foot is in the period's last interval (constant: the first)
    minus, last = order >= n, (np.roll(keep, -1) if periodic else keep[1:]) - 1
    c, mode = np.take(np.cumsum(minus), last), "wrap" if periodic else "clip"
    kp = np.take(order[~minus][:len(b) - 1], last - c, mode=mode)
    km = np.take(order[minus][:len(b) - 1] - n, c - 1, mode=mode)
    U = _state([(None, np.take(flow.slopes[flow._family(sign)], k, axis=1))
                for sign, k in ((1, kp), (-1, km))])
    breaks_y = np.take(pts, keep)
    breaks_y = np.append(breaks_y, breaks_y[0] + flow.y_period) if periodic else breaks_y
    # xi(t, .) increases strictly, but two breaks_y a rounding apart can map
    # one ulp out of order; such a pair is one break
    breaks = np.maximum.accumulate(_xi_only(flow, t, breaks_y) + shift)
    return CellField(breaks, U, flow.s_period)


def reconstruct_string(flow: CharacteristicFlow, times, s_points) -> list[StringGraph]:
    """String graphs X(t, .) on a uniform s grid, by d'Alembert.

    X(t, xi(t, y)) = [E+(y + t) + E-(y - t)]/2 with E+- = integral_0^y
    (eta -+ zeta) dy, the E+-/2 rows of the flow's families, so X(0, 0) = 0.
    X, their values at the cells of one inversion's final read, ds X =
    eta/tau and dt X = -zeta - v eta/tau, off that read's slopes.  Periodic
    flows add back the whole periods of E+- that `_reduce_time` drops.
    Degenerate states (tau < delta/2) raise DomainError; s_points off a
    uniform grid raise ValueError (`uniform_grid`; a one-point grid takes the
    source profile's ds, and a flow of rough data has none).
    """
    s_pts = np.asarray(s_points, dtype=float)
    s0, ds = uniform_grid(s_pts, None if flow.profile is None else flow.profile.ds, "s_points")
    if float(np.min(flow.xi_slopes)) < 0.5 * flow.delta:
        raise DomainError("degenerate state: tau below delta/2")
    times = list(times)
    if not times:
        return []
    tq, sq = np.broadcast_arrays(require_finite("times", times)[:, None], s_pts)
    _, cells, feet = _inverse(flow, tq, sq)
    U = _state(feet)
    if np.any(U.tau < 0.5 * flow.delta):
        raise DomainError("degenerate state: tau below delta/2")
    xp, xm = (flow._tables(c, slice(f.start + 1, f.stop))[0]
              for c, f in zip(cells, (flow._family(1), flow._family(-1))))
    X = _trailing(xp + xm)
    if flow.y_period is not None:
        r, _, lag = _reduce_time(flow, tq)
        m, j = np.round((tq - r) / flow.y_period), np.round(lag / flow.y_period)
        ep, em = flow.periods[flow._family(1)][1:], flow.periods[flow._family(-1)][1:]
        X += m[..., None] * (ep - em) - j[..., None] * (ep + em)

    dxds = U.eta / U.tau[..., None]
    dxdt = -U.zeta - U.v[..., None] * dxds
    return [StringGraph(t, s0, ds, X[k], dxds[k], dxdt[k], flow.boundary)
            for k, t in enumerate(times)]


def residual_string(graphs: list[StringGraph], dt: float) -> np.ndarray:
    """Centered discrete residual of the graph-area system.

    dt(B dt X - C ds X) - ds(C dt X + D ds X) on the interior time levels of
    a uniformly spaced stack; s-derivatives wrap for periodic graphs and the
    two edge samples are dropped otherwise.
    """
    if len(graphs) < 3:
        raise ValueError("need at least three time levels")
    ds, boundary = graphs[0].ds, graphs[0].boundary
    P, Q = [], []
    for g in graphs:
        _, B, C, D = g.area_coefficients()
        P.append(B[:, None] * g.dXdt - C[:, None] * g.dXds)
        Q.append(C[:, None] * g.dXdt + D[:, None] * g.dXds)
    out = []
    for k in range(1, len(graphs) - 1):
        r = (P[k + 1] - P[k - 1]) / (2.0 * dt) - centered_slopes(Q[k], ds, boundary)
        out.append(r if boundary == "periodic" else r[1:-1])
    return np.stack(out)


def residual_augmented(profiles: list[Profile], dt: float) -> dict:
    """Centered discrete residuals of the four augmented equations.

    Input: time-ordered profiles on one grid, uniformly spaced by dt.  With
    P the packed state (tau, v, eta, zeta), the equations are dt P + v ds P
    + sign tau ds P[swap] = 0, where swap exchanges tau with v and eta with
    zeta and sign is -1 for tau and v, +1 for eta and zeta.  Returns
    per-equation residual stacks over the interior time levels plus their
    max magnitudes.
    """
    if len(profiles) < 3:
        raise ValueError("need at least three time levels")
    ds, boundary, d = profiles[0].ds, profiles[0].boundary, profiles[0].d
    P = np.stack([p.packed() for p in profiles])
    mid = P[1:-1]
    # s-slopes; the one-sided edge slopes of constant boundaries are dropped below
    slopes = centered_slopes(mid.swapaxes(0, 1), ds, boundary).swapaxes(0, 1)
    swap = np.r_[1, 0, 2 + d:2 + 2 * d, 2:2 + d]
    sign = np.r_[-1.0, -1.0, np.ones(2 * d)]
    r = ((P[2:] - P[:-2]) / (2.0 * dt) + mid[..., 1:2] * slopes
         + (sign * mid[..., :1]) * slopes[..., swap])
    if boundary != "periodic":
        r = r[:, 1:-1]
    out = {"tau": r[..., 0], "v": r[..., 1], "eta": r[..., 2:2 + d], "zeta": r[..., 2 + d:]}
    out["max_abs"] = max(float(np.max(np.abs(a))) for a in out.values())
    return out


def galilean_on_solution(flow: CharacteristicFlow, u: float, times, s_grid) -> list[Profile]:
    """Boosted solution slices of smooth data: U~(t, s) = U(t, s - u t) + (0, u, 0, 0).

    The boosted initial data are recertified by `admissibility` (failure
    raises); evaluation uses the original flow at the shifted positions, so
    no resampling error enters.  A flow of rough data raises ValueError, as
    in `solve_augmented`.
    """
    prof = _source_profile(flow)
    admissibility(Profile(prof.s0, prof.ds, prof.tau, prof.v + u, prof.eta, prof.zeta, prof.boundary))
    s_pts = np.asarray(s_grid, dtype=float)
    s0, ds = uniform_grid(s_pts, prof.ds, "s_grid")
    states = (_states_at(flow, t, s_pts - u * t) for t in times)
    return [Profile(s0, ds, U.tau, U.v + u, U.eta, U.zeta, prof.boundary) for U in states]


def xi_wave_residual(flow: CharacteristicFlow, t_pts, y_pts, dy_fd: float) -> float:
    """Max discrete wave-equation residual of xi on a (t, y) lattice.

    Centered second differences with distinct steps, dt = dy/2 (equal steps
    would telescope exactly through the d'Alembert form and measure nothing);
    the residual decays at second order for smooth data.  Each of the five
    stencil points is one read of xi over the whole lattice.
    """
    dt_fd = 0.5 * dy_fd
    t = np.asarray(t_pts, dtype=float)[:, None]
    y = np.asarray(y_pts, dtype=float)
    xi2 = 2.0 * _xi_only(flow, t, y)
    dtt = (_xi_only(flow, t + dt_fd, y) - xi2 + _xi_only(flow, t - dt_fd, y)) / dt_fd**2
    dyy = (_xi_only(flow, t, y + dy_fd) - xi2 + _xi_only(flow, t, y - dy_fd)) / dy_fd**2
    return float(np.max(np.abs(dtt - dyy)))
