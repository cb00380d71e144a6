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
quadrature at the data's own s-points: y(s) = integral_0^s dsigma/tau and
Phi(s) = integral_0^s v/tau dsigma.  Smooth and rough data share one
monotone knot table and one evaluator; smooth data use fourth-order
quadrature on their grid and cubic Hermite interpolation (certified
monotone interval by interval), rough data exact cell sums, linear
interpolation and cell lookups for the transported packets.  Rough data
are run cells from the start: a CellField of any cell widths, whose
knots sit only where the data jump (a rough Profile is compressed once to
its runs of equal samples).  An oscillated tiling with a few runs per
oscillation cell is built, evolved and paired on its runs, never on its
samples, and `evolve_cells` returns a CellField of the same kind, so an
evolved field is initial data again.

Inversion.  Every state evaluation needs the y with xi(t, y) = s.  One
vectorized, safeguarded Newton solver (`xi_time_inverse`) serves all of
them: the initial-curve inverse (t = 0), solves and string
reconstruction.  Times and positions are arrays that broadcast together,
so a whole set of slices is one call.  Newton uses
the exact slope of the tables' own interpolants inside the Lipschitz
bracket, falls back to bisection, and converges in about five steps.  Each
step is one evaluation: each foot is located once and read for value and
slope together, and `evolve_states` reads its states off the feet of the
final residual evaluation.

The string X is d'Alembert's sum too: dy X = eta and dt X = -zeta in the
straightening coordinates, so X is read at the same feet from E+- =
integral_0^y (eta -+ zeta) dy, two more tables on the same knots.

Periodic data are global in time exactly: with t = m Y_p + r, the solution
satisfies U(t, s) = U(r, s - m Phi_p) (the shift taken modulo S_p), so
`evolve_states`, `evolve_cells` and `reconstruct_string` evaluate |t| = 1e9
as accurately as |t| < Y_p / 2.
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


def admissibility(source: Profile | CellField,
                  delta_cap: float = 1.0 - 1e-12) -> AdmissibilityWindow:
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
    delta = min(delta_low, 1.0 / hi, delta_cap)
    return AdmissibilityWindow(alpha, delta, float(wm[i]), float(wp[j]))


def _hermite_weights(u):
    """Cubic Hermite weights at u in [0, 1] of (f0, h m0, f1, h m1) in the value."""
    w = 1.0 - u
    return (1.0 + 2.0 * u) * w * w, u * w * w, u * u * (3.0 - 2.0 * u), u * u * (u - 1.0)


def _hermite_slope_weights(u):
    """Cubic Hermite weights at u in [0, 1] of (f0 - f1, h m0, h m1) in h d/dy."""
    return 6.0 * u * (u - 1.0), (1.0 - u) * (1.0 - 3.0 * u), u * (3.0 * u - 2.0)


@dataclass
class CharacteristicFlow:
    """Immutable evaluation machinery for one set of initial data.

    The initial curve is one monotone table: knots `y_edges` = y(s_i), values
    `xi_nodes` = s_i and `phi_nodes` = Phi(s_i), slopes `xi_slopes` = tau and
    `phi_slopes` = v, one per knot for smooth data (cubic Hermite) and one
    per cell for rough data ("pc", linear).  Rough data are a CellField (a
    rough Profile is compressed to one cell per run of equal samples), so
    rough knots sit only at the data's jumps and `pk_values` holds one row
    per cell (per sample for smooth data).  `profile` is the Profile the
    flow was built from (None for a CellField); the evaluators read only `d`,
    the period and, for the smooth packet interpolation, its grid.  All
    methods are pure and safe for concurrent callers.  `alpha`/`delta`
    record the admissible window used; the slopes are certified inside
    [delta - tol, 1/delta + tol].
    """

    profile: Profile | None
    d: int
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

    @property
    def boundary(self) -> str:
        return "constant" if self.s_period is None else "periodic"

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

    def _tables(self, cell, value=True, slope=False, tables=None):
        """Tables on the knots at a `_cell` lookup, in one pass: by default
        (xi0, Phi), else the (values, slopes, period) triples in `tables`.

        Returns the values, their y-slopes with value=False and slope=True,
        or both (xi0, Phi, dxi0, dPhi).  The cell width, the local coordinate
        and the interpolation weights are computed once, and each knot array
        is gathered once for the value and the slope.  Smooth tables are
        cubic Hermite between the knots, rough ones linear on each cell.
        Periodic tables wind by whole y-periods, each adding the table's
        period; the others continue linearly with their end slopes.  The
        slope is that of the interpolant, the end slope beyond the ends.
        """
        y, wind, k = cell
        knots = self.y_edges
        tables = tables or ((self.xi_nodes, self.xi_slopes, self.s_period),
                            (self.phi_nodes, self.phi_slopes, self.phi_period))
        vals, ders = [], []
        if self.mode == "pc":
            dy = y - knots[k]
            for values, slopes, _ in tables:
                m = slopes[k]
                if value:
                    vals.append(values[k] + dy * m)
                if slope:
                    ders.append(m)
        else:
            h = knots[k + 1] - knots[k]
            u = (y - knots[k]) / h
            bv = _hermite_weights(u) if value else None
            bd = _hermite_slope_weights(np.clip(u, 0.0, 1.0)) if slope else None
            for values, slopes, _ in tables:
                f0, f1, m0, m1 = values[k], values[k + 1], slopes[k] * h, slopes[k + 1] * h
                if value:
                    vals.append(bv[0] * f0 + bv[1] * m0 + bv[2] * f1 + bv[3] * m1)
                if slope:
                    ders.append((bd[0] * (f0 - f1) + bd[1] * m0 + bd[2] * m1) / h)
        if value:
            lo, hi = knots[0], knots[-1]
            for i, (values, slopes, period) in enumerate(tables):
                if self.y_period is not None:
                    vals[i] = vals[i] + wind * period
                else:
                    val = np.where(y < lo, values[0] + slopes[0] * (y - lo), vals[i])
                    vals[i] = np.where(y > hi, values[-1] + slopes[-1] * (y - hi), val)
        return (*vals, *ders)

    def xi0(self, y, deriv=False):
        """Initial curve xi(0, y), defined for every real y (its slope with deriv)."""
        return self._tables(self._cell(y), not deriv, deriv)[0]

    def phi0(self, y, deriv=False):
        """Antiderivative of v(0, xi0(.)), normalized to vanish at y = 0."""
        return self._tables(self._cell(y), not deriv, deriv)[1]

    def xi0_inverse(self, s):
        """Monotone inversion of the initial curve: xi_time_inverse at t = 0."""
        return xi_time_inverse(self, 0.0, s)

    # -- transported packets ----------------------------------------------

    def invariants_at(self, y):
        """(v+tau, v-tau, eta-zeta, eta+zeta) of the initial data at xi0(y)."""
        cell, xi = _foot(self, y)
        (ap, cp), (am, cm) = self._carried(cell, xi, 1), self._carried(cell, xi, -1)
        return ap, am, cp, cm

    def _carried(self, cell, xi, sign):
        """The invariants a foot carries: (v + tau, eta - zeta) for the + foot
        (sign 1), (v - tau, eta + zeta) for the - foot (sign -1).

        Rough flows read them off the knot interval of the foot's `_cell`;
        smooth flows interpolate only those 1 + d packet columns at s = xi,
        the foot's xi0.  Each reads only its own argument (`_foot` gives both).
        """
        d = self.d
        if self.mode == "pc":
            p = self.pk_values[cell[2]]
            return (p[..., 0], p[..., 2:2 + d]) if sign > 0 else (p[..., 1], p[..., 2 + d:])
        cols = np.r_[0, 2:2 + d] if sign > 0 else np.r_[1, 2 + d:2 + 2 * d]
        p = cubic_interp(self.profile.s0, self.profile.ds, self.pk_values[:, cols], xi,
                         self.profile.boundary, slopes=self.pk_slopes[:, cols])
        return p[..., 0], p[..., 1:]


def build_flow(source: Profile | CellField, alpha: float | None = None,
               delta: float | None = None, slope_tol: float = 1e-9) -> CharacteristicFlow:
    """Construct the straightening map for admissible initial data.

    The knots y(s) = integral_0^s dsigma/tau and Phi(s) = integral_0^s
    v/tau dsigma sit at the data's own s-points.  Rough data are cells
    (a CellField, or a rough Profile compressed to its runs of equal
    samples by `Profile.runs`), of any widths: y and Phi are the exact
    cumulative sums of width/tau and v width/tau at the breaks, and one
    linear step inside the cell holding s = 0 (wound by the period when
    the breaks do not span 0) normalizes xi0(0) = phi0(0) = 0.  Smooth
    profiles use the fourth-order `cumulative_integral` on their grid, whose
    periodic tables close at s0 + S_p with full-period trapezoid sums Y_p
    and Phi_p, and one Hermite interpolation at s = 0.
    Raises InadmissibleDataError through `admissibility`, and DomainError
    for a one-sample smooth constant-boundary profile (no knot interval), an
    aperiodic window without s = 0, a
    slope outside [delta - tol, 1/delta + tol] (unreachable after
    admissibility) or a smooth interval that fails the Fritsch-Carlson
    monotonicity test a, b > 0, a^2 + b^2 <= 9.
    """
    if alpha is None or delta is None:
        win = admissibility(source)
        alpha, delta = win.alpha, win.delta
    profile = source if isinstance(source, Profile) else None
    rough = profile is None or profile.rough
    if rough:
        cells = source if profile is None else profile.runs()
        U, s, s_period = cells.states, cells.breaks, cells.period
        tau, v = U.tau, U.v
        dy = cells.widths() / tau
        y = np.concatenate([[0.0], np.cumsum(dy)])
        phi = np.concatenate([[0.0], np.cumsum(v * dy)])
        # s = 0 wound by whole periods into the breaks' window, and its cell
        wind = 0.0 if s_period is None else math.floor((0.0 - s[0]) / s_period)
        zero = 0.0 if s_period is None else 0.0 - wind * s_period
        if s_period is None and not s[0] <= 0.0 <= s[-1]:
            raise DomainError("the cell window must contain s = 0 (normalization xi(0,0) = 0)")
        j = min(max(int(np.searchsorted(s, zero, side="right")) - 1, 0), len(tau) - 1)

        def at_zero(table, w):  # the table at s = 0; its s-slope is w / tau
            return table[j] + (zero - s[j]) / tau[j] * w[j] + wind * table[-1]
    else:
        n, ds = profile.n, profile.ds
        periodic = profile.boundary == "periodic"
        if n < 2 and not periodic:
            raise DomainError(f"a smooth constant-boundary table needs n >= 2 samples; "
                              f"got n = {n} at s0 = {profile.s0:.6g}")
        U, tau, v = profile.state(), profile.tau.copy(), profile.v.copy()
        y = cumulative_integral(1.0 / tau, ds, profile.boundary)
        phi = cumulative_integral(v / tau, ds, profile.boundary)
        if periodic:  # the Euler-Maclaurin end correction vanishes over a full period
            y = np.append(y, ds * np.sum(1.0 / tau))
            phi = np.append(phi, ds * np.sum(v / tau))
            tau, v = np.append(tau, tau[0]), np.append(v, v[0])
        s = profile.s0 + ds * np.arange(len(y))
        s_period = n * ds if periodic else None
        if not s[0] <= 0.0 <= s[-1]:
            raise DomainError("the grid window must contain s = 0 (normalization xi(0,0) = 0)")
        j = min(int((0.0 - profile.s0) / ds), len(s) - 2)

        b = _hermite_weights((0.0 - s[j]) / ds)

        def at_zero(table, w):  # the table at s = 0; its s-slope is w / tau
            return (b[0] * table[j] + b[1] * (w[j] / tau[j] * ds) + b[2] * table[j + 1]
                    + b[3] * (w[j + 1] / tau[j + 1] * ds))

    pk = np.column_stack([U.v + U.tau, U.v - U.tau, U.eta - U.zeta, U.eta + U.zeta])
    periodic = s_period is not None
    flow = CharacteristicFlow(
        profile, U.eta.shape[1], alpha, delta, "pc" if rough else "smooth",
        y_edges=y - at_zero(y, np.ones_like(tau)), xi_nodes=s,
        xi_slopes=tau, phi_nodes=phi - at_zero(phi, v), phi_slopes=v,
        y_period=float(y[-1]) if periodic else None,
        s_period=s_period,
        phi_period=float(phi[-1]) if periodic else None,
        pk_values=pk,
        pk_slopes=None if rough else centered_slopes(pk, profile.ds, profile.boundary),
    )
    if np.min(tau) < delta - slope_tol or np.max(tau) > 1.0 / delta + slope_tol:
        raise DomainError("initial-curve slope escaped [delta, 1/delta]")
    if not rough:
        # Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980): a Hermite interval is
        # monotone if its end slopes over the secant have a, b > 0, a^2 + b^2 <= 9
        secant = profile.ds / np.diff(y)
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
    (cp, p), (cm, m) = _feet(flow, t, np.asarray(y, dtype=float))
    ap, am = flow._carried(cp, p[0], 1)[0], flow._carried(cm, m[0], -1)[0]
    return _dalembert(p, m), 0.5 * (ap + am), 0.5 * (ap - am)


def _xi_only(flow, t, y, deriv=False):
    """xi(t, y) by d'Alembert; with deriv, dy xi from the tables' own slopes.

    Each foot y +- t is located once (`_cell`) and both tables read off it.
    """
    p, m = (flow._tables(flow._cell(f), not deriv, deriv) for f in (y + t, y - t))
    return _dalembert(p, m)


def _dalembert(p, m):
    """xi(t, y) from the (xi0, Phi) reads at the feet y + t and y - t, or dy xi from their slopes."""
    return 0.5 * (p[0] + m[0]) + 0.5 * (p[1] - m[1])


def _feet(flow, t, y, slope=False):
    """The feet y + t and y - t, each located once: per foot its `_cell` lookup
    and the tables read there, (xi0, Phi) or with slope (xi0, Phi, dxi0, dPhi)."""
    return [(c, flow._tables(c, slope=slope)) for c in (flow._cell(y + t), flow._cell(y - t))]


def _foot(flow, y):
    """What `CharacteristicFlow._carried` reads at a foot y: its `_cell`
    lookup and, for smooth flows, xi0 there (None for rough ones)."""
    cell = flow._cell(y)
    return cell, None if flow.mode == "pc" else flow._tables(cell)[0]


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
    for rough ones.  Each step is one evaluation: each foot y +- t is
    located once and both tables give their value and y-slope off one
    gather of the knot data (`_feet`).  Every evaluation narrows the
    bracket, and a step that leaves it or fails to halve the previous step
    is replaced by bisection, so the iteration cannot fail.  A point stops
    once its step is at most y_tol (1 + |y|).  Periodic flows solve at the
    reduced time of `_reduce_time` and add the whole y-periods back, so
    |t| = 1e9 inverts as accurately as |t| < Y_p / 2.  A non-finite t or s
    raises ValueError naming it.
    """
    return _inverse(flow, t, s, y_tol)[0]


def _inverse(flow, t, s, y_tol=1e-12):
    """`xi_time_inverse`, and the feet of its final residual evaluation.

    The feet are those of the solution y at the reduced time, shaped like
    it, each as its (cell, xi0) pair of `_foot`, so `evolve_states` and
    `reconstruct_string` read their states off them.
    """
    t, s = _finite("t", t), _finite("s", s)
    t, shift, lag = _reduce_time(flow, t)
    s = s - shift
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
        (_, p), (_, m) = _feet(flow, tl, yl, slope=True)
        f = _dalembert(p, m) - s[live]
        lo_l = np.where(f < 0.0, yl, lo[live])
        hi_l = np.where(f < 0.0, hi[live], yl)
        newton = f / _dalembert(p[2:], m[2:])
        y_new = yl - newton
        bisect = (y_new < lo_l) | (y_new > hi_l) | (np.abs(newton) > 0.5 * np.abs(step[live]))
        y_new = np.where(bisect, 0.5 * (lo_l + hi_l), y_new)
        lo[live], hi[live], y[live], step[live] = lo_l, hi_l, y_new, y_new - yl
        live = live[np.abs(y_new - yl) > y_tol * (1.0 + np.abs(y_new))]
    t, s, y = (a.reshape(shape) for a in (t, s, y))
    feet = _feet(flow, t, y)
    if y.size:
        resid = float(np.max(np.abs(_dalembert(feet[0][1], feet[1][1]) - s)))
        scale = 1.0 + float(np.max(np.abs(s)))
        if resid > 1e-8 * scale:
            # unreachable for a bi-Lipschitz curve; indicates a broken bracket
            raise RuntimeError(f"internal error: inversion residual {resid:.3e}")
    return y - lag, [(c, None if flow.mode == "pc" else tables[0]) for c, tables in feet]


def _reduce_time(flow, t):
    """(r, shift, lag) with xi(t, y) = xi(r, y + lag) + shift, so U(t, s) = U(r, s - shift).

    For periodic flows t = m Y_p + r with m = round(t / Y_p), so |r| <= Y_p / 2,
    and m Phi_p = shift + j S_p with the shift in [-S_p/2, S_p/2]; the whole
    s-periods j S_p dropped from the shift are lag = j Y_p in y.  Aperiodic
    flows and m = 0 give (t, 0, 0).
    """
    if flow.y_period is None:
        return t, 0.0, 0.0
    m = np.round(t / flow.y_period)
    j = np.round(m * flow.phi_period / flow.s_period)
    return t - m * flow.y_period, m * flow.phi_period - j * flow.s_period, j * flow.y_period


def _state_from_feet(flow, y, t):
    """U at (t, xi(t, y)): each invariant pair read off at its foot y +- t,
    one foot at a time."""
    return _state(flow._carried(*_foot(flow, y + t), 1), flow._carried(*_foot(flow, y - t), -1))


def _state(plus, minus):
    """U from the invariants the + foot carries, (v + tau, eta - zeta), and
    those the - foot carries, (v - tau, eta + zeta)."""
    (ap, ep), (am, em) = plus, minus
    return StateU(0.5 * (ap - am), 0.5 * (ap + am), 0.5 * (ep + em), 0.5 * (em - ep))


def evolve_states(flow: CharacteristicFlow, t, s_points) -> StateU:
    """Exact solution state at times t and positions s_points (broadcast together).

    Periodic flows evaluate far times exactly through one period shift
    (`_reduce_time`): xi0(y + Y_p) = xi0(y) + S_p and Phi(y + Y_p) =
    Phi(y) + Phi_p give xi(m Y_p + r, y) = xi(r, y) + m Phi_p, so
    U(t, s) = U(r, s - m Phi_p) with m = round(t / Y_p), the shift taken
    modulo S_p.  The feet y +- r then stay within a period of the table;
    evaluated directly, the d'Alembert sum at |t| = 1e9 would lose about
    nine digits to cancellation.  For m = 0 nothing changes.  The states
    are read off the feet of the inversion's final residual evaluation, so
    no foot is located or evaluated twice.
    """
    t, s = _finite("t", t), _finite("s_points", s_points)
    r, shift, _ = _reduce_time(flow, t)
    plus, minus = _inverse(flow, r, s - shift)[1]
    return _state(flow._carried(*plus, 1), flow._carried(*minus, -1))


def _source_profile(flow):
    """The Profile a flow was built from; its grid and sampling shape the output."""
    if flow.profile is None:
        raise ValueError("this flow was built from a CellField, which has no sample grid; "
                         "use evolve_cells or evolve_states")
    return flow.profile


def solve_augmented(source: Profile | CharacteristicFlow, t: float,
                    s_out: np.ndarray | None = None) -> Profile:
    """Evaluate the global solution at time t on a uniform output grid.

    `source` is either an initial profile (the flow is built on the fly) or a
    prebuilt CharacteristicFlow.  The output profile keeps the input grid,
    boundary mode and sampling semantics unless `s_out` overrides positions.
    """
    flow = source if isinstance(source, CharacteristicFlow) else build_flow(source)
    prof = _source_profile(flow)
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
    It is taken at the reduced time of `_reduce_time`, where the y are
    small: whole periods change neither slope nor state.
    """
    r, shift, _ = _reduce_time(flow, _finite("t", t))
    s = np.asarray(s_points, dtype=float) - shift
    y = xi_time_inverse(flow, r, s)
    U = evolve_states(flow, r, s)
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
    `evolve_states` does, so far times keep full accuracy.  The field keeps
    the flow's period, so it builds the flow of its own evolution.
    """
    if flow.mode != "pc":
        raise DomainError("evolve_cells requires a rough (piecewise-constant) flow")
    b = flow.y_edges
    t, shift, _ = _reduce_time(flow, t)
    # breaks of the two families that agree to the rounding of the knots
    # (within 64 ulps of their magnitude) are one break: a sliver between
    # them would read its two feet from different cells
    tol = 64.0 * np.spacing(np.max(np.abs(b)) + np.abs(t))
    if flow.y_period is not None:
        pts = np.sort(flow._wind(np.concatenate([b[:-1] - t, b[:-1] + t]))[0])
        pts = pts[np.diff(pts, prepend=pts[-1] - flow.y_period) > tol]
        breaks_y = np.append(pts, pts[0] + flow.y_period)
    else:
        pts = np.sort(np.concatenate([b - t, b + t]))
        breaks_y = pts[np.diff(pts, prepend=-np.inf) > tol]
    mid = 0.5 * (breaks_y[:-1] + breaks_y[1:])
    # xi(t, .) increases strictly, but two breaks_y a rounding apart can map
    # one ulp out of order; such a pair is one break
    breaks = np.maximum.accumulate(_xi_only(flow, t, breaks_y) + shift)
    return CellField(breaks, _state_from_feet(flow, mid, t), flow.s_period)


def reconstruct_string(flow: CharacteristicFlow, times, s_points) -> list[StringGraph]:
    """String graphs X(t, .) on a uniform s grid, by d'Alembert.

    X(t, xi(t, y)) = [E+(y + t) + E-(y - t)]/2 with E+- = integral_0^y
    (eta -+ zeta) dy, tables on the flow's knots built as y and Phi are
    (exact cell sums for rough data, `cumulative_integral` for smooth data),
    so X(0, 0) = 0.  X, ds X = eta/tau and dt X = -zeta - v eta/tau come off
    the feet of one inversion.  Periodic flows add back the whole periods
    `_reduce_time` drops: with t = m Y_p + r and lag = j Y_p, X(t, s) =
    X(r, s - shift) + m (E+_p - E-_p)/2 - j (E+_p + E-_p)/2.  Degenerate
    states (tau < delta/2) raise DomainError.
    """
    s_pts = np.asarray(s_points, dtype=float)
    ds = float(s_pts[1] - s_pts[0])
    if float(np.min(flow.xi_slopes)) < 0.5 * flow.delta:
        raise DomainError("degenerate state: tau below delta/2")
    times = list(times)
    if not times:
        return []
    tq, sq = np.broadcast_arrays(_finite("times", times)[:, None], s_pts)
    plus, minus = _inverse(flow, tq, sq)[1]
    U = _state(flow._carried(*plus, 1), flow._carried(*minus, -1))
    if np.any(U.tau < 0.5 * flow.delta):
        raise DomainError("degenerate state: tau below delta/2")

    # columns E+ (d), E- (d) at the knots, zero at the first; slopes eta -+ zeta
    w = flow.pk_values[:, 2:]
    if flow.mode == "pc":
        E = np.cumsum(np.diff(flow.y_edges)[:, None] * w, axis=0)
        E = np.concatenate([np.zeros((1, 2 * flow.d)), E])
    else:
        prof = flow.profile
        f = w / prof.tau[:, None]
        E = cumulative_integral(f, prof.ds, prof.boundary)
        if flow.y_period is not None:  # closed by the full-period sum, as y and Phi
            E, w = np.vstack([E, prof.ds * np.sum(f, axis=0)]), np.vstack([w, w[:1]])
    period = E[-1].copy()
    tables = [(E[:, i], w[:, i], period[i]) for i in range(2 * flow.d)]
    E -= np.array(flow._tables(flow._cell(0.0), tables=tables))
    X = 0.5 * (np.stack(flow._tables(plus[0], tables=tables[:flow.d]), -1)
               + np.stack(flow._tables(minus[0], tables=tables[flow.d:]), -1))
    if flow.y_period is not None:
        r, _, lag = _reduce_time(flow, tq)
        m, j = np.round((tq - r) / flow.y_period), np.round(lag / flow.y_period)
        ep, em = period[:flow.d], period[flow.d:]
        X += 0.5 * (m[..., None] * (ep - em) - j[..., None] * (ep + em))

    dxds = U.eta / U.tau[..., None]
    dxdt = -U.zeta - U.v[..., None] * dxds
    return [StringGraph(t, float(s_pts[0]), ds, X[k], dxds[k], dxdt[k], flow.boundary)
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
    """Boosted solution slices: U~(t, s) = U(t, s - u t) + (0, u, 0, 0).

    The boosted initial data are recertified by `admissibility` (failure
    raises); evaluation uses the original flow at the shifted positions, so
    no resampling error enters.
    """
    prof = _source_profile(flow)
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
