"""Linear wave strings: the speed-kappa family solved by d'Alembert.

For 0 < kappa < 1 the wave equation  dtt X = kappa^2 dss X  propagates the
branch quantities (dt X +- kappa ds X) rigidly:

    (dt X +- kappa ds X)(t, s) = (dt X +- kappa ds X)(0, s +- kappa t),

so the constraints |dt X +- kappa ds X|^2 = 1 - kappa^2 (relativistic) and
<= 1 - kappa^2 (subrelativistic) are preserved for all time.  Solutions of
the wave equation with relativistic initial data are exact string graphs.

The module also provides the oscillatory family X^(m): unit-speed initial
profiles whose transverse ripples have amplitude ~ 1/m, so they converge
uniformly (at rate 1/m) to a smooth limit that is subrelativistic but not
relativistic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import DomainError, SuperluminalError
from .profiles import KnotTable, Profile, cubic_interp, linear_interp, require_finite, uniform_grid

_TAIL_TOL = 1e-12


class StringGraph:
    """Sampled string graph X(t, .) with its derivative fields dXds, dXdt.

    Built with arrays, or by `dalembert_wave_solve` with the derivative
    fields deferred: its `_derive` gives both, on the first read of either
    one, and they are kept.  Assigning a field replaces it.  The fields are
    shaped (..., n, d): one row per time of a (t, s) lattice, whose t then
    holds the times; `n` and `d` read the trailing axes.
    """

    def __init__(self, t, s0: float, ds: float, X: np.ndarray, dXds: np.ndarray | None,
                 dXdt: np.ndarray | None, boundary: str = "periodic"):
        self.t, self.s0, self.ds, self.X, self.boundary = t, s0, ds, X, boundary
        self._derive = lambda: (dXds, dXdt)  # each shaped like X

    @functools.cached_property
    def _derived(self):
        return self._derive()

    dXds = functools.cached_property(lambda self: self._derived[0])
    dXdt = functools.cached_property(lambda self: self._derived[1])

    @property
    def n(self) -> int:
        return self.X.shape[-2]

    @property
    def d(self) -> int:
        return self.X.shape[-1]

    @property
    def s_samples(self) -> np.ndarray:
        return self.s0 + self.ds * np.arange(self.n)

    def area_coefficients(self):
        """Pointwise (A, B, C, D) of the graph-area variational system.

        A = sqrt((1+|ds X|^2)(1-|dt X|^2) + (dt X . ds X)^2), B = (1+|ds X|^2)/A,
        C = (dt X . ds X)/A, D = (1-|dt X|^2)/A.  Raises SuperluminalError when
        A^2 <= 0.
        """
        y2 = np.sum(self.dXds**2, axis=-1)
        w2 = np.sum(self.dXdt**2, axis=-1)
        yw = np.sum(self.dXds * self.dXdt, axis=-1)
        a2 = (1.0 + y2) * (1.0 - w2) + yw**2
        if np.any(a2 <= 0.0):
            raise SuperluminalError("superluminal graph: A^2 <= 0")
        A = np.sqrt(a2)
        return A, (1.0 + y2) / A, yw / A, (1.0 - w2) / A


@dataclass
class WaveInitialData:
    """Initial position/velocity profiles for the speed-kappa wave equation.

    x0, v0, dx0 are samples on the uniform grid; the optional callables give
    exact evaluation (and exact ds x0) where analytic formulas exist, which
    keeps constraint checks free of differencing error.
    """

    kappa: float
    s0: float
    ds: float
    x0: np.ndarray
    v0: np.ndarray
    dx0: np.ndarray
    boundary: str = "periodic"
    x0_fn: object = None
    v0_fn: object = None
    dx0_fn: object = None

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def d(self) -> int:
        return self.x0.shape[1]

    @property
    def s_samples(self) -> np.ndarray:
        return self.s0 + self.ds * np.arange(self.n)


def wave_initial_from_functions(kappa, x0_fn, v0_fn, dx0_fn, s0=-2.0 * np.pi,
                                n=4096, period=4.0 * np.pi, boundary="periodic"):
    """Sample analytic initial data; the callables must return (..., d) arrays."""
    ds = period / n
    s = s0 + ds * np.arange(n)
    return WaveInitialData(kappa, s0, ds, x0_fn(s), v0_fn(s), dx0_fn(s),
                           boundary, x0_fn, v0_fn, dx0_fn)


def _check_tails(init: WaveInitialData, q: np.ndarray) -> None:
    lo, hi = init.s0, init.s0 + (init.n - 1) * init.ds
    if np.all((q >= lo) & (q <= hi)):
        return
    edge = max(
        np.max(np.abs(init.dx0[0])), np.max(np.abs(init.dx0[-1])),
        np.max(np.abs(init.v0[0])), np.max(np.abs(init.v0[-1])),
    )
    if edge > _TAIL_TOL:
        raise DomainError(
            "evaluation outside the data support needs constant tails "
            f"(edge derivative magnitude {edge:.3e})"
        )


def _v0_antiderivative(init: WaveInitialData, q) -> np.ndarray:
    """Integral from s0 to q of the piecewise-linear v0, at arbitrary points q.

    It is the smooth `KnotTable` of its trapezoid nodes with v0 as the
    slopes, exactly: within a cell the integral is quadratic.  Periodic v0
    close the nodes with the full-period total, the column period; beyond
    the ends of constant-boundary v0 the integral continues linearly with
    the end values.
    """
    n, ds, v0 = init.n, init.ds, init.v0.T
    nodes = np.zeros_like(v0)
    np.cumsum(0.5 * ds * (v0[:, 1:] + v0[:, :-1]), axis=1, out=nodes[:, 1:])
    period = total = None
    if init.boundary == "periodic":
        period, total = n * ds, nodes[:, -1] + 0.5 * ds * (v0[:, -1] + v0[:, 0])
        nodes, v0 = np.column_stack([nodes, total]), np.column_stack([v0, v0[:, 0]])
    table = KnotTable("smooth", init.s0 + ds * np.arange(nodes.shape[1]), nodes, v0, None, period, total)
    return np.moveaxis(table._tables(table._cell(q), slice(None))[0], 0, -1)


def _eval_x0(init: WaveInitialData, q):
    if init.x0_fn is not None:
        return init.x0_fn(q)
    return cubic_interp(init.s0, init.ds, init.x0, q, init.boundary)


def _eval_dx0(init: WaveInitialData, q):
    if init.dx0_fn is not None:
        return init.dx0_fn(q)
    return cubic_interp(init.s0, init.ds, init.dx0, q, init.boundary)


def _eval_v0(init: WaveInitialData, q):
    if init.v0_fn is not None:
        return init.v0_fn(q)
    return linear_interp(init.s0, init.ds, init.v0, q, init.boundary)


def dalembert_wave_solve(init: WaveInitialData, t, s_out: np.ndarray | None = None) -> StringGraph:
    """Exact evaluation of the speed-kappa wave solution at times t.

    X(t, s) = [X0(s + kt) + X0(s - kt)]/2 + (1/2k) * integral of V0 over
    [s - kt, s + kt]; derivative fields follow by differentiating the same
    formula, so the returned graph is consistent to interpolation accuracy
    (exact when the initial data carry analytic callables).  t broadcasts
    against the output points: a float gives fields shaped (n, d), and
    t = times[:, None] the (t, s) lattice, shaped (len(times), n, d), at
    the cost of one call.  Each field is evaluated in one pass over both
    feet: the points s + kt and s - kt are concatenated once, and x0, the
    v0 antiderivative, dx0 and v0 are each called once on that array and
    split.  X is computed now; dXds and dXdt are evaluated on their first
    read, so a caller that reads only X never evaluates dx0 or v0.  They
    read `init` then: mutate it only after the derivative fields are read.
    """
    t_arr = require_finite("t", t)
    if t_arr.ndim:  # a float stays a float, the cheaper operand
        t = t_arr
    k = init.kappa
    if s_out is None:
        s_out = init.s_samples
        s0_out, ds_out = init.s0, init.ds
    else:
        s_out = np.asarray(s_out, dtype=float)
        s0_out, ds_out = uniform_grid(s_out, init.ds, "s_out")
    feet = np.concatenate([s_out + k * t, s_out - k * t])  # the + feet, then the - feet
    n = len(feet) // 2
    if init.boundary == "constant":
        _check_tails(init, feet)
    x = _eval_x0(init, feet)
    X = 0.5 * (x[:n] + x[n:])
    moving = bool(np.any(init.v0))
    if moving:
        Q = _v0_antiderivative(init, feet)
        X = X + (Q[:n] - Q[n:]) / (2.0 * k)

    def derive():
        dx, v = _eval_dx0(init, feet), _eval_v0(init, feet)
        dp, dm, vp, vm = dx[:n], dx[n:], v[:n], v[n:]
        dXds = 0.5 * (dp + dm)
        if moving:
            dXds = dXds + (vp - vm) / (2.0 * k)
        return dXds, 0.5 * k * (dp - dm) + 0.5 * (vp + vm)

    g = StringGraph(t, s0_out, ds_out, X, None, None, init.boundary)
    g._derive = derive
    return g


def branch_residuals(init: WaveInitialData):
    """|v0 +- kappa dx0|^2 - (1 - kappa^2) for both sign branches."""
    target = 1.0 - init.kappa**2
    out = []
    for eps in (1, -1):
        g = init.v0 + eps * init.kappa * init.dx0
        out.append(np.sum(g**2, axis=-1) - target)
    return out


def check_relativistic_init(init: WaveInitialData, tol: float = 1e-10) -> bool:
    """True when both branch constraints hold as equalities at every sample."""
    return all(np.max(np.abs(r)) <= tol for r in branch_residuals(init))


def check_subrelativistic_init(init: WaveInitialData, tol: float = 1e-10) -> bool:
    """True when both branch constraints hold as inequalities at every sample."""
    return all(np.max(r) <= tol for r in branch_residuals(init))


def oscillatory_family_init(mode: int, s0: float = -2.0 * np.pi, n: int = 4096,
                            period: float = 4.0 * np.pi) -> WaveInitialData:
    """Relativistic wave data with transverse ripples of amplitude ~ 1/mode.

    kappa = 2^{-1/2}; ds X(0, s) = (-sin s, cos s cos(m s), -cos s sin(m s))
    is a unit vector, dt X(0, .) = 0, so the branch constraints hold exactly.
    Derivative samples come from the analytic formula, not differencing.
    Requires mode >= 2 (the profile has 1/(mode - 1) amplitudes).
    """
    m = int(mode)
    if m != mode or m < 2:
        raise ValueError("mode must be an integer >= 2")

    def x0_fn(s):
        s = np.asarray(s, dtype=float)
        c1 = np.cos(s) - 1.0
        c2 = np.sin((m + 1) * s) / (2.0 * (m + 1)) + np.sin((m - 1) * s) / (2.0 * (m - 1))
        c3 = (np.cos((m + 1) * s) - 1.0) / (2.0 * (m + 1)) + (np.cos((m - 1) * s) - 1.0) / (2.0 * (m - 1))
        return np.stack([c1, c2, c3], axis=-1)

    def dx0_fn(s):
        s = np.asarray(s, dtype=float)
        return np.stack([-np.sin(s), np.cos(s) * np.cos(m * s), -np.cos(s) * np.sin(m * s)], axis=-1)

    def v0_fn(s):
        s = np.asarray(s, dtype=float)
        return np.zeros(s.shape + (3,))

    return wave_initial_from_functions(2.0 ** -0.5, x0_fn, v0_fn, dx0_fn, s0, n, period)


def oscillatory_limit_init(s0: float = -2.0 * np.pi, n: int = 4096,
                           period: float = 4.0 * np.pi) -> WaveInitialData:
    """Uniform limit of the oscillatory family: X0 = (cos s - 1, 0, 0), V0 = 0.

    Subrelativistic but not relativistic: |kappa ds X|^2 = sin^2(s)/2 < 1/2
    away from the turning points.
    """

    def x0_fn(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return np.stack([np.cos(s) - 1.0, z, z], axis=-1)

    def dx0_fn(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return np.stack([-np.sin(s), z, z], axis=-1)

    def v0_fn(s):
        s = np.asarray(s, dtype=float)
        return np.zeros(s.shape + (3,))

    return wave_initial_from_functions(2.0 ** -0.5, x0_fn, v0_fn, dx0_fn, s0, n, period)


def oscillatory_limit_solution(t, s) -> np.ndarray:
    """Closed form of the limit string: (cos s cos(t/sqrt(2)) - 1, 0, 0)."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    c = np.cos(s) * np.cos(2.0 ** -0.5 * t) - 1.0
    z = np.zeros_like(c)
    return np.stack([c, z, z], axis=-1)


def wave_to_augmented(init: WaveInitialData) -> Profile:
    """Embed wave data as an augmented-state profile with tau = kappa, v = 0.

    eta = kappa ds X, zeta = -dt X; relativistic wave data land exactly on the
    constraint manifold, subrelativistic data in its convex hull.
    """
    n, k = init.n, init.kappa
    tau = np.full(n, k)
    v = np.zeros(n)
    return Profile(init.s0, init.ds, tau, v, k * init.dx0, -init.v0, init.boundary)
