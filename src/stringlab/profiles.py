"""Sampled one-dimensional state fields and their snapshot format.

A Profile stores the augmented state (tau, v, eta, zeta) on a uniform
s-grid with one of two boundary modes:

    periodic : values repeat with period n*ds,
    constant : values extend flat beyond both ends.

Two sampling semantics coexist.  Smooth profiles place samples at the grid
nodes s0 + i*ds and are interpolated with a centered-slope cubic Hermite
(C^1, locally third order).  Rough profiles are piecewise constant on the
cells [s0 + i*ds, s0 + (i+1)*ds), the faithful reading of merely
measurable data.

A KnotTable is the one reader of monotone tables on arbitrary knots: the
characteristic flow's tables in y and the wave solver's v0 antiderivative
share its winding, Hermite weights and tails.

Snapshots are one CSV per time slice (columns s, tau, v, eta_1..d,
zeta_1..d, floats printed as format(x, ".17g") prints them, LF endings) plus
a JSON sidecar holding the window constants, grid, boundary mode and
tolerances.  The writer formats 256 rows at a time with numpy (`_SNAP_ROWS`).
Its gather index takes 200 bytes per value, so a block's temporaries stay
under 1 MB at any n.  Larger temporaries are handed back to the operating
system when freed and faulted in again, a page at a time, on every file.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import StateHQYZ, StateU, from_rescaled

BOUNDARY_MODES = ("periodic", "constant")


def _wrap(idx, n, boundary):
    if boundary == "periodic":
        return np.mod(idx, n)
    return np.clip(idx, 0, n - 1)


def centered_slopes(values: np.ndarray, ds: float, boundary: str) -> np.ndarray:
    """Second-order slope estimates (f[i+1] - f[i-1]) / (2 ds) along axis 0."""
    n = values.shape[0]
    up = _wrap(np.arange(n) + 1, n, boundary)
    dn = _wrap(np.arange(n) - 1, n, boundary)
    m = (values[up] - values[dn]) / (2.0 * ds)
    if boundary == "constant":
        # one-sided second-order at the ends
        if n >= 3:
            m[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * ds)
            m[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * ds)
        elif n == 2:
            m[0] = m[-1] = (values[1] - values[0]) / ds
    return m


def _locate(x0, dx, values, q, boundary):
    """Sample interval [i, ip] holding each q (wrapped, or clamped to the window
    for constant boundaries) and the local coordinate t, shaped like values[i]."""
    n = values.shape[0]
    u = (np.asarray(q, dtype=float) - x0) / dx
    if boundary == "periodic":
        u = np.mod(u, n)
        i = np.minimum(u.astype(int), n - 1)
        ip = np.mod(i + 1, n)
    else:
        u = np.clip(u, 0.0, n - 1.0)
        i = np.minimum(u.astype(int), max(n - 2, 0))
        ip = np.minimum(i + 1, n - 1)  # one sample reads as a constant
    t = u - i
    return i, ip, t.reshape(t.shape + (1,) * (values.ndim - 1))


def _hermite_weights(u):
    """Cubic Hermite weights at u in [0, 1] of (f0, h m0, f1, h m1) in the value."""
    w = 1.0 - u
    return (1.0 + 2.0 * u) * w * w, u * w * w, u * u * (3.0 - 2.0 * u), u * u * (u - 1.0)


def _hermite_slope_weights(u):
    """Cubic Hermite weights at u in [0, 1] of (f0 - f1, h m0, h m1) in h d/dy,
    so of (-secant, m0, m1) in d/dy."""
    return 6.0 * u * (u - 1.0), (1.0 - u) * (1.0 - 3.0 * u), u * (3.0 * u - 2.0)


def cubic_interp(x0: float, dx: float, values: np.ndarray, q, boundary: str = "periodic"):
    """Cubic Hermite interpolation of uniform samples at query points q.

    The slopes are centered differences, giving a C^1 interpolant with
    O(dx^3) error.  `values` may have trailing axes; the query may be any
    shape.
    """
    values = np.asarray(values, dtype=float)
    slopes = centered_slopes(values, dx, boundary)
    i, ip, tt = _locate(x0, dx, values, q, boundary)
    b = _hermite_weights(tt)
    return b[0] * values[i] + b[1] * (slopes[i] * dx) + b[2] * values[ip] + b[3] * (slopes[ip] * dx)


def linear_interp(x0: float, dx: float, values: np.ndarray, q, boundary: str = "periodic"):
    """Piecewise-linear interpolation of uniform samples (O(dx^2))."""
    values = np.asarray(values, dtype=float)
    i, ip, tt = _locate(x0, dx, values, q, boundary)
    return (1.0 - tt) * values[i] + tt * values[ip]


def cumulative_integral(f: np.ndarray, dx: float, boundary: str = "constant"):
    """Fourth-order antiderivative of f on its own grid, and its increments.

    Returns the samples at the nodes, zero at the first, and the increment
    over each interval, both along axis 0.  Composite trapezoid with the
    Euler-Maclaurin endpoint correction -dx^2/12 (f'_j - f'_0), slopes from
    centered differences.  Periodic f adds the closing node x0 + n dx, whose
    sample is the full-period trapezoid sum (the correction vanishes over a
    period), and the closing interval's increment.
    """
    f = np.asarray(f, dtype=float)
    m = centered_slopes(f, dx, boundary)
    out = np.zeros_like(f)
    trap = 0.5 * dx * (f[1:] + f[:-1])
    np.cumsum(trap, axis=0, out=out[1:])
    out -= dx**2 / 12.0 * (m - m[0])
    inc = trap - dx**2 / 12.0 * (m[1:] - m[:-1])
    if boundary == "periodic":
        out = np.append(out, dx * np.sum(f, axis=0, keepdims=True), axis=0)
        inc = np.append(inc, 0.5 * dx * (f[-1:] + f[:1]) - dx**2 / 12.0 * (m[:1] - m[-1:]), axis=0)
    return out, inc


def uniform_grid(s, ds: float | None = None, name: str = "s") -> tuple[float, float]:
    """(s0, ds) of the ascending uniform grid s; a single point takes the given ds.

    Raises ValueError for an empty grid, a single point without ds, a
    spacing that is not positive and finite, or a point off s0 + i ds by more than
    1e-9 of the grid's scale max(|s0|, |s0 + (n - 1) ds|, ds), naming the
    first one.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or not s.size:
        raise ValueError(f"{name} must be a non-empty 1-D grid; got shape {s.shape}")
    s0 = float(s[0])
    if s.size > 1:
        ds = float(s[1]) - s0
    if ds is None or not 0.0 < ds < np.inf:
        raise ValueError(f"{name} needs a positive finite spacing; got ds = {ds}")
    err = np.abs(s - (s0 + ds * np.arange(s.size)))
    tol = 1e-9 * max(abs(s0), abs(s0 + (s.size - 1) * ds), ds)
    if not err.max() <= tol:
        i = int(np.argmax(~(err <= tol)))
        raise ValueError(f"{name}[{i}] = {float(s[i])!r} is off the uniform grid {s0!r} + i * {ds!r}")
    return s0, ds


def require_finite(name: str, a) -> np.ndarray:
    """a as a float array; ValueError naming its first non-finite entry."""
    if type(a) is float and math.isfinite(a):  # the common scalar, without an array check
        return np.asarray(a)
    a = np.asarray(a, dtype=float)
    ok = np.isfinite(a)
    if not ok.all():
        i = tuple(int(k) for k in np.argwhere(~ok)[0])
        at = f"[{', '.join(map(str, i))}]" if i else ""
        raise ValueError(f"{name} must be finite; {name}{at} = {a[i]}")
    return a


def _json_type(name: str, *kinds):
    """A cast of a JSON value (config or sidecar) that passes a value of one
    of the Python types `kinds` unchanged and raises TypeError naming the
    JSON type otherwise.  A bool passes only where bool is one of the kinds:
    JSON's true and false are no numbers, although Python's bool is an int."""
    def cast(value):
        if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
            raise TypeError(f"expected {name}")
        return value
    return cast


_bool = _json_type("true or false", bool)
_str = _json_type("a string", str)
_number = _json_type("a number", int, float)
_array = _json_type("an array", list)


def _float(value) -> float:
    return float(_number(value))


def _integer(lowest: int):
    """The cast of an integral number >= lowest, as an int."""
    def cast(value) -> int:
        if _number(value) % 1 or value < lowest:  # a non-finite value leaves a NaN remainder
            raise ValueError(f"expected an integer >= {lowest}")
        return int(value)
    return cast


_count = _integer(1)  # a size
_mode = _integer(2)  # an oscillation mode of `waves.oscillatory_family_init`


def _list(item):
    """The cast of a JSON array whose entries each pass the cast `item`."""
    return lambda value: [item(x) for x in _array(value)]


@dataclass
class KnotTable:
    """Monotone knot table: columns of values and slopes over ascending knots.

    At the knots `y_edges` the rows of `values` hold the columns and the
    rows of `slopes` their y-slopes.  "smooth" tables have one slope per
    knot and are cubic Hermite between the knots, with `secants`, each
    interval's mean slope, for the slope's secant part (None if no slope is
    read); "pc" tables have one slope per interval and are linear on it.  A
    periodic table records its y-period in `y_period` and each column's
    period in `periods`: the knots span one period, and each whole period
    a point winds adds its column's period.  Aperiodic tables continue
    linearly beyond the ends with their end slopes.
    """

    mode: str  # "smooth" or "pc"
    y_edges: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    secants: np.ndarray | None
    y_period: float | None
    periods: np.ndarray | None

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
        return y, wind, np.searchsorted(self.y_edges[1:-1], y, side="right")

    def _tables(self, cell, cols=slice(0, 2), value=True, slope=False):
        """The columns `cols` (by default the first two) at a `_cell` lookup.

        Returns (values, slopes), each shaped (columns, *y.shape), the one
        not asked for None.  The cell width, the local coordinate and the
        weights are computed once for all columns, and each knot array is
        gathered once for the value and the slope.  The slope is that of the
        interpolant, the end slope beyond the ends of an aperiodic table.
        """
        y, wind, k = cell
        knots, V, M = self.y_edges, self.values[cols], self.slopes[cols]
        val = der = None
        if self.mode == "pc":
            der = np.take(M, k, axis=1)
            if value:
                val = np.take(V, k, axis=1) + (y - knots[k]) * der
        else:
            h = knots[k + 1] - knots[k]
            u = (y - knots[k]) / h
            m0, m1 = np.take(M, k, axis=1), np.take(M, k + 1, axis=1)
            if value:
                b = _hermite_weights(u)
                val = (b[0] * np.take(V, k, axis=1) + b[1] * (m0 * h)
                       + b[2] * np.take(V, k + 1, axis=1) + b[3] * (m1 * h))
            if slope:
                b = _hermite_slope_weights(np.clip(u, 0.0, 1.0))
                der = b[1] * m0 + b[2] * m1 - b[0] * np.take(self.secants[cols], k, axis=1)
        if value:
            col = (slice(None),) + (None,) * np.ndim(y)  # a per-column constant
            if self.y_period is not None:
                val = val + wind * self.periods[cols][col]
            else:
                lo, hi = knots[0], knots[-1]
                val = np.where(y < lo, V[:, 0][col] + M[:, 0][col] * (y - lo), val)
                val = np.where(y > hi, V[:, -1][col] + M[:, -1][col] * (y - hi), val)
        return val, der


@dataclass
class CellField:
    """Piecewise-constant states between arbitrary ascending breakpoints.

    The one representation of rough data, initial or evolved: `states` holds
    one state per cell [breaks[k], breaks[k+1]).  With a `period` the field
    repeats with that period (the breaks span one period); without one it
    extends with its end states beyond the breaks (constant boundary).
    """

    breaks: np.ndarray
    states: StateU
    period: float | None = None

    def __post_init__(self):
        self.breaks = np.asarray(self.breaks, dtype=float)
        m = len(self.breaks) - 1
        if self.breaks.ndim != 1 or m < 1 or self.states.tau.shape != (m,):
            raise ValueError(f"a cell field needs m >= 1 cells with m + 1 breaks; got "
                             f"{self.breaks.shape} breaks and {self.states.tau.shape} states")
        U = self.states
        for name, a in (("breaks", self.breaks), ("tau", U.tau), ("v", U.v), ("eta", U.eta),
                        ("zeta", U.zeta)):
            require_finite(name, a)
        if np.any(np.diff(self.breaks) < 0.0):
            raise ValueError("cell field breaks must ascend")
        span = self.breaks[-1] - self.breaks[0]
        if self.period is not None and not abs(span - self.period) <= 1e-9 * self.period:
            raise ValueError(f"a periodic cell field's breaks must span its period "
                             f"{float(self.period)!r}; they span {float(span)!r}")

    @property
    def m(self) -> int:
        return len(self.breaks) - 1

    n = m  # cell count, read like a Profile's sample count

    @property
    def d(self) -> int:
        return self.states.d

    def widths(self) -> np.ndarray:
        return np.diff(self.breaks)

    def merged(self) -> CellField:
        """The same field with every run of adjacent exactly equal states as one cell."""
        U = self.states
        data = np.column_stack([U.tau, U.v, U.eta, U.zeta])
        start = np.flatnonzero(np.r_[True, np.any(data[1:] != data[:-1], axis=1)])
        return CellField(self.breaks[np.r_[start, self.m]],
                         StateU(U.tau[start], U.v[start], U.eta[start], U.zeta[start]),
                         self.period)


@dataclass
class Profile:
    """Uniformly sampled augmented state over one spatial window."""

    s0: float
    ds: float
    tau: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray
    boundary: str = "periodic"
    rough: bool = False

    def __post_init__(self):
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
        if not math.isfinite(self.s0):
            raise ValueError(f"s0 must be finite; got s0 = {self.s0}")
        if not 0.0 < self.ds < math.inf:
            raise ValueError(f"ds must be a finite number > 0; got ds = {self.ds}")
        self.tau = np.asarray(self.tau, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.eta = np.asarray(self.eta, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)
        if self.eta.ndim == 1:
            self.eta = self.eta[:, None]
        if self.zeta.ndim == 1:
            self.zeta = self.zeta[:, None]
        if self.tau.ndim != 1 or self.v.shape != self.tau.shape:
            raise ValueError(f"tau and v must be 1-D of equal length; got shapes "
                             f"{self.tau.shape} and {self.v.shape}")
        n = self.tau.shape[0]
        if n < 1:
            raise ValueError("tau must hold n >= 1 samples; got n = 0")
        if self.eta.ndim != 2 or self.eta.shape[0] != n or self.zeta.shape != self.eta.shape:
            raise ValueError(f"eta and zeta must both have shape (n, d) with n = {n}; got "
                             f"{self.eta.shape} and {self.zeta.shape}")
        for name in ("tau", "v", "eta", "zeta"):
            require_finite(name, getattr(self, name))

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def d(self) -> int:
        return self.eta.shape[1]

    @property
    def period(self) -> float:
        return self.n * self.ds

    @property
    def s_samples(self) -> np.ndarray:
        """Node positions for smooth profiles, cell centers for rough ones."""
        return self._s_rows(0, self.n)

    def _s_rows(self, i: int, j: int) -> np.ndarray:
        """s_samples[i:j], computed alone."""
        off = 0.5 * self.ds if self.rough else 0.0
        return self.s0 + off + self.ds * np.arange(i, j)

    def state(self) -> StateU:
        return StateU(self.tau, self.v, self.eta, self.zeta)

    def runs(self) -> CellField:
        """The rough profile as cells: one per run of consecutive equal samples.

        Breaks sit at the run edges s0 + i ds (the data's jumps); each cell
        holds its run's state; periodic profiles keep their period.
        """
        return CellField(self.s0 + self.ds * np.arange(self.n + 1), self.state(),
                         self.period if self.boundary == "periodic" else None).merged()

    def packed(self) -> np.ndarray:
        """All components side by side, shape (n, 2 + 2d)."""
        return np.concatenate(
            [self.tau[:, None], self.v[:, None], self.eta, self.zeta], axis=1
        )

    def to_hqyz(self) -> StateHQYZ:
        return from_rescaled(self.state())

    @classmethod
    def from_state(cls, s0, ds, U: StateU, boundary="periodic", rough=False) -> "Profile":
        return cls(s0, ds, U.tau, U.v, U.eta, U.zeta, boundary, rough)


def fmt17(x: float) -> str:
    """The snapshot number format: 17 significant digits, round-trip exact."""
    return format(float(x), ".17g")


# -- fmt17 on numpy blocks -------------------------------------------------------
#
# Digits.  |x| 10**(16 - e), e = floor(log10 |x|), is a double-double product
# (Dekker's two-product with a (hi, lo) pair of the power), corrected by one in e
# until its integer part has 17 digits.  It is good to about 1e-14 of the last
# digit, so rounding it to the nearest integer is exact outside a guard band of
# 1e-9 about a half.  Values in the band (exact ties among them), beyond
# 1e+-270, subnormal or not finite are printed by fmt17 itself, as are the rare
# ones whose rounding carries into an 18th digit.
# Layout.  A value's bytes are gathered from 32 source bytes (below) by a table
# row chosen by its "%g" form (fixed for -4 <= e < 17, else scientific), sign,
# number of significant digits and separator; unused slots read a NUL, and the
# NULs are dropped from the block's bytes.
#
# source bytes of a value: 0-16 the digits, then these constants and the exponent
_MINUS, _ZERO, _POINT, _E, _ESIGN, _EXP, _COMMA, _NL, _NUL = 17, 18, 19, 20, 21, 22, 25, 26, 27
_NFORM = 24  # fixed with e = 0..16 (form e) or -1..-4 (form 16 - e), scientific (21, 22), zero
_ZERO_FORM = _NFORM - 1
_SLOTS = 25  # the longest fmt17 (24 bytes) and its separator
_E_MIN, _E_MAX = -280, 280  # exponents the tables hold
_TIE_BAND = 1e-9
_ASCII0 = 0x3030303030303030  # eight '0' bytes
_SNAP_ROWS = 256  # rows formatted at a time (see the module docstring)


def _fmt17_form(e: int) -> int:
    if 0 <= e <= 16:
        return e
    if -4 <= e < 0:
        return 16 - e
    return 21 + (abs(e) >= 100)


def _fmt17_layout(form: int, k: int, neg: bool, last: bool) -> list[int]:
    """Source slots of a value's bytes: "%g" with k significant digits."""
    s = [_MINUS] if neg else []
    if form <= 16:  # the integer digits, then the fraction if any
        s += list(range(form + 1)) + ([_POINT, *range(form + 1, k)] if k > form + 1 else [])
    elif form <= 20:  # "0.", -e - 1 zeros, the digits
        s += [_ZERO, _POINT] + [_ZERO] * (form - 17) + list(range(k))
    elif form <= 22:  # d[.ddd]e+dd, a third exponent digit from 100 on
        s += [0] + ([_POINT, *range(1, k)] if k > 1 else [])
        s += [_E, _ESIGN] + list(range(_EXP if form == 22 else _EXP + 1, _EXP + 3))
    else:  # _ZERO_FORM
        s += [_ZERO]
    return s + [_NL if last else _COMMA]


@functools.cache
def _fmt17_tables():
    """Per exponent e from _E_MIN: 10**(16 - e) as hi + lo and hi's Dekker halves;
    the layout row of e's form with all 17 digits significant, and e's source bytes
    16-23 and 24-31.  Then the layout rows, indexed
    ((last * 2 + neg) * _NFORM + form) * 17 + k - 1, and last the identity."""
    powers, words = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # int true division rounds correctly
        hn, hd = hi.as_integer_ratio()
        big = 134217729.0 * hi
        hh = big - (big - hi)
        powers.append((hi, hh, hi - hh, (num * hd - hn * den) / (den * hd)))
        ae = f"{abs(e):03d}".encode()
        words.append((_fmt17_form(e) * 17 + 16,
                      int.from_bytes(b"\0-0.e" + (b"-" if e < 0 else b"+") + ae[:2], "little"),
                      int.from_bytes(ae[2:] + b",\n", "little")))
    layouts = np.full((4 * _NFORM * 17 + 1, _SLOTS), _NUL, np.uint8)
    for last in range(2):
        for neg in range(2):
            for form in range(_NFORM):
                for k in range(1, 18):
                    s = _fmt17_layout(form, k, neg, last)
                    layouts[((last * 2 + neg) * _NFORM + form) * 17 + k - 1, :len(s)] = s
    layouts[-1] = np.arange(_SLOTS)
    return np.array(powers).T, np.array(words, np.int64).T, layouts


def _scaled17(a, e):
    """Integer part and fraction of a * 10**(16 - e), from a double-double product."""
    (ph, phh, phl, pl), _, _ = _fmt17_tables()
    i = e - _E_MIN
    hi = a * ph[i]
    big = 134217729.0 * a
    ah = big - (big - a)
    al = a - ah
    bh, bl = phh[i], phl[i]
    lo = (((ah * bh - hi) + ah * bl + al * bh) + al * bl) + a * pl[i]
    fl = np.floor(lo)
    return hi.astype(np.int64) + fl.astype(np.int64), lo - fl


def _ascii8(n):
    """The 8 ASCII digits of each 0 <= n < 10**8 packed in an int64, first digit in
    the low byte: two 4-digit halves, then 2-digit quarters, then digits, each split
    by a multiply-shift that divides every lane at once."""
    hi = n // 10000
    x = hi | ((n - hi * 10000) << 32)
    hi = ((x * 10486) >> 20) & 0x0000007F0000007F
    x = hi | ((x - hi * 100) << 16)
    hi = ((x * 103) >> 10) & 0x000F000F000F000F
    return hi | ((x - hi * 10) << 8) | _ASCII0


def _zero_tail(w):
    """Trailing '0' digits of each packed word (8 if all are), from the bit length of
    its digit values.  The float conversion keeps the bit length: rounding up to a
    power of two would need 53 leading one bits, and a byte of at most 9 has none
    in its high nibble."""
    return (64 - np.frexp((w ^ _ASCII0).astype(np.float64))[1]) >> 3


def _csv_rows(rows: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float block, each value printed byte for byte as fmt17."""
    _, (form_row, word2, word3), layouts = _fmt17_tables()
    m, c = rows.shape
    x = rows.ravel()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-270) & (a <= 1e270)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    N, frac = _scaled17(a, e)
    off = np.flatnonzero((N < 10**16) | (N >= 10**17))  # log10 rounded across a power of ten
    if off.size:
        e[off] += np.where(N[off] < 10**16, -1, 1)
        N[off], frac[off] = _scaled17(a[off], e[off])
    D = N + (frac > 0.5)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _TIE_BAND) | (N < 10**16) | (D >= 10**17)
    H = D // 10**9
    R = D - H * 10**9
    R1 = R // 10
    d16 = R - R1 * 10
    i = e - _E_MIN
    src = np.empty((x.size, 4), "<i8")
    src[:, 0] = w0 = _ascii8(H)
    src[:, 1] = w1 = _ascii8(R1)
    src[:, 2] = word2[i] | (d16 + 48)
    src[:, 3] = word3[i]
    tail = _zero_tail(w1)
    tz = np.where(d16 > 0, 0, 1 + tail + (tail == 8) * _zero_tail(w0))  # trailing zero digits
    code = np.where(zero, _ZERO_FORM * 17, form_row[i] - tz) + np.signbit(x) * (_NFORM * 17)
    code.reshape(m, c)[:, -1] += 2 * _NFORM * 17
    src = src.view(np.uint8)
    for j in np.flatnonzero(slow):
        b = (fmt17(x[j]) + ("\n" if j % c == c - 1 else ",")).encode()
        src[j] = 0
        src[j, :len(b)] = np.frombuffer(b, np.uint8)
        code[j] = -1  # the identity layout
    at = np.repeat(np.arange(0, 32 * x.size, 32), _SLOTS).reshape(x.size, _SLOTS)
    at += layouts[code]
    return src.ravel().take(at).tobytes().translate(None, b"\0")


def _snapshot_columns(d: int) -> list[str]:
    return ["s", "tau", "v"] + [f"{name}_{k + 1}" for name in ("eta", "zeta") for k in range(d)]


def write_snapshot(csv_path: str, profile: Profile, meta: dict | None = None) -> None:
    """One CSV time slice plus a JSON sidecar ('<csv_path>.meta.json').

    Every value is printed byte for byte as fmt17 (`format(x, ".17g")`) prints
    it, so the file is deterministic and reads back to the same bits.  Rows
    are formatted _SNAP_ROWS at a time in numpy.
    """
    d = profile.d
    with open(csv_path, "wb") as fh:
        fh.write((",".join(_snapshot_columns(d)) + "\n").encode())
        for i in range(0, profile.n, _SNAP_ROWS):
            j = min(i + _SNAP_ROWS, profile.n)
            fh.write(_csv_rows(np.column_stack([profile._s_rows(i, j), profile.tau[i:j],
                                                profile.v[i:j], profile.eta[i:j],
                                                profile.zeta[i:j]])))
    sidecar = {
        "grid": {"s0": profile.s0, "ds": profile.ds, "n": profile.n, "d": d},
        "boundary": profile.boundary,
        "rough": profile.rough,
    }
    if meta:
        sidecar.update(meta)
    with open(csv_path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_snapshot(csv_path: str) -> tuple[Profile, dict]:
    """Inverse of write_snapshot; lossless up to the 17-digit float format.

    The CSV must match its sidecar: 3 + 2d columns, grid.n rows, and an `s`
    column on the sidecar's grid to 1e-12 relative (floored at one cell
    width, so a node at s = 0 is not held to an exact zero).  A mismatch
    raises ValueError naming the file and the first bad data row, counted
    from 1 after the header, as does a value that is not finite, which is
    also named by its column.  A sidecar key that is missing or not of its
    JSON type (grid.n, grid.d integers >= 1; grid.s0, grid.ds finite, ds
    positive; boundary a string; rough true or false) raises ValueError
    naming the sidecar and the key.  A sidecar or CSV that cannot be read, or
    a sidecar that is not JSON, raises ValueError naming the file.
    """
    try:
        with open(csv_path + ".meta.json") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read snapshot sidecar {csv_path}.meta.json: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for a binary file
        raise ValueError(f"invalid JSON sidecar {csv_path}.meta.json: {exc}") from exc

    def finite(value, above=-np.inf) -> float:
        if not above < _float(value) < np.inf:
            raise ValueError("expected a finite number" + ("" if above == -np.inf else f" > {above:g}"))
        return float(value)

    def read(key, cast):
        value = meta
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ValueError(f"{csv_path}.meta.json: missing key {key!r}")
            value = value[part]
        try:
            return cast(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{csv_path}.meta.json: key {key!r} = {value!r}: {exc}") from None

    n, d, s0, ds, boundary, rough = (read(key, cast) for key, cast in (
        ("grid.n", _count), ("grid.d", _count), ("grid.s0", finite),
        ("grid.ds", lambda x: finite(x, 0.0)), ("boundary", _str), ("rough", _bool)))
    try:
        with open(csv_path) as fh:
            data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read snapshot {csv_path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    if data.shape[1] != 3 + 2 * d:
        raise ValueError(f"{csv_path}: row 1 has {data.shape[1]} columns; "
                         f"the sidecar's d = {d} needs {3 + 2 * d}")
    if data.shape[0] != n:
        raise ValueError(f"{csv_path}: {data.shape[0]} rows where the sidecar's grid.n = {n} "
                         f"(first bad row {min(data.shape[0], n) + 1})")
    bad = ~np.isfinite(data)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{csv_path}: row {i + 1} has {_snapshot_columns(d)[j]} = "
                         f"{float(data[i, j])!r}, which is not finite")
    prof = Profile(s0, ds, data[:, 1], data[:, 2], data[:, 3:3 + d], data[:, 3 + d:], boundary, rough)
    s = prof.s_samples
    off = ~(np.abs(data[:, 0] - s) <= 1e-12 * np.maximum(np.abs(s), prof.ds))
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"{csv_path}: row {i + 1} has s = {float(data[i, 0])!r}, "
                         f"off the sidecar grid's s = {float(s[i])!r}")
    return prof, meta
