"""Weak-* machinery: pairings, oscillatory approximation, completion runs.

The convergence notion is pairing against integrable test functions in the
perspective coordinates u = (h, q, Y, Z) = (1, v, eta, zeta)/tau:

    profiles u_n -> u  iff  integral (u_n - u) g ds -> 0  for all g in L^1,
    uniformly in t on compacts.

Hull states oscillate down to manifold states: each cell of a rough
profile valued in CM cap G splits (extremal decomposition) into at most four
M cap G points whose tau and v agree with the cell, so tiling an
oscillation cell with those points in proportion to their weights leaves
every windowed average of (h, q, Y, Z) on the original profile.  As the
cell count n grows, the tilings converge weak-* to the hull profile
while staying exactly on the constraint manifold; evolving them with the
characteristic solver and pairing realizes the completion experiment:
constraint-manifold (relativistic) data whose weak limit is a hull
(subrelativistic) generalized solution.  A tiling is born as its runs of
equal states (a CellField, at most four runs per oscillation cell); it is
checked, evolved and paired on those runs, and `OscillationPlan.samples`
gives the same tiling sample by sample.

The layer takes cells only: a CellField, or a rough Profile as initial data
on its runs (`Profile.runs`); a smooth Profile raises ValueError.  The exact
limit of a tiling (`OscillationPlan.limit_profile`) is cells too.  Every
pairing is one weight vector per test function (the exact integral of g
over each cell, from its closed-form antiderivative, so the oscillation
measurements carry no quadrature noise) times the field's observable
matrix.  The weak identities of the limit are checked against the exact
pairings of its own evolved cells, which a completion run computes once and
also compares with the extrapolated limit.  The Gaussian antiderivative
reads erf from `_erf`, a numpy Taylor table built at its first call, so
the package needs numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristics import CharacteristicFlow, admissibility, build_flow, evolve_cells
from .geometry import (
    DomainError,
    ManifoldParams,
    StateU,
    decompose_to_m_arrays,
    in_cm,
    in_g,
    in_m,
)
from .profiles import CellField, Profile

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_ERF_H = 1024      # table nodes per unit (a power of two, so j / H is exact)
_ERF_DEGREE = 4
_ERF_CLAMP = 6.0   # erf(6) rounds to 1.0


@functools.cache
def _erf_table() -> np.ndarray:
    """Taylor coefficients (degree + 1, nodes) of erf at the nodes j / H on [0, 6],
    in powers of the offset counted in node spacings.

    Row k is erf^(k)(j / H) / (k! H^k), exact rescalings since H is a power of
    two.  Row 0 is math.erf at the node; the derivatives come from
    erf^(k+1)(x) = (2 / sqrt(pi)) (-1)^k H_k(x) exp(-x^2) with the Hermite
    recurrence H_(k+1) = 2x H_k - 2k H_(k-1).
    """
    x = np.arange(int(_ERF_CLAMP * _ERF_H) + 1) / _ERF_H
    coef = np.empty((_ERF_DEGREE + 1, x.size))
    coef[0] = [math.erf(v) for v in x.tolist()]
    gauss = 2.0 / math.sqrt(math.pi) * np.exp(-x * x)
    h_prev, h_k, fact = np.zeros_like(x), np.ones_like(x), 1.0
    for k in range(_ERF_DEGREE):
        fact *= (k + 1) * _ERF_H
        coef[k + 1] = (-1) ** k * h_k * gauss / fact
        h_prev, h_k = h_k, 2.0 * x * h_k - 2.0 * k * h_prev
    return coef


def _erf(x) -> np.ndarray:
    """erf of an array, within 2^-53 of math.erf: |x| H clamped at the last
    node, Horner in the offset from the nearest node, then the sign of x
    (NaN stays NaN)."""
    x = np.asarray(x, dtype=float)
    coef = _erf_table()
    top = _ERF_CLAMP * _ERF_H
    u = np.minimum(np.abs(x) * _ERF_H, top)
    node = np.rint(np.fmin(u, top))  # fmin: a NaN reads the last node, never indexes with NaN
    j = node.astype(np.intp)
    u -= node
    y = coef[-1][j]
    for c in coef[-2::-1]:
        y *= u
        y += c[j]
    return np.copysign(y, x)


@dataclass
class TestFunction:
    """Integrable test function with a closed-form antiderivative.

    kinds: gaussian(center, width), hat(center, half_width) (triangular),
    indicator(a, b).  `normalization` is the full-line integral, computed in
    closed form at construction.
    """

    __test__ = False  # keep pytest from collecting the class

    kind: str
    p1: float
    p2: float
    normalization: float = field(init=False)

    def __post_init__(self):
        for value in (self.p1, self.p2):
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} parameters must be finite; got {float(value)!r}")
        if self.kind == "gaussian":
            if self.p2 <= 0.0:
                raise ValueError("gaussian width must be positive")
            self.normalization = self.p2 * math.sqrt(2.0 * math.pi)
        elif self.kind == "hat":
            if self.p2 <= 0.0:
                raise ValueError("hat half-width must be positive")
            self.normalization = self.p2
        elif self.kind == "indicator":
            if self.p2 <= self.p1:
                raise ValueError("indicator needs a < b")
            self.normalization = self.p2 - self.p1
        else:
            raise ValueError(f"unknown test-function kind {self.kind!r}")

    @classmethod
    def gaussian(cls, center: float, width: float) -> "TestFunction":
        return cls("gaussian", center, width)

    @classmethod
    def hat(cls, center: float, half_width: float) -> "TestFunction":
        return cls("hat", center, half_width)

    @classmethod
    def indicator(cls, a: float, b: float) -> "TestFunction":
        return cls("indicator", a, b)

    @property
    def label(self) -> str:
        return f"{self.kind}({self.p1:.4g},{self.p2:.4g})"

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * ((s - self.p1) / self.p2) ** 2)
        if self.kind == "hat":
            return np.maximum(0.0, 1.0 - np.abs(s - self.p1) / self.p2)
        return ((s >= self.p1) & (s <= self.p2)).astype(float)

    def antiderivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "gaussian":
            return self.p2 * _SQRT_HALF_PI * _erf((s - self.p1) / (self.p2 * _SQRT2))
        if self.kind == "hat":
            x = np.clip(s - self.p1, -self.p2, self.p2)
            return 0.5 * self.p2 + x - 0.5 * x * np.abs(x) / self.p2
        return np.clip(s - self.p1, 0.0, self.p2 - self.p1)

    def support(self, tail: float = 1e-14):
        if self.kind == "gaussian":
            half = self.p2 * math.sqrt(-2.0 * math.log(tail))
            return self.p1 - half, self.p1 + half
        if self.kind == "hat":
            return self.p1 - self.p2, self.p1 + self.p2
        return self.p1, self.p2


def default_family(s_lo: float = -2.0 * np.pi, s_hi: float = 2.0 * np.pi) -> list[TestFunction]:
    """8 gaussians (widths 0.25..2), 8 hats, 4 indicators across the window."""
    span = s_hi - s_lo
    mid = 0.5 * (s_lo + s_hi)
    gauss_c = np.linspace(s_lo + 0.15 * span, s_hi - 0.15 * span, 8)
    gauss_w = np.linspace(0.25, 2.0, 8)
    fam = [TestFunction.gaussian(c, w) for c, w in zip(gauss_c, gauss_w)]
    hat_c = np.linspace(s_lo + 0.2 * span, s_hi - 0.2 * span, 8)
    hat_w = np.linspace(0.3, 1.5, 8)
    fam += [TestFunction.hat(c, w) for c, w in zip(hat_c, hat_w)]
    fam += [
        TestFunction.indicator(s_lo, mid),
        TestFunction.indicator(mid, s_hi),
        TestFunction.indicator(mid - 0.25 * span, mid + 0.25 * span),
        TestFunction.indicator(s_lo + 0.05 * span, s_hi - 0.05 * span),
    ]
    return fam


def observable_matrix(states: StateU) -> np.ndarray:
    """Stacked perspective coordinates [h, q, Y_1..d, Z_1..d], shape (..., 2+2d)."""
    if np.any(states.tau <= 0.0):
        raise DomainError("observables require tau > 0")
    inv = 1.0 / states.tau
    return np.concatenate(
        [inv[..., None], (states.v * inv)[..., None],
         states.eta * inv[..., None], states.zeta * inv[..., None]], axis=-1
    )


def _wind_range(lo_img, hi_img, g_lo, g_hi, period):
    k_lo = math.floor((g_lo - hi_img) / period) + 1
    k_hi = math.floor((g_hi - lo_img) / period)
    return range(k_lo, k_hi + 1)


def _weights(cells: CellField, g: TestFunction) -> np.ndarray:
    """Integral of g over each cell, exactly through the antiderivative of g.

    Periodic fields sum over the images (by the field's own period) that
    meet g's support and, in each image, only over the cells that cover it
    (one searchsorted on the support bounds); the breakpoints of all those
    images go through one antiderivative call.  Without a period the field
    is supported on its own breakpoint window.
    """
    pts, period = cells.breaks, cells.period
    if period is None:
        return np.diff(g.antiderivative(pts))
    g_lo, g_hi = g.support()
    images = []
    for k in _wind_range(pts[0], pts[-1], g_lo, g_hi, period):
        lo, hi = pts.searchsorted((g_lo - k * period, g_hi - k * period))
        images.append((k, max(int(lo) - 1, 0), min(int(hi) + 1, len(pts))))
    steps = np.diff(g.antiderivative(np.concatenate([pts[a:b] + k * period
                                                     for k, a, b in images])))
    w = np.zeros(cells.m)
    at = 0
    for _, a, b in images:  # the step between two images' slices is skipped
        w[a:b - 1] += steps[at:at + b - a - 1]
        at += b - a
    return w


def _rough(base: Profile) -> Profile:
    """base itself; a smooth Profile raises ValueError."""
    if not base.rough:
        raise ValueError("the weak-* layer takes cells: pass a CellField or a rough Profile, "
                         "not a smooth Profile")
    return base


def _pairings(source: Profile | CellField, family: list[TestFunction]) -> np.ndarray:
    """Pairings (n_family, 2 + 2d) of one field; its observables are built once.

    A rough profile pairs on its runs of equal samples (`Profile.runs`).
    """
    cells = source if isinstance(source, CellField) else _rough(source).runs()
    obs = observable_matrix(cells.states)
    return np.stack([_weights(cells, g) @ obs for g in family])


def pairing_matrix(source: Profile | CellField, g: TestFunction) -> np.ndarray:
    """Full-line pairings of all perspective coordinates against g (weights as in `_weights`)."""
    return _pairings(source, [g])[0]


@dataclass
class OscillationPlan:
    """Layout record of one oscillatory approximation."""

    n_eff: float
    cells: int
    samples_per_cell: int
    layout: str
    max_weight_quantization: float
    base: Profile
    counts: np.ndarray    # (base.n, 4) samples of each decomposition point per oscillation cell
    point_states: tuple   # decomposition arrays (w, tau, v, eta, zeta) of the base cells

    def limit_profile(self) -> CellField:
        """Exact weak limit of the emitted tiling as cells (equals the base when
        the quantized proportions are exact, e.g. quarter weights)."""
        base, p = self.base, self.counts / self.samples_per_cell
        _, tau, v, eta, zeta = self.point_states
        return CellField(base.s0 + base.ds * np.arange(base.n + 1), StateU(
            np.sum(p * tau, axis=1), np.sum(p * v, axis=1), np.sum(p[..., None] * eta, axis=1),
            np.sum(p[..., None] * zeta, axis=1)), base.period).merged()

    def samples(self) -> Profile:
        """The tiling as a rough profile, `samples_per_cell` samples per oscillation cell.

        Sample j of an oscillation cell (counted from its far end in the
        reversed layout) holds the decomposition point whose share of the
        cell covers it.  Its runs (`Profile.runs`) are the cells that
        `oscillate_profile` returns.
        """
        base, m = self.base, self.samples_per_cell
        total = self.cells * m
        ordinal = np.arange(total) % m
        if self.layout == "reversed":
            ordinal = m - 1 - ordinal
        _, tau, v, eta, zeta = self.point_states
        src = (np.arange(total) // (self.cells // base.n * m)) % base.n
        thr = np.cumsum(self.counts, axis=1)[src]
        pick = np.minimum(np.sum(thr <= (ordinal[:, None] + 0.5), axis=1), 3)
        return Profile(base.s0, base.period / total, tau[src, pick], v[src, pick],
                       eta[src, pick], zeta[src, pick], "periodic", rough=True)


def _largest_remainder(weights: np.ndarray, m: int) -> np.ndarray:
    """Integer apportionment of m slots to rows of weights (sum to 1)."""
    scaled = weights * m
    base = np.floor(scaled).astype(int)
    deficit = m - base.sum(axis=1)
    rem = scaled - base
    order = np.argsort(-rem, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(weights.shape[1])[None, :], axis=1)
    return base + (rank < deficit[:, None])


def oscillate_profile(base: Profile, n: float, params: ManifoldParams | None = None,
                      m: int = 64, layout: str = "forward") -> tuple[CellField, OscillationPlan]:
    """Tile rough hull data with manifold states at ~n oscillation cells per unit length.

    Returns the tiling as its runs of equal states, a periodic CellField,
    and the plan (`plan.samples()` is the same tiling sampled at m samples
    per oscillation cell).  Every state lies in M cap G (the extremal
    decomposition keeps tau and v); within each oscillation cell the
    decomposition points occupy runs of samples proportional to their
    weights (off by at most one sample), in index order or, in the
    reversed layout, backwards.  The cell count snaps to a multiple of the
    base grid, so the base decomposes once per base cell, each oscillation
    cell holds at most four runs, and quarter weights tile exactly when m is
    a multiple of 4.  Empty runs are dropped and adjacent equal states
    merged, as `Profile.runs` does on the samples.  Without `params` the
    window is the `admissibility` window of the base.  Requires n >= 2 per
    unit length and a rough periodic base; a smooth one raises ValueError.
    """
    if n < 2:
        raise ValueError("need at least 2 oscillation cells per unit length")
    if _rough(base).boundary != "periodic":
        raise ValueError("oscillation layouts are defined on periodic profiles")
    if layout not in ("forward", "reversed"):
        raise ValueError("layout must be 'forward' or 'reversed'")
    if params is None:
        win = admissibility(base)
        params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    k = max(1, round(n * base.period / base.n))
    cells = k * base.n
    parts = decompose_to_m_arrays(base.state(), params)
    w, tau, v, eta, zeta = parts
    counts = _largest_remainder(w, m)
    plan = OscillationPlan(cells / base.period, cells, m, layout,
                           float(np.max(np.abs(counts / m - w))), base, counts, parts)
    # the four runs of every oscillation cell in layout order, k cells per base cell
    src = np.repeat(np.arange(base.n), 4 * k)
    pick = np.tile([0, 1, 2, 3] if layout == "forward" else [3, 2, 1, 0], cells)
    size = counts[src, pick]
    src, pick, size = src[size > 0], pick[size > 0], size[size > 0]
    total = cells * m
    ds = base.period / total
    runs = CellField(base.s0 + ds * np.r_[0, np.cumsum(size)],
                     StateU(tau[src, pick], v[src, pick], eta[src, pick], zeta[src, pick]),
                     total * ds)
    return runs.merged(), plan


def pairing_tables(fields_by_time: dict, family: list[TestFunction]) -> np.ndarray:
    """Array of pairings, shape (n_times, n_family, 2 + 2d), times in key order.

    Each field's observable matrix is built once and freed before the next
    field's; every test function then costs one weight vector and one mat-vec.
    """
    return np.stack([_pairings(src, family) for src in fields_by_time.values()])


def extrapolate_tables(n_values, tables: np.ndarray) -> np.ndarray:
    """Richardson limit of the pairings in 1/n from the two finest levels.

    Under p_n = p_inf + c/n + O(1/n^2) the weighted combination of the two
    largest n eliminates the 1/n term exactly, leaving an O(1/n^2) error;
    using only the finest pair keeps coarse-level lattice artifacts (e.g.
    indicator edges crossing subcell boundaries) out of the limit.
    """
    order = np.argsort(np.asarray(n_values, dtype=float))
    i1, i2 = order[-2], order[-1]
    n1, n2 = float(n_values[i1]), float(n_values[i2])
    w = n1 / (n2 - n1)
    return tables[i2] + w * (tables[i2] - tables[i1])


def loglog_slope(n_values, gaps) -> float:
    """Least-squares slope of log(gap) against log(n)."""
    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.asarray(gaps, dtype=float))
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


# -- generalized-solution identities ---------------------------------------


def verify_generalized_solution(limit_table: np.ndarray, flow: CharacteristicFlow,
                                family: list[TestFunction], times,
                                tol: float = 1e-3, continuous_only: bool = True) -> dict:
    """Check the three weak transport identities of the limit pairings.

    limit_table has shape (n_times, n_family, 2+2d) in the (h, q, Y, Z)
    stacking.  The right-hand sides

        h    : integral g h(t,.) ds          = integral g(xi(t, y)) dy
        q+-1 : integral (q +- 1)(t,.) g ds   = transported initial packets
        Y-+Z : integral (Y -+ Z)(t,.) g ds   = transported initial packets

    are the exact pairings of the limit's own initial data evolved by
    `evolve_cells` (periodic rough flows).  Residuals: the h and q gaps (the
    integral of g cancels on both sides of q+-1) and max |dY -+ dZ| over the
    Y and Z gaps.

    With continuous_only (default) indicator-type g are skipped: a jump of g
    inside an oscillation cell leaves an alignment-dependent O(1/n) floor in
    the extrapolated pairings that no 1/n model removes, so those entries
    measure lattice alignment, not the identities.  Indicators still count
    in the convergence-distance tables.
    """
    if flow.mode != "pc" or flow.s_period is None:
        raise ValueError("identity verification needs a periodic rough flow")
    rhs, _ = _evolve_and_pair(flow, times, family)
    return _identities(limit_table, rhs, family, tol, continuous_only)


def _identities(limit_table, rhs, family, tol, continuous_only=True) -> dict:
    """`verify_generalized_solution` given `rhs`, the pairings of the limit's evolved cells."""
    d = (limit_table.shape[-1] - 2) // 2
    keep = [not (continuous_only and g.kind == "indicator") for g in family]
    gap = (limit_table - rhs)[:, keep]
    dY, dZ = gap[..., 2:2 + d], gap[..., 2 + d:]
    res_h = float(np.max(np.abs(gap[..., 0]), initial=0.0))
    res_q = float(np.max(np.abs(gap[..., 1]), initial=0.0))
    res_yz = float(max(np.max(np.abs(dY - dZ), initial=0.0), np.max(np.abs(dY + dZ), initial=0.0)))
    return {
        "residual_h": res_h,
        "residual_q": res_q,
        "residual_yz": res_yz,
        "tol": tol,
        "pass": bool(max(res_h, res_q, res_yz) <= tol),
    }


def _evolve_and_pair(flow: CharacteristicFlow, times, family: list[TestFunction],
                     read=None) -> tuple[np.ndarray, list]:
    """Pairings (n_times, n_family, 2 + 2d) of the flow's fields at the times
    (`evolve_cells`), and read(field) of each field when read is given.

    Each field is evolved, paired through `pairing_tables`, read and dropped
    before the next time's is evolved, so one field lives at a time however
    many times there are.
    """
    rows, reads = [], []
    for t in times:
        cells = evolve_cells(flow, t)
        rows.append(pairing_tables({t: cells}, family)[0])
        if read is not None:
            reads.append(read(cells))
        del cells  # before the next time's field is evolved
    return np.stack(rows), reads


def completion_experiment(base: Profile, n_list, times, family: list[TestFunction] | None = None,
                          m: int = 64, identity_tol: float = 1e-3, compare_layouts: bool = False) -> dict:
    """End-to-end completion run: oscillate, evolve, pair, extrapolate, verify.

    Returns a report with the weak-distance decay of the oscillated sequence
    (slope of the gap to the extrapolated limit; None when fewer than two
    levels have a positive gap), the time-uniformity ratio,
    the transport-identity residuals of the limit, and the membership verdicts
    showing a hull-valued (non-relativistic) limit of manifold-valued
    (relativistic) data whenever the base leaves the manifold.  Per level it
    also gives the sizes that set the cost: the tiling's `runs`, the largest
    `evolved_cells` count over the times, and the plan's
    `max_weight_quantization`.  Raises ValueError for empty times (before
    any tiling) and for an n_list that snaps to fewer than two distinct
    levels (before extrapolating, which needs two).
    """
    if family is None:
        family = default_family(base.s0, base.s0 + base.period)
    win = admissibility(base)
    params = ManifoldParams(alpha=win.alpha, delta=win.delta)
    times = list(times)
    if not times:
        raise ValueError("times must hold at least one time")

    def flow(source):
        return build_flow(source, params.alpha, params.delta)

    n_eff, tables, osc_in_m = [], [], True
    plans, runs, evolved = [], [], []
    for n in n_list:
        osc, plan = oscillate_profile(base, n, params, m)
        plans.append(plan)
        n_eff.append(plan.n_eff)
        runs.append(osc.m)
        # the run states are exactly the distinct states of the tiling's samples
        ok = in_m(osc.states, 1e-10) & in_g(osc.states, params.alpha, params.delta, 1e-10)
        osc_in_m = osc_in_m and bool(np.all(ok))
        table, sizes = _evolve_and_pair(flow(osc), times, family, lambda cells: cells.m)
        evolved.append(max(sizes))
        tables.append(table)
        del osc  # free this level's tiling before the next one is built
    if len(set(n_eff)) < 2:
        levels = ", ".join(f"{x:.4g}" for x in n_eff)
        raise ValueError(f"n_list {list(n_list)} snaps to the levels [{levels}] (oscillation "
                         f"cells per unit length); the extrapolation needs two distinct levels")
    tables = np.stack(tables)

    limit_table = extrapolate_tables(n_eff, tables)
    gap_tg = np.max(np.abs(tables - limit_table[None]), axis=3)  # (n, t, g)
    gaps = gap_tg.max(axis=(1, 2))
    per_time = gap_tg.max(axis=2)
    # decay exponent p in gap ~ n^-p, fitted over the levels with a positive
    # gap; a tiling that pairs exactly like its limit at all but one level has none
    pos = gaps > 0.0
    slope = -loglog_slope(np.asarray(n_eff)[pos], gaps[pos]) if np.sum(pos) >= 2 else None
    # max/min gap over times per level, over the levels whose smallest gap is
    # positive: a level pairing exactly like its limit at some time has no ratio
    lo, hi = per_time.min(axis=1), per_time.max(axis=1)
    uniformity = float(np.max(hi[lo > 0.0] / lo[lo > 0.0], initial=1.0))

    def membership(cells):  # (in CM cap G, in M) of one evolved field of the limit
        st = cells.states
        return (bool(np.all(in_cm(st, 1e-8) & in_g(st, params.alpha, params.delta, 1e-8))),
                bool(np.all(in_m(st, 1e-8))))

    # direct evolution of the exact weak limit of the tiling
    direct_table, member = _evolve_and_pair(flow(plans[-1].limit_profile()), times, family,
                                            membership)
    extrap_vs_direct = float(np.max(np.abs(limit_table - direct_table)))

    identities = _identities(limit_table, direct_table, family, identity_tol)
    lim_cm, lim_m = map(all, zip(*member))

    report = {
        "n_values": [float(x) for x in n_eff],
        "runs": runs,
        "evolved_cells": evolved,
        "max_weight_quantization": [p.max_weight_quantization for p in plans],
        "times": [float(t) for t in times],
        "family": [g.label for g in family],
        "gaps": gaps.tolist(),
        "per_time_gaps": per_time.tolist(),
        "per_tg_gaps": gap_tg.tolist(),
        "slope": slope,
        "uniformity_ratio": uniformity,
        "oscillated_all_in_M_cap_G": osc_in_m,
        "extrapolated_vs_direct_limit": extrap_vs_direct,
        "identities": identities,
        "limit_in_CM_cap_G": lim_cm,
        "limit_in_M": lim_m,
        "limit_is_nonrelativistic_generalized_string": bool(lim_cm and not lim_m),
    }

    if compare_layouts:
        osc_r, _ = oscillate_profile(base, n_list[-1], params, m, "reversed")
        table_r, _ = _evolve_and_pair(flow(osc_r), times, family)
        report["layout_gap"] = float(np.max(np.abs(table_r - tables[-1])))
        report["layout_gap_scale"] = float(gaps[-1])
    return report
