"""Weak-* machinery: pairings, oscillatory approximation, completion runs.

The convergence notion is pairing against integrable test functions in the
perspective coordinates u = (h, q, Y, Z) = (1, v, eta, zeta)/tau:

    profiles u_n -> u  iff  integral (u_n - u) g ds -> 0  for all g in L^1,
    uniformly in t on compacts.

Hull states oscillate down to manifold states: each sample of a profile
valued in CM cap G splits (extremal decomposition) into at most four
M cap G points whose tau and v agree with the sample, so tiling an
oscillation cell with those points in proportion to their weights leaves
every windowed average of (h, q, Y, Z) on the original profile.  As the
cell count n grows, the tiled profiles converge weak-* to the hull profile
while staying exactly on the constraint manifold; evolving them with the
characteristic solver and pairing realizes the completion experiment:
constraint-manifold (relativistic) data whose weak limit is a hull
(subrelativistic) generalized solution.

Every pairing is one weight vector per test function (the integral of g
over each cell or sample) times the field's observable matrix.  Cell
weights come from closed-form antiderivatives, so the oscillation
measurements carry no quadrature noise; smooth profiles fall back to
trapezoid weights.  The weak identities of the limit are checked against
the exact pairings of the limit's own evolved cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

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
            return self.p2 * _SQRT_HALF_PI * erf((s - self.p1) / (self.p2 * _SQRT2))
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


OBSERVABLES = ("h", "q", "Y", "Z", "q+1", "q-1", "Y-Z", "Y+Z")


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


def _weights(source: Profile | CellField, g: TestFunction, period: float | None) -> np.ndarray:
    """Integral of g over each cell of a cell field, or each sample of a smooth profile.

    Cells integrate exactly through the antiderivative of g, smooth periodic
    profiles by the rectangle rule over their own period, both summed over
    the periodic images that meet g's support and, in each image, only over
    the cells or samples that cover it (one searchsorted on the support
    bounds); without a period a cell field is supported on its own
    breakpoint window.  Smooth constant-boundary profiles take trapezoid
    weights.
    """
    if isinstance(source, CellField):
        pts, size, rule = source.breaks, source.m, lambda x: np.diff(g.antiderivative(x))
    elif source.boundary == "periodic":
        pts, size, period = source.s_samples, source.n, source.period
        rule = lambda x: source.ds * g(x)
    else:
        w = source.ds * g(source.s_samples)
        w[[0, -1]] *= 0.5
        return w
    if period is None:
        return rule(pts)
    g_lo, g_hi = g.support()
    ks = np.asarray(_wind_range(pts[0], pts[-1], g_lo, g_hi, period), dtype=float)
    lo, hi = np.searchsorted(pts, [g_lo - ks * period, g_hi - ks * period])
    c = len(pts) - size  # a cell needs both its breaks, a sample only itself
    w = np.zeros(size)
    for k, a, b in zip(ks, np.maximum(lo - c, 0), np.minimum(hi + 1, len(pts))):
        w[a:b - c] += rule(pts[a:b] + k * period)
    return w


def _pairings(source: Profile | CellField, family: list[TestFunction],
              period: float | None) -> np.ndarray:
    """Pairings (n_family, 2 + 2d) of one field; its observables are built once."""
    if isinstance(source, Profile) and source.rough:
        source = CellField(source.s0 + source.ds * np.arange(source.n + 1), source.state())
    obs = observable_matrix(source.states if isinstance(source, CellField) else source.state())
    return np.stack([_weights(source, g, period) @ obs for g in family])


def pairing_matrix(source: Profile | CellField, g: TestFunction,
                   period: float | None = None) -> np.ndarray:
    """Full-line pairings of all perspective coordinates against g (weights as in `_weights`)."""
    return _pairings(source, [g], period)[0]


def pairing(source: Profile | CellField, g: TestFunction, observable: str,
            period: float | None = None):
    """Pairing of one named observable against g (full-line convention).

    Scalar observables return floats; Y/Z-type observables return length-d
    vectors.  q+-1 and Y-+Z are assembled from the base pairings plus the
    closed-form integral of g.
    """
    if isinstance(source, Profile) and period is None and source.boundary == "periodic":
        period = source.period
    mat = pairing_matrix(source, g, period)
    d = (mat.shape[-1] - 2) // 2
    base = {"h": mat[0], "q": mat[1], "Y": mat[2:2 + d], "Z": mat[2 + d:]}
    if observable in base:
        return base[observable]
    if observable == "q+1":
        return base["q"] + g.normalization
    if observable == "q-1":
        return base["q"] - g.normalization
    if observable == "Y-Z":
        return base["Y"] - base["Z"]
    if observable == "Y+Z":
        return base["Y"] + base["Z"]
    raise ValueError(f"unknown observable {observable!r}; expected one of {OBSERVABLES}")


@dataclass
class OscillationPlan:
    """Layout record of one oscillatory approximation."""

    n_requested: float
    n_eff: float
    cells: int
    samples_per_cell: int
    layout: str
    max_weight_quantization: float
    base: Profile
    params: ManifoldParams
    counts: np.ndarray | None = None          # (base.n, 4) for aligned rough bases
    point_states: tuple | None = None         # decomposition arrays of the base cells

    def limit_profile(self) -> Profile:
        """Exact weak limit of the emitted tiling (equals the base when the
        quantized proportions are exact, e.g. quarter weights)."""
        if self.counts is None or self.point_states is None:
            return self.base
        p = self.counts / self.samples_per_cell
        _, tau, v, eta, zeta = self.point_states
        return Profile(
            self.base.s0, self.base.ds,
            np.sum(p * tau, axis=1), np.sum(p * v, axis=1),
            np.sum(p[..., None] * eta, axis=1), np.sum(p[..., None] * zeta, axis=1),
            self.base.boundary, rough=True,
        )


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
                      m: int = 64, layout: str = "forward") -> tuple[Profile, OscillationPlan]:
    """Tile hull data with manifold states at ~n oscillation cells per unit length.

    Every emitted sample lies in M cap G (the extremal decomposition keeps
    tau and v); within each oscillation cell the decomposition points occupy
    sample runs proportional to their weights (off by at most one sample).
    The cell count snaps to a multiple of the base grid, so rough bases
    decompose once per base cell and quarter weights tile exactly when m is
    a multiple of 4.  Requires n >= 2 per unit length and a periodic base.
    """
    if n < 2:
        raise ValueError("need at least 2 oscillation cells per unit length")
    if base.boundary != "periodic":
        raise ValueError("oscillation layouts are defined on periodic profiles")
    if layout not in ("forward", "reversed"):
        raise ValueError("layout must be 'forward' or 'reversed'")
    if params is None:
        win = admissibility(base)
        params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=base.d)
    period = base.period
    k = max(1, round(n * period / base.n))
    cells = k * base.n
    n_eff = cells / period
    total = cells * m
    ds = period / total
    s = base.s0 + (np.arange(total) + 0.5) * ds
    ordinal = np.arange(total) % m
    if layout == "reversed":
        ordinal = m - 1 - ordinal

    if base.rough:
        w, tau, v, eta, zeta = decompose_to_m_arrays(base.state(), params)
        counts = _largest_remainder(w, m)
        thresholds = np.cumsum(counts, axis=1)          # (base.n, 4)
        cell_of = (np.arange(total) // (k * m)) % base.n
        thr = thresholds[cell_of]
        pick = np.sum(thr <= (ordinal[:, None] + 0.5), axis=1)
        src = cell_of
        quant = float(np.max(np.abs(counts / m - w)))
        point_states = (w, tau, v, eta, zeta)
    else:
        U = base.fields_at(s)
        w, tau, v, eta, zeta = decompose_to_m_arrays(U, params)
        thr = np.cumsum(w, axis=1) * m
        pick = np.sum(thr <= (ordinal[:, None] + 0.5), axis=1)
        src = np.arange(total)
        counts = None
        quant = 1.0 / m
        point_states = None

    pick = np.minimum(pick, 3)
    out = Profile(
        base.s0, ds,
        tau[src, pick], v[src, pick], eta[src, pick], zeta[src, pick],
        "periodic", rough=True,
    )
    plan = OscillationPlan(n, n_eff, cells, m, layout, quant, base, params,
                           counts, point_states)
    return out, plan


def pairing_tables(fields_by_time: dict, family: list[TestFunction],
                   period: float | None = None) -> np.ndarray:
    """Array of pairings, shape (n_times, n_family, 2 + 2d), times in key order.

    Each field's observable matrix is built once and freed before the next
    field's; every test function then costs one weight vector and one mat-vec.
    """
    return np.stack([_pairings(src, family, period) for src in fields_by_time.values()])


def weak_distance(table_a: np.ndarray, table_b: np.ndarray) -> dict:
    """Max pairing gap between two tables, overall and per time slice."""
    gap = np.abs(table_a - table_b)
    return {"max": float(np.max(gap)), "per_time": np.max(gap, axis=(1, 2))}


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
    d = flow.profile.d
    rhs = pairing_tables({t: evolve_cells(flow, t) for t in times}, family, flow.s_period)
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


def completion_experiment(base: Profile, n_list, times, family: list[TestFunction] | None = None,
                          m: int = 64, params: ManifoldParams | None = None,
                          identity_tol: float = 1e-3, membership_tol: float = 1e-10,
                          compare_layouts: bool = False) -> dict:
    """End-to-end completion run: oscillate, evolve, pair, extrapolate, verify.

    Returns a report with the weak-distance decay of the oscillated sequence
    (slope of the gap to the extrapolated limit), the time-uniformity ratio,
    the transport-identity residuals of the limit, and the membership verdicts
    showing a hull-valued (non-relativistic) limit of manifold-valued
    (relativistic) data whenever the base leaves the manifold.
    """
    if family is None:
        family = default_family(base.s0, base.s0 + base.period)
    if params is None:
        win = admissibility(base)
        params = ManifoldParams(alpha=win.alpha, delta=win.delta, d=base.d)
    times = list(times)
    period = base.period

    n_eff, tables, osc_in_m = [], [], True
    plans = []
    for n in n_list:
        osc, plan = oscillate_profile(base, n, params, m=m)
        plans.append(plan)
        n_eff.append(plan.n_eff)
        ok = in_m(osc.state(), membership_tol) & in_g(osc.state(), params.alpha,
                                                      params.delta, membership_tol)
        osc_in_m = osc_in_m and bool(np.all(ok))
        flow = build_flow(osc, params.alpha, params.delta)
        tables.append(pairing_tables({t: evolve_cells(flow, t) for t in times}, family, period))
    tables = np.stack(tables)

    limit_table = extrapolate_tables(n_eff, tables)
    gap_tg = np.max(np.abs(tables - limit_table[None]), axis=3)  # (n, t, g)
    gaps = gap_tg.max(axis=(1, 2))
    per_time = gap_tg.max(axis=2)
    slope = -loglog_slope(n_eff, gaps)  # decay exponent p in gap ~ n^-p
    # max/min gap over times per level, over the levels whose smallest gap is
    # positive: a level pairing exactly like its limit at some time has no ratio
    lo, hi = per_time.min(axis=1), per_time.max(axis=1)
    uniformity = float(np.max(hi[lo > 0.0] / lo[lo > 0.0], initial=1.0))

    # direct evolution of the exact weak limit of the tiling
    limit_prof = plans[-1].limit_profile()
    limit_flow = build_flow(limit_prof, params.alpha, params.delta)
    direct_fields = {t: evolve_cells(limit_flow, t) for t in times}
    direct_table = pairing_tables(direct_fields, family, period)
    extrap_vs_direct = float(np.max(np.abs(limit_table - direct_table)))

    identities = verify_generalized_solution(limit_table, limit_flow, family, times,
                                             identity_tol)

    lim_cm, lim_m = True, True
    for t in times:
        st = direct_fields[t].states
        lim_cm = lim_cm and bool(np.all(in_cm(st, 1e-8) & in_g(st, params.alpha,
                                                               params.delta, 1e-8)))
        lim_m = lim_m and bool(np.all(in_m(st, 1e-8)))

    report = {
        "n_values": [float(x) for x in n_eff],
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
        osc_r, _ = oscillate_profile(base, n_list[-1], params, m=m, layout="reversed")
        flow_r = build_flow(osc_r, params.alpha, params.delta)
        table_r = pairing_tables({t: evolve_cells(flow_r, t) for t in times}, family, period)
        report["layout_gap"] = float(np.max(np.abs(table_r - tables[-1])))
        report["layout_gap_scale"] = float(gaps[-1])
    return report
