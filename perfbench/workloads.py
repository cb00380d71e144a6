"""Seeded inputs, passes and output checks of the stringlab benchmark.

A workload is a closed loop of passes.  A pass is a fixed list of ops; an op
is one call chain into the public `stringlab` functions whose output goes
through a check at the acceptance-gate tolerance.  An op fails when it raises
or when its output misses its check, and the `Ledger` counts both.

Seed 0 reproduces the acceptance-gate and test inputs exactly.  Any other
seed moves input values (evaluation times, profile phases and amplitudes,
test-function centres), never input sizes, so every seed does the same work.
"""

from __future__ import annotations

import filecmp
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from stringlab import characteristics, datasets, finite_volume, profiles, validate, waves, weak

TWO_PI = 2.0 * math.pi

# Acceptance-gate tolerances (tests/test_acceptance.py and the CLI checks).
SLOPE_BAND = (0.8, 1.3)
UNIFORMITY_MAX = 3.0
IDENTITY_TOL = 1e-3
DRIFT_TOL = 1e-6
RECONSTRUCTION_TOL = 1e-6
FV_ORDER_MIN = 0.8
THM1_BAND = (1.6, 2.4)

COMPLETION_N = (8, 16, 32, 64, 128)
COMPLETION_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0)
SMOOTH_N = 16384
SMOOTH_TIMES = (-5.0, -1.0, 0.3, 1.0, 5.0, 1e3, -1e3, 1e9)
ROUNDTRIP_SLICE = 3  # index into SMOOTH_TIMES of the slice read back
WAVE_MODE = 2
RECON_SLICES = 17
RECON_POINTS = 257
FV_LADDER = (256, 512, 1024, 2048, 4096, 8192)
FV_TIME = 1.0
THM1_MODES = (8, 16, 32, 64)
THM1_LATTICE = 513


# -- failure accounting ------------------------------------------------------


@dataclass
class Ledger:
    """Attempted and failed ops of one run.

    `raised` holds ops that raised; `wrong` holds ops whose output missed its
    check.  `corrupt` maps an op name to a function applied to that op's
    output before the check; only the benchmark self-test sets it.
    """

    attempted: int = 0
    raised: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    corrupt: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.raised) + len(self.wrong)

    def run(self, name: str, fn, check):
        self.attempted += 1
        try:
            out = fn()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            self.raised.append((name, f"{type(exc).__name__}: {exc}"))
            return None
        if name in self.corrupt:
            out = self.corrupt[name](out)
        ok, detail = check(out)
        if not ok:
            self.wrong.append((name, detail))
        return out


# -- checks ------------------------------------------------------------------


def check_completion(rep: dict):
    """The CLI's five completion checks plus criteria 4 and 5."""
    ids = rep["identities"]
    worst_id = max(ids["residual_h"], ids["residual_q"], ids["residual_yz"])
    verdicts = {
        "slope_in_band": SLOPE_BAND[0] <= rep["slope"] <= SLOPE_BAND[1],
        "uniform_in_time": rep["uniformity_ratio"] < UNIFORMITY_MAX,
        "identities": bool(ids["pass"]) and worst_id <= IDENTITY_TOL,
        "oscillated_relativistic": bool(rep["oscillated_all_in_M_cap_G"]),
        "limit_is_nonrelativistic_generalized_string":
            bool(rep["limit_is_nonrelativistic_generalized_string"]),
        "limit_in_hull_not_manifold": bool(rep["limit_in_CM_cap_G"]) and not rep["limit_in_M"],
    }
    bad = [k for k, ok in verdicts.items() if not ok]
    return not bad, (f"failed {bad}; slope {rep['slope']:.3f}, uniformity "
                     f"{rep['uniformity_ratio']:.2f}, identity residual {worst_id:.2e}")


def check_drift(sol):
    U = sol.state()
    drift = max(float(np.max(np.abs(U.sum_squares() - 1.0))), float(np.max(np.abs(U.cross()))))
    return drift <= DRIFT_TOL, f"manifold drift {drift:.2e} (tol {DRIFT_TOL:g})"


def check_same_bytes(pairs):
    same = all(filecmp.cmp(a, b, shallow=False) for a, b in pairs)
    return same, "snapshot round trip byte-identical" if same else "snapshot round trip differs"


def check_reconstruction(pairs):
    worst = max(float(np.max(np.abs(x - ref))) for x, ref in pairs)
    return worst < RECONSTRUCTION_TOL, f"max |X - d'Alembert X| {worst:.2e} (tol {RECONSTRUCTION_TOL:g})"


def check_fv_ladder(errs):
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = all(o >= FV_ORDER_MIN for o in orders) and all(np.diff(errs) < 0)
    return ok, f"L1 orders {['%.3f' % o for o in orders]} (>= {FV_ORDER_MIN})"


def check_thm1(sups):
    ratios = [sups[i] / sups[i + 1] for i in range(len(sups) - 1)]
    ok = all(THM1_BAND[0] <= r <= THM1_BAND[1] for r in ratios)
    return ok, f"sup-error ratios {['%.3f' % r for r in ratios]} (band {list(THM1_BAND)})"


def check_validation(rep: dict):
    bad = [r["name"] for r in rep["results"] if not r["pass"]]
    return bool(rep["pass"]) and not bad, f"failed checks {bad}" if bad else "all checks pass"


# -- seeded inputs -----------------------------------------------------------


def _rng(seed: int, salt: int):
    return np.random.default_rng([seed, salt])


def _manifold_kw(rng) -> dict:
    """Amplitude, mean and swing of the smooth manifold generator."""
    return {"mid": 0.62 + rng.uniform(-0.02, 0.02), "amp": 0.1 * rng.uniform(0.8, 1.2),
            "swing": 0.25 * rng.uniform(0.8, 1.2)}


def completion_inputs(seed: int) -> dict:
    """The gate's base and family, translated together by a seeded phase.

    The gate's uniformity (< 3) and slope checks sit close to their band
    edges on this base: changing its amplitude, its phase against the test
    family or the evaluation times fails them.  A common translation of base
    and family leaves the experiment invariant, so every seed passes.
    """
    base = datasets.subrelativistic_wave_base(cells=101)
    if seed != 0:
        phase = _rng(seed, 1).uniform(-1.0, 1.0)
        base = profiles.Profile(base.s0 + phase, base.ds, base.tau, base.v, base.eta,
                                base.zeta, base.boundary, base.rough)
    family = weak.default_family(base.s0, base.s0 + base.period)
    return {"base": base, "family": family, "n_list": list(COMPLETION_N),
            "times": list(COMPLETION_TIMES)}


def smooth_inputs(seed: int) -> dict:
    recon_times = np.linspace(-math.pi, math.pi, RECON_SLICES)
    if seed == 0:
        kw, times = {}, list(SMOOTH_TIMES)
    else:
        rng = _rng(seed, 2)
        kw = _manifold_kw(rng)
        # the t = 1e9 slice stays exact: it is the large-|t| probe
        times = [t if abs(t) >= 1e9 else t * rng.uniform(0.9, 1.1) for t in SMOOTH_TIMES]
        step = TWO_PI / (RECON_SLICES - 1)
        recon_times[1:-1] += rng.uniform(-0.25, 0.25, RECON_SLICES - 2) * step
    wave = waves.oscillatory_family_init(WAVE_MODE, n=SMOOTH_N)
    return {
        "profile": datasets.smooth_manifold_profile(n=SMOOTH_N, d=3, **kw),
        "times": times,
        "wave": wave,
        "wave_profile": waves.wave_to_augmented(wave),
        "recon_times": recon_times,
        # s = 0 stays a grid node: X(0, 0) = 0 anchors the reconstruction
        "recon_s": np.linspace(-math.pi, math.pi, RECON_POINTS),
    }


def cross_inputs(seed: int) -> dict:
    if seed == 0:
        kw, lattice_shift = {}, 0.0
    else:
        rng = _rng(seed, 3)
        kw = _manifold_kw(rng)
        lattice_shift = rng.uniform(-0.5, 0.5) * (2.0 * TWO_PI / (THM1_LATTICE - 1))
    lattice = np.linspace(-TWO_PI, TWO_PI, THM1_LATTICE) + lattice_shift
    return {
        "ladder": [datasets.smooth_manifold_profile(n=n, d=3, **kw) for n in FV_LADDER],
        "thm1_inits": [waves.oscillatory_family_init(m) for m in THM1_MODES],
        "lattice": lattice,
        "seed": seed,
    }


# -- passes --------------------------------------------------------------------


def completion_pass(inp: dict, ledger: Ledger, workdir: str) -> None:
    ledger.run("completion", lambda: weak.completion_experiment(
        inp["base"], inp["n_list"], inp["times"], family=inp["family"], m=64,
        identity_tol=IDENTITY_TOL, compare_layouts=True), check_completion)


def smooth_pass(inp: dict, ledger: Ledger, workdir: str) -> None:
    # built inside the first solve op, so a failed build fails the ops that need it
    flow = functools.cache(lambda: characteristics.build_flow(inp["profile"]))
    paths = [os.path.join(workdir, f"state_{k}.csv") for k in range(len(inp["times"]))]

    def solve(k, t):
        sol = characteristics.solve_augmented(flow(), t)
        profiles.write_snapshot(paths[k], sol, {"t": t})
        return sol

    for k, t in enumerate(inp["times"]):
        ledger.run(f"solve t={t:g}", lambda k=k, t=t: solve(k, t), check_drift)

    def roundtrip():
        src = paths[ROUNDTRIP_SLICE]
        again = os.path.join(workdir, "roundtrip.csv")
        prof, meta = profiles.read_snapshot(src)
        profiles.write_snapshot(again, prof, meta)
        return [(src, again), (src + ".meta.json", again + ".meta.json")]

    ledger.run("snapshot round trip", roundtrip, check_same_bytes)

    def reconstruct():
        wflow = characteristics.build_flow(inp["wave_profile"])
        s_pts = inp["recon_s"]
        graphs = characteristics.reconstruct_string(wflow, inp["recon_times"], s_pts)
        return [(g.X, waves.dalembert_wave_solve(inp["wave"], g.t, s_pts).X) for g in graphs]

    ledger.run("reconstruct string", reconstruct, check_reconstruction)


def cross_pass(inp: dict, ledger: Ledger, workdir: str) -> None:
    def fv_ladder():
        errs = []
        for p in inp["ladder"]:
            st, _ = finite_volume.advance(finite_volume.from_profile(p), FV_TIME)
            exact = characteristics.solve_augmented(p, FV_TIME).to_hqyz()
            errs.append(float((np.sum(np.abs(st.Y - exact.Y))
                               + np.sum(np.abs(st.Z - exact.Z))) * st.ds))
        return errs

    def thm1():
        lattice = inp["lattice"]
        sups = []
        for init in inp["thm1_inits"]:
            worst = 0.0
            for t in lattice:
                g = waves.dalembert_wave_solve(init, float(t), lattice)
                lim = waves.oscillatory_limit_solution(float(t), lattice)
                worst = max(worst, float(np.max(np.linalg.norm(g.X - lim, axis=-1))))
            sups.append(worst)
        return sups

    ledger.run("fv ladder", fv_ladder, check_fv_ladder)
    ledger.run("thm1 table", thm1, check_thm1)
    ledger.run("validation", lambda: validate.run_validation(seed=inp["seed"]), check_validation)


WORKLOADS = {
    "completion": (completion_inputs, completion_pass),
    "smooth_solve": (smooth_inputs, smooth_pass),
    "cross_check": (cross_inputs, cross_pass),
}
