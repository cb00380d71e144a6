"""Batch command-line front end.

    stringlab simulate   --config cfg.json [--out DIR]             exact + finite-volume run
    stringlab thm1       --config cfg.json [--out DIR]             oscillatory-family rate table
    stringlab completion --config cfg.json [--out DIR]             weak-* completion experiment
    stringlab validate   [--out DIR] [--seed N] [--inject NAME]    invariant battery

Configs are JSON, or flat `key = value` text with dotted keys for nesting
(`grid.n = 4096`).  Exit codes: 0 success, 1 validation failure, 2 bad
input or configuration (a ValueError), 3 internal error (any other
exception, with its traceback unless a RuntimeError: a fault of the
program, such as an inversion that misses its residual bound, never of the
input).  All artifacts are deterministic for a fixed seed: CSV files use
17-significant-digit floats and LF endings, JSON reports are key-sorted,
and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import numpy as np

from . import datasets
from .characteristics import admissibility, build_flow, residual_augmented, solve_augmented
from .finite_volume import advance, from_profile, max_signal_speed
from .geometry import in_cm, in_g, in_m
from .profiles import fmt17, read_snapshot, write_snapshot
from .validate import run_validation
from .waves import dalembert_wave_solve, oscillatory_family_init, oscillatory_limit_solution, wave_to_augmented
from .weak import completion_experiment


class ConfigError(ValueError):
    pass


# the most steps `simulate` lets its finite-volume cross-check take
_FV_MAX_STEPS = 10**6


def _parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("null", "none"):
        return None
    if t.startswith("["):
        return json.loads(t)
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    return t.strip("\"'")


def load_config(path: str) -> dict:
    """JSON, or `key = value` lines with dotted-key nesting and # comments."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        node = cfg
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = _parse_scalar(value)
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _build_initial(cfg: dict):
    grid = cfg.get("grid", {})
    n = int(grid.get("n", 4096))
    s0 = float(grid.get("s0", -2.0 * np.pi))
    period = float(grid.get("period", 4.0 * np.pi))
    init = _require(cfg, "initial")
    if not isinstance(init, dict) or "kind" not in init:
        raise ConfigError(f"initial must be an object with a 'kind', got {init!r}")
    kind = init["kind"]
    if kind == "smooth_m":
        return datasets.smooth_manifold_profile(
            n=n, d=int(init.get("d", 3)), s0=s0, period=period,
            mid=float(init.get("mid", 0.62)), amp=float(init.get("amp", 0.1)),
            swing=float(init.get("swing", 0.25)))
    if kind == "smooth_hull":
        return datasets.smooth_hull_profile(
            n=n, d=int(init.get("d", 3)), s0=s0, period=period,
            hull_factor=float(init.get("hull_factor", 0.8)))
    if kind == "thm1_wave":
        mode = int(init.get("mode", 4))
        return wave_to_augmented(oscillatory_family_init(mode, s0=s0, n=n, period=period))
    if kind == "constant":
        return datasets.constant_profile(
            float(_require(init, "tau")), float(init.get("v", 0.0)),
            init.get("eta", [0.0, 0.0, 0.0]), init.get("zeta", [0.0, 0.0, 0.0]),
            n=n, s0=s0, period=period)
    if kind == "csv":
        profile, _ = read_snapshot(_require(init, "path"))
        return profile
    raise ConfigError(f"unknown initial kind {kind!r}")


def _write_report(out_dir: str, name: str, report: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else fmt17(x) for x in row) + "\n")
    return path


def _fv_inputs(cfg: dict, times: list) -> tuple[float, list]:
    """The time of the finite-volume cross-check and its initial profiles, one per refinement.

    Raises ConfigError naming cross_check_fv.t (by default the last of the
    times) unless it is finite, positive and at most _FV_MAX_STEPS steps of
    `advance` (CFL number 0.9) away at the finest refinement, by the initial
    data's `max_signal_speed`.
    """
    fv_cfg = cfg.get("cross_check_fv", {})
    t_fv = float(fv_cfg.get("t", times[-1] if times else 1.0))
    if not 0.0 < t_fv < np.inf:
        raise ConfigError(f"cross_check_fv.t = {t_fv!r} must be finite and positive")
    profiles = [_build_initial(dict(cfg, grid=dict(cfg.get("grid", {}), n=int(n))))
                for n in fv_cfg.get("refinements", [256, 512])]
    if profiles:
        finest = from_profile(max(profiles, key=lambda p: p.n))
        steps = t_fv * max_signal_speed(finest.Y, finest.Z) / (0.9 * finest.ds)
        if steps > _FV_MAX_STEPS:
            raise ConfigError(f"cross_check_fv.t = {t_fv!r} needs about {steps:.3g} finite-volume "
                              f"steps at n = {finest.n}, more than {_FV_MAX_STEPS}")
    return t_fv, profiles


def cmd_simulate(cfg: dict, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    profile = _build_initial(cfg)
    times = [float(t) for t in cfg.get("times", [0.3, 1.0])]
    fv_on = cfg.get("cross_check_fv", {}).get("enabled", True)
    csv = cfg["initial"]["kind"] == "csv"
    if fv_on and not csv:  # checked before any solve
        t_fv, fv_profiles = _fv_inputs(cfg, times)
    win = admissibility(profile)
    flow = build_flow(profile, win.alpha, win.delta)
    # evolved states carry interpolation error on top of the exact transport
    mtol = 1e-6
    meta = {
        "alpha": win.alpha, "delta": win.delta,
        "tolerances": {"membership": mtol},
    }
    results = []
    for t in times:
        sol = solve_augmented(flow, t)
        write_snapshot(os.path.join(out_dir, f"state_t{t:+.3f}.csv"), sol, dict(meta, t=t))
        U = sol.state()
        drift = max(float(np.max(np.abs(U.sum_squares() - 1.0))), float(np.max(np.abs(U.cross())))) \
            if bool(np.all(in_m(profile.state(), 1e-8))) else float("nan")
        ok = bool(np.all(in_cm(U, mtol) & in_g(U, win.alpha, win.delta, mtol)))
        results.append({
            "name": f"membership_t{t:g}",
            "in_CM_cap_G": ok,
            "manifold_drift": None if np.isnan(drift) else drift,
            "pass": ok,
        })

    # centered-in-time residual of the augmented system around each snapshot
    # (discrete differencing is meaningless on piecewise-constant data)
    if not profile.rough:
        dt_fd = 1e-3
        res_max = 0.0
        for t in times:
            stack = [solve_augmented(flow, t - dt_fd), solve_augmented(flow, t),
                     solve_augmented(flow, t + dt_fd)]
            res_max = max(res_max, residual_augmented(stack, dt_fd)["max_abs"])
        results.append({"name": "residual_augmented", "value": res_max,
                        "pass": res_max <= 1e-2})

    if fv_on and csv:
        results.append({"name": "fv_cross_check", "skipped": True, "pass": True,
                        "reason": "csv initial data cannot be resampled for refinement"})
    elif fv_on:
        errs = []
        for pN in fv_profiles:
            stN, _ = advance(from_profile(pN), t_fv)
            exact = solve_augmented(pN, t_fv).to_hqyz()
            err = float((np.sum(np.abs(stN.Y - exact.Y)) + np.sum(np.abs(stN.Z - exact.Z))) * stN.ds)
            errs.append(err)
        orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
        results.append({"name": "fv_cross_check", "l1_errors": errs, "orders": orders,
                        "pass": all(o >= 0.8 for o in orders) if orders else True})

    report = {
        "experiment": "simulate",
        "params": {"alpha": win.alpha, "delta": win.delta, "times": times,
                   "grid": {"s0": profile.s0, "ds": profile.ds, "n": profile.n,
                            "d": profile.d, "boundary": profile.boundary}},
        "results": results,
        "pass": all(r["pass"] for r in results),
    }
    _write_report(out_dir, "simulate_report.json", report)
    return report


def cmd_thm1(cfg: dict, out_dir: str) -> dict:
    n_list = cfg.get("n_list")
    if not n_list:
        raise ConfigError("thm1 needs a nonempty 'n_list'")
    grid = cfg.get("grid", {})
    nt = int(grid.get("t_samples", 513))
    ns = int(grid.get("s_samples", 513))
    tt = np.linspace(-2 * np.pi, 2 * np.pi, nt)
    ss = np.linspace(-2 * np.pi, 2 * np.pi, ns)
    sup_errors = []
    for mode in n_list:
        init = oscillatory_family_init(int(mode))
        worst = 0.0
        for t in tt:
            g = dalembert_wave_solve(init, float(t), ss)
            lim = oscillatory_limit_solution(float(t), ss)
            worst = max(worst, float(np.max(np.linalg.norm(g.X - lim, axis=-1))))
        sup_errors.append(worst)
    ratios = [sup_errors[i] / sup_errors[i + 1] for i in range(len(sup_errors) - 1)]
    rows = []
    for i, mode in enumerate(n_list):
        rows.append([mode, sup_errors[i], ratios[i - 1] if i > 0 else ""])
    _write_csv(out_dir, "thm1_rates.csv", ["n", "sup_error", "ratio"], rows)
    lo, hi = 1.6, 2.4  # the pass band of each halving ratio
    report = {
        "experiment": "thm1",
        "params": {"n_list": [int(m) for m in n_list], "t_samples": nt, "s_samples": ns},
        "results": [{"name": "sup_errors", "values": sup_errors},
                    {"name": "ratios", "values": ratios,
                     "pass": all(lo <= r <= hi for r in ratios)}],
        "pass": all(lo <= r <= hi for r in ratios) if ratios else True,
    }
    _write_report(out_dir, "thm1_report.json", report)
    return report


def cmd_completion(cfg: dict, out_dir: str) -> dict:
    base_kind = cfg.get("base", "subrel_wave")
    cells = int(cfg.get("base_cells", 101))
    if base_kind == "subrel_wave":
        base = datasets.subrelativistic_wave_base(cells=cells)
    elif base_kind == "smooth_cm":
        base = datasets.rough_hull_base(cells=cells, d=int(cfg.get("d", 3)),
                                        hull_factor=float(cfg.get("hull_factor", 0.8)))
    elif base_kind == "manifold":
        base = datasets.rough_manifold_base(cells=cells, d=int(cfg.get("d", 3)))
    else:
        raise ConfigError(f"unknown completion base {base_kind!r}")
    n_list = cfg.get("n_list", [8, 16, 32, 64, 128])
    times = [float(t) for t in cfg.get("times", [0.0, 0.5, 1.0, 1.5, 2.0])]
    report = completion_experiment(
        base, n_list, times, m=int(cfg.get("samples_per_cell", 64)), compare_layouts=True)

    rows = []
    for i, nv in enumerate(report["n_values"]):
        for k, g_id in enumerate(report["family"]):
            for j, t in enumerate(report["times"]):
                rows.append([nv, g_id, t, report["per_tg_gaps"][i][j][k]])
    _write_csv(out_dir, "completion_gaps.csv", ["n", "g_id", "t", "pairing_gap"], rows)

    slope_ok = report["slope"] is not None and 0.8 <= report["slope"] <= 1.3
    checks = {
        "slope_in_band": slope_ok,
        "uniform_in_time": report["uniformity_ratio"] < 3.0,
        "identities": report["identities"]["pass"],
        "oscillated_relativistic": report["oscillated_all_in_M_cap_G"],
        "limit_is_nonrelativistic_generalized_string":
            report["limit_is_nonrelativistic_generalized_string"] == (base_kind != "manifold"),
    }
    out = {
        "experiment": "completion",
        "params": {"base": base_kind, "base_cells": cells,
                   "n_list": [float(x) for x in report["n_values"]], "times": times},
        "results": [dict({"name": k, "pass": bool(v)}) for k, v in checks.items()] + [report],
        "pass": all(checks.values()),
    }
    _write_report(out_dir, "completion_report.json", out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="stringlab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("simulate", "thm1", "completion"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
    pv = sub.add_parser("validate")
    pv.add_argument("--out", default="out")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--inject", default=None,
                    help="force the named invariant check to fail (harness self-test)")
    args = ap.parse_args(argv)

    try:
        if args.command == "validate":
            report = run_validation(seed=args.seed, inject=args.inject)
            _write_report(args.out, "validate_report.json", report)
        else:
            cmd = {"simulate": cmd_simulate, "thm1": cmd_thm1, "completion": cmd_completion}
            report = cmd[args.command](load_config(args.config), args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {str(exc).removeprefix('internal error: ')}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"experiment": report["experiment"], "pass": report["pass"]},
                     sort_keys=True))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
