"""Batch command-line front end.

    stringlab simulate   --config cfg.json [--out DIR]             exact + finite-volume run
    stringlab thm1       --config cfg.json [--out DIR]             oscillatory-family rate table
    stringlab completion --config cfg.json [--out DIR]             weak-* completion experiment
    stringlab validate   [--out DIR] [--seed N] [--inject NAME]    invariant battery

A config is a JSON object.  Each value must have its key's JSON type: a
number where a number is read, an integer >= 1 for a size (>= 2 for a
mode), true or false for a switch; no value is converted from another
type.  Exit codes: 0 success, 1 validation failure, 2 bad input or
configuration (a ValueError; a config error names its key or file), 3
internal error (any other exception, with its traceback unless a
RuntimeError: a fault of the program, such as an inversion that misses its
residual bound, never of the input).  All artifacts are deterministic for a fixed seed: CSV files use
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
from .finite_volume import CFL, advance, from_profile, max_signal_speed
from .geometry import in_cm, in_g, in_m
from .profiles import _bool, _count, _float, _list, _mode, _number, _str, fmt17, read_snapshot, write_snapshot
from .validate import run_validation
from .waves import dalembert_wave_solve, oscillatory_family_init, oscillatory_limit_solution, wave_to_augmented
from .weak import completion_experiment


class ConfigError(ValueError):
    pass


# the most steps `simulate` lets its finite-volume cross-check take
_FV_MAX_STEPS = 10**6
# the most (t, s) lattice points `thm1` evaluates in one call
_THM1_BLOCK_POINTS = 2**16


def load_config(path: str) -> dict:
    """The JSON object in the file; ConfigError naming the file when it cannot
    be read, is not JSON or holds anything but an object at the top level."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for a binary file
        raise ConfigError(f"invalid JSON config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def _get(cfg: dict, key: str, cast, default=None):
    """cast(value) of the dotted config key, or of the default when the key is absent.

    Raises ConfigError naming the key when it is absent and the default is
    None, or when the cast raises TypeError, ValueError or OverflowError.
    """
    value, parts = cfg, key.split(".")
    for i, part in enumerate(parts):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {'.'.join(parts[:i])!r} must be an object, got {value!r}")
        if part not in value:
            if default is None:
                raise ConfigError(f"missing config key {key!r}")
            value = default
            break
        value = value[part]
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} = {value!r}: {exc}") from exc


def _build_initial(cfg: dict, n: int | None = None):
    """The initial profile of a `simulate` config, on grid.n points unless n is given."""
    if n is None:
        n = _get(cfg, "grid.n", _count, 4096)
    s0 = _get(cfg, "grid.s0", _float, -2.0 * np.pi)
    period = _get(cfg, "grid.period", _float, 4.0 * np.pi)
    kind = _get(cfg, "initial.kind", _str)
    if kind == "smooth_m":
        return datasets.smooth_manifold_profile(
            n=n, d=_get(cfg, "initial.d", _count, 3), s0=s0, period=period,
            mid=_get(cfg, "initial.mid", _float, 0.62), amp=_get(cfg, "initial.amp", _float, 0.1),
            swing=_get(cfg, "initial.swing", _float, 0.25))
    if kind == "smooth_hull":
        return datasets.smooth_hull_profile(
            n=n, d=_get(cfg, "initial.d", _count, 3), s0=s0, period=period,
            hull_factor=_get(cfg, "initial.hull_factor", _float, 0.8))
    if kind == "thm1_wave":
        mode = _get(cfg, "initial.mode", _mode, 4)
        return wave_to_augmented(oscillatory_family_init(mode, s0=s0, n=n, period=period))
    if kind == "constant":
        return datasets.constant_profile(
            _get(cfg, "initial.tau", _float), _get(cfg, "initial.v", _float, 0.0),
            _get(cfg, "initial.eta", _list(_float), [0.0, 0.0, 0.0]),
            _get(cfg, "initial.zeta", _list(_float), [0.0, 0.0, 0.0]),
            n=n, s0=s0, period=period)
    if kind == "csv":
        path = _get(cfg, "initial.path", _str)
        profile, _ = read_snapshot(path)
        if profile.rough:  # sampled, an evolved rough field would lose its cells
            raise ConfigError(f"initial.path = {path!r} holds rough data, which evolve with evolve_cells")
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

    Raises ConfigError naming cross_check_fv.refinements unless it holds at
    least two sizes, and naming cross_check_fv.t (by default the last of the
    times) unless it is finite, positive and at most _FV_MAX_STEPS steps of
    `advance` (CFL number `CFL`) away at the finest refinement, by the initial
    data's `max_signal_speed`.
    """
    t_fv = _get(cfg, "cross_check_fv.t", _float, times[-1])
    if not 0.0 < t_fv < np.inf:
        raise ConfigError(f"cross_check_fv.t = {t_fv!r} must be finite and positive")
    refinements = _get(cfg, "cross_check_fv.refinements", _list(_count), [256, 512])
    if len(refinements) < 2:  # one error measures no order
        raise ConfigError(f"cross_check_fv.refinements = {refinements} must hold at least two "
                          "grid sizes")
    profiles = [_build_initial(cfg, n) for n in refinements]
    finest = from_profile(max(profiles, key=lambda p: p.n))
    steps = t_fv * max_signal_speed(finest.Y, finest.Z) / (CFL * finest.ds)
    if steps > _FV_MAX_STEPS:
        raise ConfigError(f"cross_check_fv.t = {t_fv!r} needs about {steps:.3g} finite-volume "
                          f"steps at n = {finest.n}, more than {_FV_MAX_STEPS}")
    return t_fv, profiles


def cmd_simulate(cfg: dict, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    profile = _build_initial(cfg)
    times = _get(cfg, "times", _list(_float), [0.3, 1.0])
    if not times:
        raise ConfigError("times = [] must hold at least one time")
    fv_on = _get(cfg, "cross_check_fv.enabled", _bool, True)
    csv = _get(cfg, "initial.kind", _str) == "csv"
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
    on_m = bool(np.all(in_m(profile.state(), 1e-8)))
    # centered-in-time residual of the augmented system around each snapshot
    dt_fd, res_max = 1e-3, 0.0
    results = []
    for t in times:
        sol = solve_augmented(flow, t)
        stack = [solve_augmented(flow, t - dt_fd), sol, solve_augmented(flow, t + dt_fd)]
        res_max = max(res_max, residual_augmented(stack, dt_fd)["max_abs"])
        write_snapshot(os.path.join(out_dir, f"state_t{t:+.3f}.csv"), sol, dict(meta, t=t))
        U = sol.state()
        drift = max(float(np.max(np.abs(U.sum_squares() - 1.0))), float(np.max(np.abs(U.cross())))) \
            if on_m else None
        ok = bool(np.all(in_cm(U, mtol) & in_g(U, win.alpha, win.delta, mtol)))
        results.append({
            "name": f"membership_t{t:g}",
            "in_CM_cap_G": ok,
            "manifold_drift": drift,
            "pass": ok,
        })
    results.append({"name": "residual_augmented", "value": res_max, "pass": res_max <= 1e-2})

    if fv_on and csv:
        results.append({"name": "fv_cross_check", "skipped": True, "pass": True,
                        "reason": "csv initial data cannot be resampled for refinement"})
    elif fv_on:
        errs = []
        for pN in fv_profiles:
            stN, _ = advance(from_profile(pN), t_fv)
            exact = solve_augmented(pN, t_fv).to_hqyz()
            errs.append(float((np.sum(np.abs(stN.Y - exact.Y)) + np.sum(np.abs(stN.Z - exact.Z))) * stN.ds))
        orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
        results.append({"name": "fv_cross_check", "l1_errors": errs, "orders": orders,
                        "pass": all(o >= 0.8 for o in orders)})

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
    n_list = _get(cfg, "n_list", _list(_mode))
    if len(n_list) < 2:  # one mode gives no ratio
        raise ConfigError(f"n_list = {n_list} must hold at least two modes")
    nt = _get(cfg, "grid.t_samples", _count, 513)
    ns = _get(cfg, "grid.s_samples", _count, 513)
    tt = np.linspace(-2 * np.pi, 2 * np.pi, nt)[:, None]
    ss = np.linspace(-2 * np.pi, 2 * np.pi, ns)
    step = max(1, _THM1_BLOCK_POINTS // ns)
    blocks = [tt[i:i + step] for i in range(0, nt, step)]  # the times of one wave solve each
    sup_errors = []
    for mode in n_list:
        init = oscillatory_family_init(mode)
        gaps = (dalembert_wave_solve(init, t, ss).X - oscillatory_limit_solution(t, ss) for t in blocks)
        sup_errors.append(max(float(np.max(np.linalg.norm(g, axis=-1))) for g in gaps))
    ratios = [sup_errors[i] / sup_errors[i + 1] for i in range(len(sup_errors) - 1)]
    rows = [[mode, err, ratio] for mode, err, ratio in zip(n_list, sup_errors, [""] + ratios)]
    _write_csv(out_dir, "thm1_rates.csv", ["n", "sup_error", "ratio"], rows)
    lo, hi = 1.6, 2.4  # the pass band of each halving ratio
    ok = all(lo <= r <= hi for r in ratios)
    report = {
        "experiment": "thm1",
        "params": {"n_list": n_list, "t_samples": nt, "s_samples": ns},
        "results": [{"name": "sup_errors", "values": sup_errors},
                    {"name": "ratios", "values": ratios, "pass": ok}],
        "pass": ok,
    }
    _write_report(out_dir, "thm1_report.json", report)
    return report


def cmd_completion(cfg: dict, out_dir: str) -> dict:
    base_kind = _get(cfg, "base", _str, "subrel_wave")
    cells = _get(cfg, "base_cells", _count, 101)
    if base_kind == "subrel_wave":
        base = datasets.subrelativistic_wave_base(cells=cells)
    elif base_kind == "smooth_cm":
        base = datasets.rough_hull_base(cells=cells, d=_get(cfg, "d", _count, 3),
                                        hull_factor=_get(cfg, "hull_factor", _float, 0.8))
    elif base_kind == "manifold":
        base = datasets.rough_manifold_base(cells=cells, d=_get(cfg, "d", _count, 3))
    else:
        raise ConfigError(f"unknown completion base {base_kind!r}")
    n_list = _get(cfg, "n_list", _list(_number), [8, 16, 32, 64, 128])
    times = _get(cfg, "times", _list(_float), [0.0, 0.5, 1.0, 1.5, 2.0])
    report = completion_experiment(
        base, n_list, times, m=_get(cfg, "samples_per_cell", _count, 64), compare_layouts=True)

    rows = [[nv, g_id, t, report["per_tg_gaps"][i][j][k]] for i, nv in enumerate(report["n_values"])
            for k, g_id in enumerate(report["family"]) for j, t in enumerate(report["times"])]
    _write_csv(out_dir, "completion_gaps.csv", ["n", "g_id", "t", "pairing_gap"], rows)

    # a tiling of manifold data is the data: every gap is exactly 0, and there is no slope
    rate, rate_ok = ("gaps_exactly_zero", not any(report["gaps"])) if base_kind == "manifold" else \
        ("slope_in_band", report["slope"] is not None and 0.8 <= report["slope"] <= 1.3)
    checks = {
        rate: rate_ok,
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
