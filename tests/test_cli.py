import json
import os

import numpy as np
import pytest

from stringlab import cli, datasets, waves
from stringlab.cli import ConfigError, load_config, main
from stringlab.profiles import Profile, read_snapshot, write_snapshot
from stringlab.validate import run_validation


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def test_load_config_reads_a_json_object_only(tmp_path):
    p1 = write_json(tmp_path / "a.json", {"grid": {"n": 128}, "seed": 3})
    cfg = load_config(p1)
    assert cfg["grid"]["n"] == 128 and cfg["seed"] == 3
    for name, text, message in [
        ("b.cfg", "grid.n = 256\n", "invalid JSON config "),
        ("c.json", '{"grid": {"n": 256}', "invalid JSON config "),
        ("d.json", "[1, 2]", "must hold a JSON object, got list"),
        ("e.json", '"grid.n"', "must hold a JSON object, got str"),
    ]:
        (tmp_path / name).write_text(text)
        with pytest.raises(ConfigError, match=message) as exc:
            load_config(str(tmp_path / name))
        assert name in str(exc.value)
    with pytest.raises(ConfigError, match="cannot read config .*missing.json: No such file"):
        load_config(str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError, match="cannot read config "):
        load_config(str(tmp_path))


def test_config_casts_read_every_accepted_value_as_before():
    # a float key takes an integer, a size an integral float, and completion's
    # n_list keeps its entries as given
    times = cli._get({"times": [1, 2]}, "times", cli._list(cli._float))
    assert times == [1.0, 2.0] and all(type(t) is float for t in times)
    n = cli._get({"grid": {"n": 256.0}}, "grid.n", cli._count)
    assert n == 256 and type(n) is int
    assert cli._get({}, "grid.n", cli._count, 4096) == 4096
    n_list = cli._get({"n_list": [8, 16.5]}, "n_list", cli._list(cli._number))
    assert n_list == [8, 16.5] and type(n_list[0]) is int
    assert cli._get({"on": False}, "on", cli._bool, True) is False
    assert cli._get({"base": "manifold"}, "base", cli._str) == "manifold"


def test_simulate_command(tmp_path):
    cfg = write_json(tmp_path / "sim.json", {
        "initial": {"kind": "smooth_m", "d": 3},
        "grid": {"n": 1024},
        "times": [0.3, 1.0],
        "cross_check_fv": {"enabled": True, "refinements": [128, 256], "t": 1.0},
    })
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "simulate_report.json")))
    assert report["pass"]
    snap, meta = read_snapshot(os.path.join(out, "state_t+0.300.csv"))
    assert snap.n == 1024 and "alpha" in meta and "delta" in meta
    fv = [r for r in report["results"] if r["name"] == "fv_cross_check"][0]
    assert all(o >= 0.8 for o in fv["orders"])


@pytest.mark.parametrize("times, fv, message", [
    ([0.3, -1.0], {}, "cross_check_fv.t = -1.0 must be finite and positive"),
    ([0.3], {"t": 0.0}, "cross_check_fv.t = 0.0 must be finite and positive"),
    ([0.3], {"t": float("nan")}, "cross_check_fv.t = nan must be finite and positive"),
    ([0.3, 1e9], {}, "cross_check_fv.t = 1000000000.0 needs about 1.63e+10 finite-volume "
                     "steps at n = 256, more than 1000000"),
], ids=["negative", "zero", "nan", "too_many_steps"])
def test_simulate_rejects_a_cross_check_time_before_any_solve(tmp_path, monkeypatch, capsys,
                                                              times, fv, message):
    # the finite-volume march only runs forward: at a time <= 0 it would compare
    # the initial state with the exact one at t, and t = 1e9 needs about 1e10 steps
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the cross-check time was checked")

    monkeypatch.setattr("stringlab.cli.solve_augmented", unreachable)
    monkeypatch.setattr("stringlab.cli.advance", unreachable)
    cfg = write_json(tmp_path / "sim.json", {
        "initial": {"kind": "smooth_m"}, "grid": {"n": 256}, "times": times,
        "cross_check_fv": dict(fv, refinements=[128, 256]),
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_simulate_solves_each_time_once_per_stencil_point(tmp_path, monkeypatch):
    # a snapshot is the middle of its residual stack: two times, three solves each
    solved, cli_solve = [], cli.solve_augmented

    def counted(flow, t, *args):
        solved.append(t)
        return cli_solve(flow, t, *args)

    monkeypatch.setattr("stringlab.cli.solve_augmented", counted)
    cfg = write_json(tmp_path / "sim.json", {
        "initial": {"kind": "smooth_m", "d": 3}, "grid": {"n": 1024}, "times": [0.3, 1.0],
        "cross_check_fv": {"enabled": False},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert solved == [0.3, 0.3 - 1e-3, 0.3 + 1e-3, 1.0, 1.0 - 1e-3, 1.0 + 1e-3]


SIM = {"initial": {"kind": "smooth_m"}}


@pytest.mark.parametrize("command, cfg, message", [
    ("simulate", dict(SIM, grid={"n": [256]}), "config key 'grid.n' = [256]: expected a number"),
    ("thm1", {"n_list": 8}, "config key 'n_list' = 8: expected an array"),
    ("completion", {"samples_per_cell": [64]}, "config key 'samples_per_cell' = [64]: expected a number"),
    ("simulate", dict(SIM, times="ab"), "config key 'times' = 'ab': expected an array"),
    # values that a coercing reader read as some other value
    ("simulate", dict(SIM, cross_check_fv={"enabled": "false"}),
     "config key 'cross_check_fv.enabled' = 'false': expected true or false"),
    ("simulate", dict(SIM, grid={"n": True}), "config key 'grid.n' = True: expected a number"),
    ("simulate", dict(SIM, grid={"n": 256.9}), "config key 'grid.n' = 256.9: expected an integer >= 1"),
    ("simulate", dict(SIM, times=[True]), "config key 'times' = [True]: expected a number"),
    ("simulate", dict(SIM, times=[10**400]), "config key 'times' = [1000"),
    ("thm1", {"n_list": [8.5, 16]}, "config key 'n_list' = [8.5, 16]: expected an integer >= 2"),
    ("completion", {"n_list": "ab"}, "config key 'n_list' = 'ab': expected an array"),
    ("completion", {"n_list": [True, 16]}, "config key 'n_list' = [True, 16]: expected a number"),
    ("thm1", [1, 2], "c.json must hold a JSON object, got list"),
    # sizes below 1
    ("simulate", dict(SIM, grid={"n": 0}), "config key 'grid.n' = 0: expected an integer >= 1"),
    ("simulate", dict(SIM, grid={"n": -8}), "config key 'grid.n' = -8: expected an integer >= 1"),
    ("simulate", dict(SIM, cross_check_fv={"refinements": [0, 256]}),
     "config key 'cross_check_fv.refinements' = [0, 256]: expected an integer >= 1"),
    ("completion", {"base_cells": 0}, "config key 'base_cells' = 0: expected an integer >= 1"),
    ("completion", {"samples_per_cell": 0}, "config key 'samples_per_cell' = 0: expected an integer >= 1"),
    ("thm1", {"n_list": [8, 16], "grid": {"t_samples": 0}},
     "config key 'grid.t_samples' = 0: expected an integer >= 1"),
    ("thm1", {"n_list": [8, 16], "grid": {"s_samples": 0}},
     "config key 'grid.s_samples' = 0: expected an integer >= 1"),
], ids=["list_grid_n", "scalar_n_list", "list_samples_per_cell", "string_times",
        "string_switch", "bool_grid_n", "fractional_grid_n", "bool_time", "huge_time",
        "fractional_mode", "string_n_list", "bool_level", "top_level_array",
        "zero_grid_n", "negative_grid_n", "zero_refinement", "zero_base_cells",
        "zero_samples_per_cell", "zero_t_samples", "zero_s_samples"])
def test_a_config_value_of_the_wrong_type_exits_2_naming_its_key(tmp_path, capsys, command, cfg, message):
    path = write_json(tmp_path / "c.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("thm1", {"n_list": [8]}, "n_list = [8] must hold at least two modes"),
    ("thm1", {"n_list": [1, 2]}, "config key 'n_list' = [1, 2]: expected an integer >= 2"),
    ("simulate", dict(SIM, grid={"n": 256}, times=[], cross_check_fv={"enabled": False}),
     "times = [] must hold at least one time"),
    ("simulate", dict(SIM, grid={"n": 1024}, times=[0.3], cross_check_fv={"refinements": [256]}),
     "cross_check_fv.refinements = [256] must hold at least two grid sizes"),
    ("simulate", dict(SIM, grid={"n": 1024}, times=[0.3], cross_check_fv={"refinements": []}),
     "cross_check_fv.refinements = [] must hold at least two grid sizes"),
    ("simulate", {"initial": {"kind": "thm1_wave", "mode": 1}},
     "config key 'initial.mode' = 1: expected an integer >= 2"),
], ids=["one_mode", "mode_1", "no_times", "one_refinement", "no_refinements", "initial_mode_1"])
def test_a_verdict_on_too_little_exits_2_naming_its_key_before_any_solve(
        tmp_path, monkeypatch, capsys, command, cfg, message):
    # one mode gives no ratio, no time no membership, one refinement no order
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    for name in ("solve_augmented", "advance", "dalembert_wave_solve"):
        monkeypatch.setattr(f"stringlab.cli.{name}", unreachable)
    path = write_json(tmp_path / "c.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_readme_example_configs_run(tmp_path):
    # each JSON block of the README's "Command line" section is a config for
    # simulate (it has an initial), completion (a base) or thm1
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        section = fh.read().split("\n## Command line\n")[1].split("\n## ")[0]
    blocks = [b.split("```")[0] for b in section.split("```json\n")[1:]]
    assert len(blocks) == 2
    for i, text in enumerate(blocks):
        path = tmp_path / f"readme{i}.json"
        path.write_text(text)
        cfg = load_config(str(path))
        command = "simulate" if "initial" in cfg else "completion" if "base" in cfg else "thm1"
        assert main([command, "--config", str(path), "--out", str(tmp_path / f"o{i}")]) == 0, command


def test_simulate_wave_data_cross_solver(tmp_path):
    cfg = write_json(tmp_path / "w.json", {
        "initial": {"kind": "thm1_wave", "mode": 4},
        "grid": {"n": 1024},
        "times": [0.5],
        "cross_check_fv": {"enabled": True, "refinements": [128, 256], "t": 0.5},
    })
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "simulate_report.json")))
    fv = [r for r in report["results"] if r["name"] == "fv_cross_check"][0]
    assert all(o >= 0.8 for o in fv["orders"])
    mem = [r for r in report["results"] if r["name"].startswith("membership")][0]
    assert mem["manifold_drift"] is not None and mem["manifold_drift"] < 1e-6


def test_simulate_rejects_inadmissible_csv(tmp_path, capsys):
    n = 64
    tau = np.full(n, 0.3)
    v = np.zeros(n)
    v[10], v[40] = 0.45, -0.26
    p = Profile(-np.pi, 2 * np.pi / n, tau, v, np.zeros((n, 3)), np.zeros((n, 3)))
    csv_path = str(tmp_path / "bad.csv")
    write_snapshot(csv_path, p, {})
    cfg = write_json(tmp_path / "sim.json",
                     {"initial": {"kind": "csv", "path": csv_path}, "times": [0.5]})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "v - tau" in err and "v + tau" in err  # names the violating pair


def test_simulate_csv_with_a_sidecar_missing_grid_n_exits_2(tmp_path, capsys):
    p = Profile(-np.pi, 2 * np.pi / 16, np.full(16, 0.7), np.zeros(16), np.zeros((16, 1)),
                np.zeros((16, 1)), rough=True)
    csv_path = str(tmp_path / "init.csv")
    write_snapshot(csv_path, p, {})
    with open(csv_path + ".meta.json") as fh:
        meta = json.load(fh)
    del meta["grid"]["n"]
    with open(csv_path + ".meta.json", "w") as fh:
        json.dump(meta, fh)
    cfg = write_json(tmp_path / "sim.json",
                     {"initial": {"kind": "csv", "path": csv_path}, "times": [0.5]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "init.csv.meta.json: missing key 'grid.n'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["no_sidecar", "sidecar_not_json", "no_csv"])
def test_simulate_csv_that_cannot_be_read_exits_2_naming_the_file(tmp_path, monkeypatch,
                                                                  capsys, case):
    # unwrapped, a missing sidecar exited 3 (FileNotFoundError) and a sidecar
    # that is not JSON exited 2 with the decoder's message alone
    _unsolvable(monkeypatch)
    csv_path = str(tmp_path / "init.csv")
    write_snapshot(csv_path, datasets.smooth_manifold_profile(n=16), {})
    if case == "no_sidecar":
        os.remove(csv_path + ".meta.json")
    elif case == "sidecar_not_json":
        with open(csv_path + ".meta.json", "w") as fh:
            fh.write("{grid: 16}\n")
    else:
        os.remove(csv_path)
    cfg = write_json(tmp_path / "sim.json",
                     {"initial": {"kind": "csv", "path": csv_path}, "times": [0.5]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    want = {
        "no_sidecar": f"cannot read snapshot sidecar {csv_path}.meta.json: No such file or directory",
        "sidecar_not_json": f"invalid JSON sidecar {csv_path}.meta.json: Expecting property name "
                            "enclosed in double quotes: line 1 column 2 (char 1)",
        "no_csv": f"cannot read snapshot {csv_path}: No such file or directory",
    }[case]
    assert capsys.readouterr().err.strip() == f"error: {want}"


def test_simulate_csv_with_a_non_finite_value_exits_2(tmp_path, capsys):
    p = Profile(-np.pi, 2 * np.pi / 16, np.full(16, 0.7), np.zeros(16), np.zeros((16, 1)),
                np.zeros((16, 1)), rough=True)
    csv_path = str(tmp_path / "init.csv")
    write_snapshot(csv_path, p, {})
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    lines[7] = lines[7].replace("0.69999999999999996", "nan", 1)
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = write_json(tmp_path / "sim.json",
                     {"initial": {"kind": "csv", "path": csv_path}, "times": [0.5]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "init.csv: row 7 has tau = nan, which is not finite" in capsys.readouterr().err


def _unsolvable(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the initial data were checked")

    for name in ("build_flow", "solve_augmented", "advance"):
        monkeypatch.setattr(f"stringlab.cli.{name}", unreachable)


def test_simulate_refuses_a_rough_snapshot_before_any_solve(tmp_path, monkeypatch, capsys):
    # sampled on a grid, an evolved rough field would lose its cells (its
    # snapshot would hold point samples of them), so rough data evolve with
    # evolve_cells and simulate samples smooth data only
    _unsolvable(monkeypatch)
    csv_path = str(tmp_path / "rough.csv")
    write_snapshot(csv_path, datasets.rough_manifold_base(101, alpha=0.2), {})
    cfg = write_json(tmp_path / "sim.json",
                     {"initial": {"kind": "csv", "path": csv_path}, "times": [0.5]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == \
        f"error: initial.path = {csv_path!r} holds rough data, which evolve with evolve_cells"


@pytest.mark.parametrize("key, value, message", [
    ("grid.n", "16", "'16': expected a number"),
    ("grid.ds", "x", "'x': expected a number"),
    ("grid.d", True, "True: expected a number"),
    ("rough", "no", "'no': expected true or false"),
    ("boundary", 1, "1: expected a string"),
    ("grid.ds", float("nan"), "nan: expected a finite number > 0"),
    ("grid.ds", float("inf"), "inf: expected a finite number > 0"),
    ("grid.ds", 0.0, "0.0: expected a finite number > 0"),
    ("grid.s0", float("nan"), "nan: expected a finite number"),
], ids=["string_n", "string_ds", "bool_d", "string_rough", "number_boundary", "nan_ds",
        "infinite_ds", "zero_ds", "nan_s0"])
def test_simulate_reads_each_sidecar_key_by_its_json_type(tmp_path, monkeypatch, capsys,
                                                          key, value, message):
    # read unchecked, a string size or spacing raises TypeError (exit 3),
    # d = true reads as 1, rough = "no" as rough, and a non-finite grid
    # blames row 1's s
    _unsolvable(monkeypatch)
    p = Profile(-np.pi, 2 * np.pi / 16, np.full(16, 0.7), np.zeros(16), np.zeros((16, 1)),
                np.zeros((16, 1)))
    csv_path = str(tmp_path / "init.csv")
    write_snapshot(csv_path, p, {})
    with open(csv_path + ".meta.json") as fh:
        meta = json.load(fh)
    node, name = (meta["grid"], key[5:]) if key.startswith("grid.") else (meta, key)
    node[name] = value
    with open(csv_path + ".meta.json", "w") as fh:
        json.dump(meta, fh)  # NaN and Infinity as Python's json writes and reads them
    cfg = write_json(tmp_path / "sim.json",
                     {"initial": {"kind": "csv", "path": csv_path}, "times": [0.5]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {csv_path}.meta.json: key {key!r} = {message}"


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def faulty(cfg, out_dir):
        raise RuntimeError("internal error: inversion residual 1.607e-07")

    monkeypatch.setattr("stringlab.cli.cmd_simulate", faulty)
    cfg = write_json(tmp_path / "sim.json", {"initial": {"kind": "smooth_m"}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.strip() == "internal error: inversion residual 1.607e-07"


def test_value_error_still_exits_2(tmp_path, monkeypatch, capsys):
    def bad_input(cfg, out_dir):
        raise ValueError("grid.n must be positive")

    monkeypatch.setattr("stringlab.cli.cmd_simulate", bad_input)
    cfg = write_json(tmp_path / "sim.json", {"initial": {"kind": "smooth_m"}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == "error: grid.n must be positive"


def test_an_initial_without_a_kind_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "sim.json", {"initial": "smooth_m"})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == \
        "error: config key 'initial' must be an object, got 'smooth_m'"


def test_any_other_exception_exits_3(tmp_path, monkeypatch, capsys):
    def faulty(cfg, out_dir):
        raise IndexError("index 5 is out of bounds for axis 0 with size 4")

    monkeypatch.setattr("stringlab.cli.cmd_simulate", faulty)
    cfg = write_json(tmp_path / "sim.json", {"initial": {"kind": "smooth_m"}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0] == "Traceback (most recent call last):"
    assert err[-1] == "internal error: IndexError: index 5 is out of bounds for axis 0 with size 4"


def test_thm1_command(tmp_path, monkeypatch):
    blocks = []

    def counted(init, t, s_out):
        blocks.append(np.size(t) * np.size(s_out))
        return waves.dalembert_wave_solve(init, t, s_out)

    monkeypatch.setattr("stringlab.cli.dalembert_wave_solve", counted)
    cfg = write_json(tmp_path / "t.json", {
        "n_list": [8, 16, 32],
        "grid": {"t_samples": 65, "s_samples": 129},
    })
    out = str(tmp_path / "out")
    assert main(["thm1", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "thm1_rates.csv")).read().splitlines()
    assert lines[0] == "n,sup_error,ratio"
    assert len(lines) == 4
    # one call per mode, equal to a loop over the times
    assert blocks == [65 * 129] * 3
    ss = np.linspace(-2 * np.pi, 2 * np.pi, 129)
    loop = [max(float(np.max(np.linalg.norm(waves.dalembert_wave_solve(init, float(t), ss).X
                                            - waves.oscillatory_limit_solution(float(t), ss), axis=-1)))
                for t in np.linspace(-2 * np.pi, 2 * np.pi, 65))
            for init in map(waves.oscillatory_family_init, (8, 16, 32))]
    report = json.load(open(os.path.join(out, "thm1_report.json")))
    assert report["results"][0]["values"] == loop
    # the default 513 x 513 lattice, in blocks of at most 2^16 points per mode
    blocks.clear()
    cfg1 = write_json(tmp_path / "t1.json", {"n_list": [8, 16]})
    assert main(["thm1", "--config", cfg1, "--out", str(tmp_path / "o1")]) == 0
    assert len(blocks) == 2 * 5 and sum(blocks) == 2 * 513 * 513 and max(blocks) <= 2**16
    # missing n_list is a config error
    cfg2 = write_json(tmp_path / "t2.json", {})
    assert main(["thm1", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 2


def test_completion_command(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "base": "subrel_wave",
        "n_list": [8, 16, 32],
        "times": [0.0, 1.0],
        "samples_per_cell": 32,
    })
    out = str(tmp_path / "out")
    assert main(["completion", "--config", cfg, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "completion_report.json")))
    assert report["pass"]
    flags = {r["name"]: r["pass"] for r in report["results"] if "name" in r}
    assert flags["limit_is_nonrelativistic_generalized_string"]
    # per level: the tiling's runs (four per oscillation cell of the 101-cell
    # wave base), the largest evolved cell count and the weight quantization
    (exp,) = [r for r in report["results"] if "name" not in r]
    assert exp["runs"] == [404, 808, 1616]
    assert len(exp["evolved_cells"]) == 3
    assert all(r <= c <= 2 * r for r, c in zip(exp["runs"], exp["evolved_cells"]))
    assert exp["max_weight_quantization"] == [0.0, 0.0, 0.0]
    lines = open(os.path.join(out, "completion_gaps.csv")).read().splitlines()
    assert lines[0] == "n,g_id,t,pairing_gap"


def test_completion_of_manifold_data_passes_on_exactly_zero_gaps(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "c.json", {"base": "manifold", "n_list": [8, 16, 32],
                                          "times": [0.0, 1.0], "samples_per_cell": 16})
    assert main(["completion", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.load(open(os.path.join(tmp_path, "o", "completion_report.json")))
    assert {"name": "gaps_exactly_zero", "pass": True} in report["results"]
    assert report["results"][-1]["gaps"] == [0.0, 0.0, 0.0]
    assert report["results"][-1]["slope"] is None
    cli_completion = cli.completion_experiment

    def one_nonzero_gap(*args, **kwargs):
        rep = cli_completion(*args, **kwargs)
        rep["gaps"][1] = 1e-17
        return rep

    monkeypatch.setattr("stringlab.cli.completion_experiment", one_nonzero_gap)
    assert main(["completion", "--config", cfg, "--out", str(tmp_path / "o2")]) == 1
    report = json.load(open(os.path.join(tmp_path, "o2", "completion_report.json")))
    assert {"name": "gaps_exactly_zero", "pass": False} in report["results"]


@pytest.mark.parametrize("cfg, message", [
    ({"n_list": [8]}, "n_list [8] snaps to the levels [8.037]"),
    ({"n_list": [8, 8]}, "n_list [8, 8] snaps to the levels [8.037, 8.037]"),
    ({"n_list": [8, 9]}, "n_list [8, 9] snaps to the levels [8.037, 8.037]"),
    ({"times": []}, "times must hold at least one time"),
], ids=["one_level", "repeated_level", "one_snapped_level", "no_times"])
def test_completion_needs_two_levels_and_a_time(tmp_path, monkeypatch, capsys, cfg, message):
    # 8 and 9 cells per unit length both snap to one cell per base cell of
    # the 101-cell base; an empty times list fails before any tiling
    if "times" in cfg:
        monkeypatch.setattr("stringlab.weak.oscillate_profile",
                            lambda *args, **kw: pytest.fail("tiled before checking the times"))
    path = write_json(tmp_path / "c.json", dict(cfg, samples_per_cell=16))
    assert main(["completion", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_completion_at_a_non_finite_time_exits_2_naming_t(tmp_path, capsys):
    # JSON's NaN reads as a number; evolving the first field at it names the
    # time, rather than failing inside the merge of the breaks (exit 3)
    path = write_json(tmp_path / "c.json",
                      {"n_list": [8, 16], "times": [0.0, float("nan")], "samples_per_cell": 16})
    assert main(["completion", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == "error: t must be finite; t = nan"


def test_flags_are_registered_only_where_read(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"n_list": [8]})
    for argv in (["completion", "--config", cfg, "--seed", "3"],
                 ["simulate", "--config", cfg, "--tol", "1e-8"],
                 ["thm1", "--config", cfg, "--tol", "1e-8"],
                 ["validate", "--tol", "1e-8"],
                 ["validate", "--config", cfg]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_validate_command_and_injection(tmp_path):
    out = str(tmp_path / "v")
    assert main(["validate", "--out", out, "--seed", "5"]) == 0
    report = json.load(open(os.path.join(out, "validate_report.json")))
    assert report["pass"] and len(report["results"]) >= 12
    out2 = str(tmp_path / "v2")
    assert main(["validate", "--out", out2, "--seed", "5",
                 "--inject", "decomposition"]) == 1
    rep2 = json.load(open(os.path.join(out2, "validate_report.json")))
    failed = [r["name"] for r in rep2["results"] if not r["pass"]]
    assert failed == ["decomposition"]
    with pytest.raises(ValueError):
        run_validation(inject="not_a_check")


def test_validate_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["validate", "--out", a, "--seed", "9"]) == 0
    assert main(["validate", "--out", b, "--seed", "9"]) == 0
    pa = open(os.path.join(a, "validate_report.json"), "rb").read()
    pb = open(os.path.join(b, "validate_report.json"), "rb").read()
    assert pa == pb
