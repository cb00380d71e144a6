import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringlab import profiles
from stringlab.geometry import StateU
from stringlab.profiles import (
    BOUNDARY_MODES,
    CellField,
    KnotTable,
    Profile,
    centered_slopes,
    cubic_interp,
    cumulative_integral,
    fmt17,
    linear_interp,
    read_snapshot,
    write_snapshot,
)


def test_cubic_interp_reproduces_quadratics():
    # centered slopes are exact for quadratics, so the interpolant is too
    x = np.linspace(0.0, 2.0, 21)
    f = 3.0 * x**2 - x + 0.5
    q = np.linspace(0.05, 1.95, 57)
    got = cubic_interp(0.0, x[1] - x[0], f, q, "constant")
    assert np.max(np.abs(got - (3.0 * q**2 - q + 0.5))) < 1e-13


def test_cubic_interp_third_order():
    errs = []
    for n in (64, 128, 256):
        ds = 2 * np.pi / n
        x = ds * np.arange(n)
        f = np.sin(x)
        q = np.linspace(0.0, 2 * np.pi, 1001)
        errs.append(np.max(np.abs(cubic_interp(0.0, ds, f, q, "periodic") - np.sin(q))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 2.7


def test_linear_interp():
    vals = np.array([1.0, 2.0, 4.0])
    assert linear_interp(0.0, 1.0, vals, np.array([0.5]), "constant")[0] == 1.5


def _interp_one(x0, dx, values, slopes, q, boundary):
    """Linear and cubic Hermite values at one query point, located by hand."""
    n = len(values)
    u = (q - x0) / dx
    if boundary == "periodic":
        u = u % n
        i = min(int(u), n - 1)
        ip = (i + 1) % n
    else:
        u = min(max(u, 0.0), n - 1.0)
        i = min(int(u), n - 2)
        ip = i + 1
    t = np.float64(u - i)
    w = 1.0 - t
    lin = w * values[i] + t * values[ip]
    cub = ((1.0 + 2.0 * t) * w * w * values[i] + t * w * w * (slopes[i] * dx)
           + t * t * (3.0 - 2.0 * t) * values[ip] + t * t * (t - 1.0) * (slopes[ip] * dx))
    return lin, cub


@pytest.mark.parametrize("boundary", ["periodic", "constant"])
@pytest.mark.parametrize("shape", [(13,), (13, 3)], ids=["vector", "n_by_d"])
def test_interpolants_locate_each_point_as_by_hand(boundary, shape):
    # query points inside and outside the window [x0, x0 + (n - 1) dx]
    rng = np.random.default_rng(3)
    x0, dx = -1.3, 0.25
    values = rng.normal(size=shape)
    slopes = centered_slopes(values, dx, boundary)
    q = np.r_[rng.uniform(-6.0, 6.0, 40), x0, x0 + 12 * dx, x0 + 13 * dx, x0 - 13 * dx].reshape(4, 11)
    lin = linear_interp(x0, dx, values, q, boundary)
    cub = cubic_interp(x0, dx, values, q, boundary)
    assert lin.shape == cub.shape == q.shape + shape[1:]
    for idx in np.ndindex(q.shape):
        want_lin, want_cub = _interp_one(x0, dx, values, slopes, q[idx], boundary)
        assert np.array_equal(lin[idx], want_lin)
        assert np.array_equal(cub[idx], want_cub)


@pytest.mark.parametrize("boundary", ["constant", "periodic"])
@pytest.mark.parametrize("shape", [(1,), (1, 3)])
def test_interpolants_read_one_sample_as_a_constant(boundary, shape):
    values = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 7.0
    q = np.array([[0.0, 0.3, 1.0], [-4.2, 2.5, 9.75]])  # the sample, inside, outside
    want = np.broadcast_to(values[0], q.shape + shape[1:])
    for got in (linear_interp(0.0, 1.0, values, q, boundary),
                cubic_interp(0.0, 1.0, values, q, boundary)):
        assert got.shape == want.shape
        if boundary == "constant":
            assert np.array_equal(got, want)
        else:  # the periodic local coordinate weights the one sample twice
            np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)


def _cubic(y):
    return np.stack([y**3 - y, 2.0 * y**2]), np.stack([3.0 * y**2 - 1.0, 4.0 * y])


@pytest.mark.parametrize("mode", ["smooth", "pc"])
def test_knot_table_reads_its_interpolant_tails_and_periods(mode):
    # on uneven knots a smooth table reproduces a cubic and its slope (from
    # the exact secants), a pc table the linear interpolant of its knots;
    # beyond the knots an aperiodic table continues with its end slopes, and
    # a periodic one adds each column's period per whole period wound
    rng = np.random.default_rng(14)
    knots = np.r_[0.0, np.sort(rng.uniform(0.0, 2.0, 9)), 2.0]
    V, M = _cubic(knots)
    secants = np.diff(V, axis=1) / np.diff(knots)
    if mode == "pc":
        M = secants
    y = rng.uniform(0.0, 2.0, 40)
    k = np.searchsorted(knots[1:-1], y, side="right")
    want = (_cubic(y) if mode == "smooth" else
            (V[:, k] + (y - knots[k]) * M[:, k], M[:, k]))
    table = KnotTable(mode, knots, V, M, secants, None, None)
    for got, ref in zip(table._tables(table._cell(y), slice(None), slope=True), want):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
    far = np.array([-1.5, 3.25])
    val, der = table._tables(table._cell(far), slice(None), slope=True)
    assert np.array_equal(val, np.stack([V[:, 0] + M[:, 0] * -1.5, V[:, -1] + M[:, -1] * 1.25], axis=1))
    assert np.array_equal(der, M[:, [0, -1]] if mode == "smooth" else secants[:, [0, -1]])
    periods = np.array([0.7, -0.2])
    wound = KnotTable(mode, knots, V, M, secants, 2.0, periods)
    for m in (-3, 1, 50):
        got = wound._tables(wound._cell(y + 2.0 * m), slice(None))[0]
        np.testing.assert_allclose(got, want[0] + m * periods[:, None], rtol=0.0, atol=1e-12)


def test_cumulative_integral_fourth_order():
    # the samples, and the increments over each interval on their own
    errs, inc_errs = [], []
    for n in (65, 129, 257):
        x = np.linspace(0.0, 2.0, n)
        f = np.exp(x)
        got, inc = cumulative_integral(f, x[1] - x[0])
        errs.append(np.max(np.abs(got - (np.exp(x) - 1.0))))
        inc_errs.append(np.max(np.abs(inc - np.diff(np.exp(x)))))
    for e in (errs, inc_errs):
        orders = [np.log2(e[i] / e[i + 1]) for i in range(2)]
        assert min(orders) > 3.7


def test_cumulative_integral_closes_a_period():
    # periodic f: n + 1 samples, the last the full-period integral, and n
    # increments that sum to it
    n = 64
    x = 2 * np.pi * np.arange(n) / n
    f = np.exp(np.sin(x))
    got, inc = cumulative_integral(f, 2 * np.pi / n, "periodic")
    assert got.shape == (n + 1,) and inc.shape == (n,)
    period = 2 * np.pi * 1.2660658777520082  # 2 pi I0(1)
    assert abs(got[-1] - period) < 1e-13 and abs(np.sum(inc) - period) < 1e-12
    assert np.max(np.abs(np.cumsum(inc)[:-1] - got[1:-1])) < 1e-12


def test_profile_fields_and_semantics():
    n = 8
    p = Profile(0.0, 0.5, np.linspace(1, 2, n), np.zeros(n),
                np.zeros((n, 2)), np.zeros((n, 2)), "periodic")
    assert p.n == n and p.d == 2 and p.period == 4.0
    assert p.s_samples[0] == 0.0
    rough = Profile(0.0, 0.5, np.linspace(1, 2, n), np.zeros(n),
                    np.zeros((n, 2)), np.zeros((n, 2)), "periodic", rough=True)
    assert rough.s_samples[0] == 0.25  # cell centers


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(0.0, -1.0, np.ones(4), np.zeros(4), np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        Profile(0.0, 1.0, np.ones(4), np.zeros(4), np.zeros((4, 1)), np.zeros((4, 1)),
                boundary="reflect")


@pytest.mark.parametrize("field, row", [("tau", 2), ("eta", 3)])
def test_profile_rejects_nonfinite(field, row):
    n = 6
    cols = {"tau": np.ones(n), "v": np.zeros(n), "eta": np.zeros((n, 2)), "zeta": np.zeros((n, 2))}
    cols[field][row] = np.nan
    with pytest.raises(ValueError, match=rf"{field}\[{row}"):
        Profile(0.0, 0.5, **cols)


@pytest.mark.parametrize("s0, ds, n, message", [
    (np.nan, 0.5, 4, "s0 must be finite"), (0.0, np.nan, 4, "ds must be a finite number > 0"),
    (0.0, np.inf, 4, "ds must be a finite number > 0"), (0.0, 0.5, 0, "tau must hold n >= 1")])
def test_profile_rejects_a_grid_without_a_window(s0, ds, n, message):
    # such a profile reached build_flow, which reported an internal inversion
    # fault, and write_snapshot wrote a sidecar that read_snapshot refused
    with pytest.raises(ValueError, match=message):
        Profile(s0, ds, np.ones(n), np.zeros(n), np.zeros((n, 1)), np.zeros((n, 1)))


def test_profile_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="tau and v"):
        Profile(0.0, 0.5, np.ones(5), np.zeros(4), np.zeros((5, 1)), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="eta and zeta"):
        Profile(0.0, 0.5, np.ones(5), np.zeros(5), np.zeros((4, 2)), np.zeros((4, 2)))


def test_snapshot_writer_matches_fmt17(tmp_path):
    # awkward values: negative zero, the smallest subnormal, near-overflow and
    # full 17-significant-digit mantissas; repeated to the row counts about the
    # writer's block edges, each file read back and written again byte for byte
    awkward = np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2, -1.2345678901234567e-7, 2.0 / 3.0])
    B = profiles._SNAP_ROWS
    for n in (awkward.size, B - 1, B, B + 1, 2 * B + 1):
        vals = np.resize(awkward, n)
        p = Profile(-0.0, 0.1, vals, vals[::-1], np.stack([vals, -vals], axis=1),
                    np.roll(np.stack([vals, vals], axis=1), 1, axis=0), "constant", rough=True)
        path, again = str(tmp_path / "snap.csv"), str(tmp_path / "again.csv")
        write_snapshot(path, p)
        rows = np.column_stack([p.s_samples, p.tau, p.v, p.eta, p.zeta])
        want = "s,tau,v,eta_1,eta_2,zeta_1,zeta_2\n"
        want += "".join(",".join(fmt17(x) for x in row) + "\n" for row in rows)
        assert Path(path).read_bytes() == want.encode(), n
        write_snapshot(again, *read_snapshot(path))
        for ext in ("", ".meta.json"):
            assert Path(path + ext).read_bytes() == Path(again + ext).read_bytes(), (n, ext)


def _fmt17_hard_values():
    """Values where a 17-digit formatter is easy to get wrong: powers of ten and their
    neighbours, exact ties, edges and random bit patterns (returned: all, powers, ties)."""
    rng = np.random.default_rng(15)
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    with np.errstate(over="ignore"):  # 5e308 is inf
        tens = np.concatenate([tens, np.nextafter(tens, -np.inf), np.nextafter(tens, np.inf),
                               0.5 * tens, 5.0 * tens])
    # exact 17th-digit ties: an 18th digit 5 and nothing after it
    low = rng.integers(575 * 10**12, 10**15, 500) + rng.choice([1, 3, 5, 7], 500) / 8
    high = rng.integers(10**15, 2 * 10**15, 500) + rng.choice([1, 3], 500) / 4
    ties = np.concatenate([low, high])
    # zero, subnormals, the largest floats, non-finite values, 17-digit edges and the
    # fixed/scientific switches
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                      1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 1e16 - 2,
                      1e16 + 2, 1e17 - 16, 1e17 + 16, 1e-5, 1e-4, 9.9999999999999991e-5])
    integers = rng.integers(10**14, 10**16, 2000) + 0.5
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    return np.concatenate([tens, ties, edges, integers, bits]), tens, ties


def test_csv_rows_print_every_float_as_fmt17(monkeypatch):
    x, tens, ties = _fmt17_hard_values()
    x = np.concatenate([x, np.zeros(-x.size % 7)]).reshape(-1, 7)
    calls = []
    monkeypatch.setattr(profiles, "fmt17", lambda v: calls.append(float(v)) or fmt17(v))
    got = profiles._csv_rows(x)
    want = "".join(",".join(map(fmt17, row)) + "\n" for row in x.tolist()).encode()
    assert got == want
    # every tie goes to fmt17; the powers of ten and their neighbours are scaled,
    # but for the few that land a hair off 1e16 and carry
    assert set(ties.tolist()) <= set(calls)
    tens = tens[(np.abs(tens) >= 1e-270) & (np.abs(tens) <= 1e270)]
    assert len(set(calls) & set(tens.tolist())) <= 0.01 * tens.size


def test_ascii8_prints_every_four_digit_half():
    # the halves split and print independently, so each value in each half is checked
    k = np.arange(10_000)
    n = k * 10_000 + k[::-1]
    assert profiles._ascii8(n).astype("<i8").view("S8").tolist() == [b"%08d" % v for v in n.tolist()]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), d=st.sampled_from([1, 2, 3]),
       boundary=st.sampled_from(BOUNDARY_MODES), rough=st.booleans())
def test_snapshot_round_trips_bytes_and_bits(tmp_path_factory, data, n, d, boundary, rough):
    # any finite values, -0.0, subnormals and the extremes among them
    vals = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                       min_size=n * (2 + 2 * d), max_size=n * (2 + 2 * d))))
    vals = vals.reshape(n, 2 + 2 * d)
    s0, ds = data.draw(st.floats(-1e6, 1e6)), data.draw(st.floats(1e-6, 1e3))
    p = Profile(s0, ds, vals[:, 0], vals[:, 1], vals[:, 2:2 + d], vals[:, 2 + d:], boundary, rough)
    tmp = tmp_path_factory.mktemp("snap")
    first, again = str(tmp / "a.csv"), str(tmp / "b.csv")
    write_snapshot(first, p, {"t": 0.5})
    q, meta = read_snapshot(first)
    write_snapshot(again, q, meta)
    for ext in ("", ".meta.json"):
        with open(first + ext, "rb") as fa, open(again + ext, "rb") as fb:
            assert fa.read() == fb.read()
    for name in ("tau", "v", "eta", "zeta"):
        assert np.array_equal(getattr(q, name).view(np.uint64), getattr(p, name).view(np.uint64))
    assert (q.s0, q.ds, q.boundary, q.rough) == (p.s0, p.ds, p.boundary, p.rough)


def test_snapshot_writer_memory_does_not_grow_with_n(tmp_path):
    rng = np.random.default_rng(3)
    peaks = []
    for n in (16_384, 131_072):
        p = Profile(-np.pi, 2 * np.pi / n, rng.uniform(0.4, 1.0, n), rng.uniform(-0.2, 0.2, n),
                    rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))
        tracemalloc.start()
        try:
            write_snapshot(str(tmp_path / "snap.csv"), p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    n, d = 37, 3
    p = Profile(-1.5, 0.1, rng.uniform(0.4, 1.0, n), rng.uniform(-0.2, 0.2, n),
                rng.normal(size=(n, d)), rng.normal(size=(n, d)), "periodic", rough=True)
    path = str(tmp_path / "snap.csv")
    write_snapshot(path, p, {"alpha": 0.0, "delta": 0.5, "t": 1.25})
    q, meta = read_snapshot(path)
    assert meta["alpha"] == 0.0 and meta["t"] == 1.25
    assert q.boundary == "periodic" and q.rough
    assert np.array_equal(q.tau, p.tau)
    assert np.array_equal(q.eta, p.eta)
    # byte-determinism of the writer
    path2 = str(tmp_path / "snap2.csv")
    write_snapshot(path2, p, {"alpha": 0.0, "delta": 0.5, "t": 1.25})
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def _tampered_snapshot(tmp_path, edit, rough=True):
    """A valid n = 12, d = 2 snapshot whose CSV lines (header first) pass through `edit`."""
    rng = np.random.default_rng(2)
    n, d = 12, 2
    p = Profile(-0.3, 0.05, rng.uniform(0.4, 1.0, n), rng.uniform(-0.2, 0.2, n),
                rng.normal(size=(n, d)), rng.normal(size=(n, d)), "constant", rough=rough)
    path = str(tmp_path / "snap.csv")
    write_snapshot(path, p)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return path


def test_read_snapshot_rejects_an_extra_column(tmp_path):
    path = _tampered_snapshot(tmp_path, lambda ls: [ln + ",0" for ln in ls])
    with pytest.raises(ValueError, match=r"snap\.csv: row 1 has 8 columns; the sidecar's d = 2 needs 7"):
        read_snapshot(path)
    # a ragged row names the file and that row
    path = _tampered_snapshot(tmp_path, lambda ls: ls[:4] + [ls[4] + ",0"] + ls[5:])
    with pytest.raises(ValueError, match=r"snap\.csv: .*at row 4"):
        read_snapshot(path)


def test_read_snapshot_rejects_a_missing_column(tmp_path):
    path = _tampered_snapshot(tmp_path, lambda ls: [ln.rsplit(",", 1)[0] for ln in ls])
    with pytest.raises(ValueError, match=r"snap\.csv: row 1 has 6 columns; the sidecar's d = 2 needs 7"):
        read_snapshot(path)


def test_read_snapshot_rejects_a_row_count_off_the_sidecar(tmp_path):
    path = _tampered_snapshot(tmp_path, lambda ls: ls[:-1])
    with pytest.raises(ValueError, match=r"snap\.csv: 11 rows where the sidecar's grid.n = 12 "
                                         r"\(first bad row 12\)"):
        read_snapshot(path)


@pytest.mark.parametrize("rough", [True, False])
def test_read_snapshot_rejects_a_shifted_s_row(tmp_path, rough):
    def shift_row_5(lines):
        s, rest = lines[5].split(",", 1)
        lines[5] = f"{float(s) + 1e-9!r},{rest}"
        return lines

    path = _tampered_snapshot(tmp_path, shift_row_5, rough)
    with pytest.raises(ValueError, match=r"snap\.csv: row 5 has s = .* off the sidecar grid"):
        read_snapshot(path)
    # the untouched snapshot still reads
    path = _tampered_snapshot(tmp_path, lambda ls: ls, rough)
    p, _ = read_snapshot(path)
    assert p.n == 12 and p.rough == rough


@pytest.mark.parametrize("text, shown", [("nan", "nan"), ("-inf", "-inf"), ("1e999", "inf")])
def test_read_snapshot_names_the_row_and_column_of_a_non_finite_value(tmp_path, text, shown):
    def spoil_row_3(lines):
        cells = lines[3].split(",")
        cells[5] = text  # zeta_1
        lines[3] = ",".join(cells)
        return lines

    path = _tampered_snapshot(tmp_path, spoil_row_3)
    with pytest.raises(ValueError, match=rf"snap\.csv: row 3 has zeta_1 = {shown}, which is not finite"):
        read_snapshot(path)


def _drop_sidecar_key(csv_path, key):
    with open(csv_path + ".meta.json") as fh:
        meta = json.load(fh)
    node, name = (meta["grid"], key[5:]) if key.startswith("grid.") else (meta, key)
    del node[name]
    with open(csv_path + ".meta.json", "w") as fh:
        json.dump(meta, fh)


@pytest.mark.parametrize("key", ["grid.n", "grid.d", "grid.s0", "grid.ds", "boundary", "rough"])
def test_read_snapshot_names_a_missing_sidecar_key(tmp_path, key):
    path = _tampered_snapshot(tmp_path, lambda ls: ls)
    _drop_sidecar_key(path, key)
    with pytest.raises(ValueError, match=rf"snap\.csv\.meta\.json: missing key '{key}'"):
        read_snapshot(path)


def test_cell_field_widths():
    cf = CellField(np.array([0.0, 0.5, 2.0]),
                   StateU(np.array([1.0, 2.0]), np.zeros(2), np.zeros((2, 1)), np.zeros((2, 1))))
    assert cf.m == cf.n == 2 and cf.d == 1
    assert np.allclose(cf.widths(), [0.5, 1.5])


def test_cell_field_names_the_cell_of_a_nonfinite_state():
    U = StateU(np.array([1.0, 2.0, 1.5]), np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2)))
    U.eta[1, 1] = np.nan
    with pytest.raises(ValueError, match=r"eta must be finite; eta\[1, 1\] = nan"):
        CellField(np.array([0.0, 1.0, 2.0, 3.0]), U)


def test_cell_field_rejects_malformed_input():
    U = StateU(np.array([1.0, 2.0]), np.zeros(2), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="m >= 1 cells with m \\+ 1 breaks"):
        CellField(np.array([0.0, 2.0]), U)
    with pytest.raises(ValueError, match="breaks must be finite"):
        CellField(np.array([0.0, np.nan, 2.0]), U)
    with pytest.raises(ValueError, match="tau must be finite"):
        CellField(np.array([0.0, 1.0, 2.0]), StateU(np.array([1.0, np.inf]), U.v, U.eta, U.zeta))
    with pytest.raises(ValueError, match="breaks must ascend"):
        CellField(np.array([0.0, 1.5, 1.0]), U)
    with pytest.raises(ValueError, match="must span its period"):
        CellField(np.array([0.0, 1.0, 2.0]), U, period=2.5)
    with pytest.raises(ValueError, match=r"its period 2\.0; they span 2\.5$"):  # plain floats
        CellField([0, 1, 2.5], U, period=np.float64(2.0))
    assert CellField(np.array([0.0, 1.0, 2.0]), U, period=2.0).period == 2.0
