import tracemalloc

import numpy as np
import pytest

from stringlab.validate import CHECKS, legendre_bruteforce, run_validation


def test_all_checks_pass():
    rep = run_validation(seed=17)
    assert rep["pass"]
    assert sorted(r["name"] for r in rep["results"]) == sorted(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_injection_flips_each_check(name):
    rep = run_validation(seed=17, inject=name)
    failed = [r["name"] for r in rep["results"] if not r["pass"]]
    assert failed == [name]


def test_legendre_bruteforce_bits_are_pinned():
    # float.hex on three seeded (Y, Z) pairs: the rounds work in place, and must keep the bits
    # of the plain expressions (criterion 6 reads this oracle)
    rng = np.random.default_rng(2026)
    want = ["0x1.cbb73324e3f0ap+0", "0x1.915aadd113d4ap+1", "0x1.bd2afd8a8bd5dp+0"]
    got = []
    for _ in want:
        Y, Z = rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)
        got.append(legendre_bruteforce(Y, Z).hex())
    assert got == want


def test_validation_peak_memory():
    # one 400,001-node array is 3.2 MB: the normalization check integrates in blocks of 2^13
    # nodes, and the Legendre rounds reuse their grid arrays
    run_validation(seed=0)  # warm: module caches and tables are built outside the trace
    tracemalloc.start()
    try:
        run_validation(seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
