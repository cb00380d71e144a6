"""Independent oracles shared by the test modules.

These deliberately avoid the library code paths they are used to check.
The brute-force Legendre dual and the hull sampler live in
`stringlab.validate`, whose `validate` battery runs them too.
"""

import numpy as np

from stringlab.validate import legendre_bruteforce, random_hull_states  # noqa: F401


def lagrangian_reference(Y, W):
    # expanded radicand, term by term
    y2 = float(np.dot(Y, Y))
    w2 = float(np.dot(W, W))
    yw = float(np.dot(Y, W))
    rad = 1.0 - w2 + y2 - y2 * w2 + yw * yw
    return -np.sqrt(rad)
