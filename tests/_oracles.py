"""Independent oracles shared by the test modules.

These deliberately avoid the library code paths they are used to check.
The brute-force Legendre dual and the hull sampler live in
`stringlab.validate`, whose `validate` battery runs them too.
"""

import numpy as np

from stringlab.characteristics import _feet, _reduce_time, _state, _xi_only
from stringlab.geometry import state_from_blocks
from stringlab.profiles import CellField
from stringlab.validate import legendre_bruteforce, random_hull_states  # noqa: F401


def lagrangian_reference(Y, W):
    # expanded radicand, term by term
    y2 = float(np.dot(Y, Y))
    w2 = float(np.dot(W, W))
    yw = float(np.dot(Y, W))
    rad = 1.0 - w2 + y2 - y2 * w2 + yw * yw
    return -np.sqrt(rad)


def evolve_cells_by_midpoints(flow, t, source=None):
    """`evolve_cells` by searching the knots at every cell's midpoint.

    The breaks b - t and b + t are sorted together and merged within 64 ulps;
    each cell's state is read off the tables at both feet of its midpoint,
    each foot located by a search of the knots, and the breaks are mapped
    through xi(t, .) the same way.  Given the flow's source CellField, the
    states come instead from its unsplit states at the feet's cells, in the
    block coordinates v +- tau and eta -+ zeta.
    """
    b = flow.y_edges
    t, shift, _ = _reduce_time(flow, t)
    tol = 64.0 * np.spacing(np.max(np.abs(b)) + np.abs(t))
    if flow.y_period is not None:
        pts = np.sort(flow._wind(np.concatenate([b[:-1] - t, b[:-1] + t]))[0])
        pts = pts[np.diff(pts, prepend=pts[-1] - flow.y_period) > tol]
        breaks_y = np.append(pts, pts[0] + flow.y_period)
    else:
        pts = np.sort(np.concatenate([b - t, b + t]))
        breaks_y = pts[np.diff(pts, prepend=-np.inf) > tol]
    mid = 0.5 * (breaks_y[:-1] + breaks_y[1:])
    breaks = np.maximum.accumulate(_xi_only(flow, t, breaks_y) + shift)
    if source is None:
        states = _state(_feet(flow, t, mid))
    else:
        (kp, km), U = (flow._cell(mid + sign * t)[2] for sign in (1, -1)), source.states
        states = state_from_blocks(U.v[kp] + U.tau[kp], U.v[km] - U.tau[km],
                                   U.eta[kp] - U.zeta[kp], U.eta[km] + U.zeta[km])
    return CellField(breaks, states, flow.s_period)
