"""Reference implementations the tests compare the package's engines against.

Nothing in ``src/`` calls them; they are kept simple rather than fast.
"""

import ctypes
from pathlib import Path

import numpy as np

from ddopt import sim


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs on, or 'unknown'."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/libscipy_openblas*"),
                       *root.glob(".dylibs/libscipy_openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def integrate_rk4(rhs, x0, cfg: sim.SimConfig) -> sim.Trajectory:
    """Classical fixed-step RK4 for x' = rhs(t, x); records x columns only.

    Raises :class:`sim.NonFiniteStateError` (with the failing time) instead
    of propagating NaNs.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    n = x.shape[0]
    h = cfg.h
    times = cfg.times()
    recorded = np.empty((cfg.num_steps + 1, n))
    recorded[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(cfg.num_steps):
            t = times[j]
            k1 = rhs(t, x)
            k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = rhs(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise sim.NonFiniteStateError(float(times[j + 1]))
            recorded[j + 1] = x
    cols = {"t": times}
    for i in range(n):
        cols[f"x_{i}"] = recorded[:, i]
    return sim.Trajectory(cols)
