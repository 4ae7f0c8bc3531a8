"""Fixed-grid quadrature helpers (trapezoid, composite Simpson, cumulative forms).

All routines work on uniform node grids.  Integrands with known interior
breakpoints are handled by partitioning the interval and chaining the
per-piece results, which the callers assemble via :func:`split_interval`
and :func:`piece_nodes`.
"""

import math

import numpy as np

from .errors import PreconditionError

# Most points a lag, window, frequency or time grid, a quadrature node grid,
# an RK4 step grid or a simulation may hold (16 MB of float64), checked
# before anything of that size is allocated.
MAX_GRID_POINTS = 2_000_000


def _check_grid_budget(count, what):
    """PreconditionError unless ``count`` points fit within MAX_GRID_POINTS."""
    if not count < MAX_GRID_POINTS:  # also catches inf and nan
        raise PreconditionError(
            f"{what}: {count:g} points exceed the grid budget of {MAX_GRID_POINTS} points")


def _grid_steps(extent, step, what):
    """round(extent / step), the steps of a uniform grid, within MAX_GRID_POINTS."""
    ratio = extent / step
    _check_grid_budget(ratio, f"{what} ({extent:g} / {step:g})")
    return int(round(ratio))


def trapezoid(y, dx):
    """Composite trapezoid rule on a uniform grid along axis 0."""
    y = np.asarray(y)
    if y.shape[0] < 2:
        return np.zeros(y.shape[1:], dtype=y.dtype) if y.ndim > 1 else 0.0
    return dx * (y.sum(axis=0) - 0.5 * (y[0] + y[-1]))


def trapezoid_weights(n, h):
    """Weights of the composite trapezoid rule on ``n`` nodes spaced ``h`` apart."""
    weights = np.full(n, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


def composite_simpson(f, a, b, panels):
    """Integrate ``f`` over [a, b] with ``panels`` Simpson panels.

    ``f`` must accept an ndarray of nodes and return values of the same
    leading shape.  One panel spans two subintervals (three nodes).
    """
    panels = int(panels)
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if b == a:
        probe = np.asarray(f(np.array([a])))
        return np.zeros(probe.shape[1:], dtype=probe.dtype) if probe.ndim > 1 else 0.0
    nodes = np.linspace(a, b, 2 * panels + 1)
    vals = np.asarray(f(nodes))
    h = (b - a) / (2 * panels)
    w = np.ones(len(nodes))
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return (h / 3.0) * np.tensordot(w, vals, axes=(0, 0))


def cumulative_simpson(y, h):
    """Cumulative integral of uniformly sampled values along axis 0.

    Returns an array of the same shape whose entry ``k`` approximates the
    integral from node 0 to node ``k``.  Even-index nodes use composite
    Simpson; odd-index nodes integrate the local quadratic over the half
    panel, keeping fourth-order accuracy everywhere.
    """
    y = np.asarray(y, dtype=np.result_type(y.dtype, np.float64))
    n = y.shape[0]
    out = np.zeros_like(y)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * h * (y[0] + y[1])
        return out
    m = (n - 1) // 2
    f0 = y[0:2 * m - 1:2]
    f1 = y[1:2 * m:2]
    f2 = y[2:2 * m + 1:2]
    pair = (h / 3.0) * (f0 + 4.0 * f1 + f2)
    half = (h / 12.0) * (5.0 * f0 + 8.0 * f1 - f2)
    cpair = np.cumsum(pair, axis=0)
    out[2:2 * m + 1:2] = cpair
    out[1] = half[0]
    if m > 1:
        out[3:2 * m:2] = cpair[:-1] + half[1:]
    if n % 2 == 0:
        out[n - 1] = out[n - 2] + (h / 12.0) * (-y[n - 3] + 8.0 * y[n - 2] + 5.0 * y[n - 1])
    return out


def split_interval(a, b, breakpoints):
    """Partition [a, b] at the supplied interior breakpoints.

    Returns a list of (lo, hi) pieces in increasing order; breakpoints
    outside the open interval are ignored.
    """
    if b < a:
        raise ValueError("interval must satisfy a <= b")
    interior = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [float(a)] + interior + [float(b)]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def piece_nodes(lo, hi, max_h, min_subintervals=2):
    """Uniform node grid on one piece with an even subinterval count."""
    width = hi - lo
    _check_grid_budget(width / max_h, "quadrature nodes")
    n_sub = max(min_subintervals, int(math.ceil(width / max_h)))
    if n_sub % 2:
        n_sub += 1
    return np.linspace(lo, hi, n_sub + 1)


def nudge_off_break(x, scale=1.0):
    """Offset slightly above ``x`` to evaluate a right-limit at a jump."""
    return x + 1e-9 * max(1.0, abs(x), abs(scale))
