"""Fixed-grid quadrature helpers and the breakpoint partition behind every grid.

The rules (trapezoid, cumulative Simpson) work on uniform node grids.  A
coefficient with breakpoints (jumps or kinks) is integrated piece by piece:
:func:`_partition` cuts an interval at every breakpoint and spaces steps
uniformly between the cuts, and a piece that starts on a breakpoint first
evaluates the coefficient at its right limit there (:func:`_right_limit`).
Transitions, kernels, simulated paths and certificate sample grids all
take these two.
"""

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


def _right_limit(A, b):
    """Where A takes its right limit at its breakpoint ``b``.

    That is b itself when A is continuous (b is a kink), and otherwise a
    point just above b, past a possible jump.  At b itself every family takes
    its left limit: a step takes its left value there.
    """
    return b if A.is_continuous else b + 1e-9 * max(1.0, abs(b))


def _window_grid(A, lo, hi, n):
    """Sample points for sups over [lo, hi], in increasing order: ``n``
    uniform points, plus every interior breakpoint of A and its right limit."""
    pts = np.linspace(lo, hi, n)
    inner = [b for b in A.breakpoints if lo < b < hi]
    if not inner:
        return pts
    pts = np.concatenate([pts, inner, [_right_limit(A, b) for b in inner]])
    return np.unique(np.clip(pts, lo, hi))


def _partition(A, lo, hi, steps):
    """Pieces of [lo, hi] cut at every breakpoint of A inside it, each one uniform.

    ``steps(width)`` is the step count of a piece of that width.  Returns one
    ``(edges, first)`` pair per piece, in increasing order: the piece's
    uniform step edges, and where it first evaluates A, which is the right
    limit (:func:`_right_limit`) when ``edges[0]`` is a breakpoint of A and
    ``edges[0]`` itself otherwise.  Neighbouring pieces share their cut.
    """
    breaks = A.breakpoints
    cuts = [lo] + [b for b in breaks if lo < b < hi] + [hi]
    return [(np.linspace(a, b, steps(b - a) + 1), _right_limit(A, a) if a in breaks else a)
            for a, b in zip(cuts, cuts[1:])]
