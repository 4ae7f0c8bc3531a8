"""Lag kernels of slowly-varying state-space models and their limits.

A model observed at rescaled time t with scale parameter N has the moving
average representation Y_N(t) = int g_N(N t, N t - u) L(du).  In lag form
the finite-N kernel and its slow-variation limit are

    g_N(t, u) = B(t)' Psi_{N,t}(0, -u) C(t - u/N)      (u >= 0),
    g(t, u)   = B(t)' exp(A(t) u) C(t),

where Psi_{N,t} is the transition matrix of s -> A(s/N + t).  Both vanish
for u < 0 (causality).  This module evaluates the scalar kernel pointwise
and state-space kernels on uniform grids, measures L2 distances between
grids, and packages the finite-N -> limit convergence diagnostic.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, PreconditionError, SmoothnessError, TailMassWarning
from .model import sup_norm
from .quadrature import (
    _grid_steps,
    composite_simpson,
    cumulative_simpson,
    nudge_off_break,
    trapezoid,
)
from .transition import _resolve_route, _rk4_panels, matrix_exp

__all__ = [
    "KernelGrid",
    "ConvergenceReport",
    "car1_kernel",
    "kernel_grid",
    "l2_distance",
    "convergence_diagnostic",
]


@dataclass
class KernelGrid:
    """Kernel values sampled on a uniform lag grid [0, u_max].

    ``gamma``/``lam`` hold an exponential envelope |g(t, u)| <=
    gamma e^{-lam u} inherited from a stability certificate, used for
    tail-mass accounting.  ``route`` names the transition route of a finite-N
    kernel (``"comm"`` or ``"ode"``); it is None for the limit kernel.
    """

    t: float
    N: object  # positive int or the string "limit"
    u_grid: np.ndarray
    values: np.ndarray
    du: float
    gamma: float = None
    lam: float = None
    route: str = None

    @property
    def u_max(self):
        return float(self.u_grid[-1])

    def l2_mass(self):
        """Integral of the squared kernel over the grid (trapezoid)."""
        return float(trapezoid(self.values**2, self.du))

    def l2_norm(self):
        return float(np.sqrt(self.l2_mass()))

    def tail_bound(self):
        """Exponential-envelope bound on the squared-kernel mass beyond u_max."""
        if self.gamma is None or self.lam is None:
            return None
        return float(self.gamma**2 * np.exp(-2.0 * self.lam * self.u_max) / (2.0 * self.lam))


@dataclass
class ConvergenceReport:
    """Distances between finite-N kernel grids and the limit grid."""

    t: float
    rows: list  # (N, distance) pairs in the order requested
    passes: bool
    precondition: str
    window: tuple
    u_max: float = None
    du: float = None

    @property
    def distances(self):
        return [d for _, d in self.rows]


def _car1_panels(u):
    return max(32, int(np.ceil(u / 0.05)))


def car1_kernel(a, N, t, u):
    """Finite-N kernel of the scalar model dX = -a(.) X dt + L(dt).

    Equals exp(-int_{-u}^{0} a(s/N + t) ds), evaluated by composite
    Simpson quadrature.  Negative lags return 0 (causality).
    """
    if not a.is_continuous:
        raise SmoothnessError("car1_kernel requires a continuous damping coefficient")
    N = _check_n(N)
    u = float(u)
    if u < 0:
        return 0.0
    if u == 0.0:
        return 1.0
    integral = composite_simpson(lambda s: a.value(s / N + t), -u, 0.0, _car1_panels(u))
    return float(np.exp(-integral))


def _check_n(N):
    if N == "limit":
        return N
    try:
        n = int(N)
    except (TypeError, ValueError):
        raise PreconditionError(f"N must be a positive integer or 'limit', got {N!r}") from None
    if n < 1 or n != float(N):
        raise PreconditionError(f"N must be a positive integer or 'limit', got {N!r}")
    return n


def _check_n_list(N_list):
    n_values = [_check_n(N) for N in N_list]
    if not n_values or any(N == "limit" for N in n_values):
        raise PreconditionError("N_list must hold positive integers")
    return n_values


def _limit_grid_values(m, t, u_grid):
    a0 = m.A.eval(t)
    bt = m.B.eval_vec(t)
    ct = m.C.eval_vec(t)
    if m.p == 1:
        return bt[0] * ct[0] * np.exp(a0[0, 0] * u_grid)
    w, vecs = np.linalg.eig(a0)
    cond = np.linalg.cond(vecs)
    if np.isfinite(cond) and cond < 1e6:
        coef = (bt @ vecs) * np.linalg.solve(vecs, ct)
        vals = np.exp(np.outer(u_grid, w)) @ coef
        return vals.real
    # Nearly defective state matrix: accumulate exact one-step exponentials.
    step = matrix_exp(a0 * (u_grid[1] - u_grid[0]))
    vals = np.empty(len(u_grid))
    row = bt.copy()
    for j in range(len(u_grid)):
        vals[j] = row @ ct
        row = row @ step
    return vals


def _jumps_crossed(A, N, t, u_grid):
    """Breakpoints b of a discontinuous A that the lag grid crosses, by increasing lag.

    Lag u takes the coefficient at t - u/N, so b is crossed when the nodes'
    arguments straddle it: t - u_max/N <= b < t.  Continuous families
    (kinks only) are integrated straight across.
    """
    if A.is_continuous or not A.breakpoints:
        return []
    args = t + (1.0 / N) * -u_grid[[0, -1]]
    return [b for b in reversed(A.breakpoints) if args[1] <= b < args[0]]


def _simpson(A, lo, hi, f_lo, f_hi, N):
    """Simpson's rule for int A(t - x/N) dx over the lags whose arguments span [lo, hi]."""
    return N * (hi - lo) / 6.0 * (f_lo + 4.0 * A.eval(0.5 * (lo + hi)) + f_hi)


def _cut_cumulative(A, N, avals, du, args, jumps, first):
    """int_0^{u_j} A(t - x/N) dx at each lag node, cut at the ``jumps``.

    ``args`` are the nodes' coefficient arguments and ``first`` the first
    node past each jump (argument at most b).  Between two cuts the nodes
    take cumulative Simpson; a partial panel from a cut to its neighbouring
    node takes Simpson's rule with the one-sided limit at the cut: the value
    at b itself past it (A takes its left limit there), the value just
    above b before it.
    """
    cum = np.empty_like(avals)
    total = np.zeros(avals.shape[1:])
    starts, ends = [None, *jumps], [*jumps, None]
    bounds = [0, *first, len(args)]
    for start, end, ja, jb in zip(starts, ends, bounds[:-1], bounds[1:]):
        f_start = None if start is None else A.eval(start)
        f_end = None if end is None else A.eval(nudge_off_break(end))
        if ja == jb:  # no node between the two cuts
            total = total + _simpson(A, end, start, f_end, f_start, N)
            continue
        if start is not None:
            total = total + _simpson(A, args[ja], start, avals[ja], f_start, N)
        body = cumulative_simpson(avals[ja:jb], du)
        if jb - ja == 2:  # one panel: Simpson's rule instead of the trapezoid
            body[1] = _simpson(A, args[ja + 1], args[ja], avals[ja + 1], avals[ja], N)
        cum[ja:jb] = total + body
        total = total + body[-1]
        if end is not None:
            total = total + _simpson(A, end, args[jb - 1], f_end, avals[jb - 1], N)
    return cum


def _cut_panel(A, N, args, jumps, n_sub, du):
    """RK4 propagator over the lag panel whose node arguments are ``args`` (hi, lo).

    The panel is split at the ``jumps`` inside it; each piece takes steps in
    proportion to its width, and starts just above a jump (right limit) and
    ends on one (left limit).
    """
    edges = [args[1], *sorted(jumps), args[0]]
    phi = np.eye(A.shape[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi == lo:
            continue
        steps = max(1, int(round(n_sub * N * (hi - lo) / du)))
        stage = np.linspace(lo, hi, 2 * steps + 1)
        if lo in jumps:
            stage[0] = nudge_off_break(lo)
        phi = _rk4_panels(A.eval_array(stage)[None], N * (hi - lo) / steps)[0] @ phi
    return phi


def _finite_grid_values(m, N, t, u_grid, route):
    du = u_grid[1] - u_grid[0]
    shifted = m.A.reparametrized(t, 1.0 / N)
    c_vals = m.C.eval_array(t - u_grid / N)[:, :, 0]
    bt = m.B.eval_vec(t)
    jumps = _jumps_crossed(m.A, N, t, u_grid)
    if jumps:
        # The lag nodes' coefficient arguments, and the first node past each jump.
        args = t + (1.0 / N) * -u_grid
        first = np.searchsorted(-args, [-b for b in jumps])
    if route == "comm":
        # Psi(0, -u) = exp(int_0^u A(t - x/N) dx), cumulatively over the grid.
        avals = shifted.eval_array(-u_grid)
        if jumps:
            cum = _cut_cumulative(m.A, N, avals, du, args, jumps, first)
        else:
            cum = cumulative_simpson(avals, du)
        if m.p == 1:
            rows = np.exp(cum[:, 0, 0])[:, None] * bt[None, :]
        else:
            rows = bt @ matrix_exp(cum)
        return np.einsum("ji,ji->j", rows, c_vals)
    # Panel-accumulated route: row vector r_j = B(t)' Psi(0, -u_j) advances
    # one panel at a time via r_{j+1} = r_j Phi_j with Phi_j the transition
    # over s in [-u_{j+1}, -u_j].
    n_panels = len(u_grid) - 1
    norm = max(1.0, sup_norm(shifted, -u_grid[-1], 0.0))
    n_sub = max(1, int(np.ceil(du * norm / 0.05)))
    stage = np.linspace(-u_grid[-1], 0.0, 2 * n_sub * n_panels + 1)
    a_stage = shifted.eval_array(stage)
    # Panel i of the stage grid spans nodes 2 n_sub i .. 2 n_sub (i + 1);
    # it is lag panel n_panels - 1 - i, hence the reversal.
    panels = np.lib.stride_tricks.sliding_window_view(
        a_stage, 2 * n_sub + 1, axis=0)[::2 * n_sub]
    phis = _rk4_panels(np.moveaxis(panels, -1, 1), du / n_sub)[::-1]
    if jumps:
        # Rebuild each panel a jump falls in: node j before it, j + 1 past it.
        for j in sorted(set(first - 1)):
            inside = [b for b, f in zip(jumps, first) if f - 1 == j]
            phis[j] = _cut_panel(m.A, N, args[j:j + 2], inside, n_sub, du)
    values = np.empty(len(u_grid))
    row = bt.astype(float).copy()
    values[0] = row @ c_vals[0]
    for j in range(n_panels):
        row = row @ phis[j]
        values[j + 1] = row @ c_vals[j + 1]
    return values


def kernel_grid(m, N, t, u_max=None, du=0.005, certificate=None):
    """Sample the lag kernel on a uniform grid over [0, u_max].

    Finite-N kernels take the transition route that probing the visited
    window for commutativity picks: ``"comm"`` (exponential of the
    integrated coefficient) or ``"ode"`` (panel-accumulated RK4).  When a
    coefficient jumps inside the visited window, both routes cut the lag
    grid at the jump and integrate each side with its one-sided values.

    When a stability certificate is attached, ``u_max`` may be omitted (it
    defaults to the lag at which the certified envelope's squared tail
    drops to 1e-8) and the grid checks that the mass beyond u_max is
    negligible, warning otherwise.
    """
    N = _check_n(N)
    if u_max is None:
        if certificate is None:
            raise PreconditionError("kernel_grid needs u_max or a stability certificate")
        u_max = certificate.default_u_max()
    if u_max <= 0 or du <= 0:
        raise PreconditionError("u_max and du must be positive")
    n = max(2, _grid_steps(u_max, du, "kernel_grid"))
    u_grid = np.arange(n + 1) * du
    if N == "limit":
        values, route = _limit_grid_values(m, t, u_grid), None
    else:
        route = _resolve_route(m.A.reparametrized(t, 1.0 / N), (-u_grid[-1], 0.0))
        values = _finite_grid_values(m, N, t, u_grid, route)
    grid = KernelGrid(t=float(t), N=N, u_grid=u_grid, values=values, du=float(du), route=route)
    if certificate is not None:
        lo = t - u_grid[-1] / N if N != "limit" else t
        c_sup = sup_norm(m.C, lo, t) if N != "limit" else float(np.linalg.norm(m.C.eval_vec(t)))
        b_norm = float(np.linalg.norm(m.B.eval_vec(t)))
        grid.gamma = certificate.gamma * b_norm * c_sup
        grid.lam = certificate.lam
        tail = grid.tail_bound()
        mass = grid.l2_mass()
        if mass > 0 and tail > 1e-6 * mass:
            warnings.warn(
                f"kernel tail beyond u_max={u_grid[-1]:.3g} may hold "
                f"{tail:.3e} of squared mass (grid mass {mass:.3e})",
                TailMassWarning)
    return grid


def l2_distance(k1, k2):
    """L2 distance between two kernel grids sampled on the same lags."""
    if len(k1.u_grid) != len(k2.u_grid) or abs(k1.du - k2.du) > 1e-12 * max(k1.du, k2.du):
        raise GridMismatchError("kernel grids are sampled on different lag grids")
    if not np.allclose(k1.u_grid, k2.u_grid, rtol=0.0, atol=1e-9):
        raise GridMismatchError("kernel grids are sampled on different lag grids")
    return float(np.sqrt(trapezoid((k1.values - k2.values) ** 2, k1.du)))


def _distances_converge(dists):
    """The convergence verdict of both kernel and spectrum diagnostics.

    Passes when the distances to the limit, in increasing N, are
    non-increasing after the first entry and the final one is below a tenth
    of the first.
    """
    tail_ok = all(dists[i + 1] <= dists[i] + 1e-12 for i in range(1, len(dists) - 1))
    return bool(len(dists) >= 2 and tail_ok and dists[-1] < 0.1 * dists[0])


def convergence_diagnostic(m, t, N_list, u_max, du=0.005):
    """L2 distances between finite-N kernels and the limit kernel at t.

    Stability of the coefficient family is checked first on the window of
    coefficient arguments the kernels actually visit; if no sufficient
    condition verifies, the distances are still reported but labeled
    unverified.  The report passes when the distances are non-increasing
    after the first entry and the final one is below a tenth of the first.
    """
    from .stability import auto_certificate

    n_values = _check_n_list(N_list)
    window = (t - u_max / min(n_values), t)
    cert = auto_certificate(m.A, window)
    if cert.passed:
        precondition = f"verified ({cert.route} route: gamma={cert.gamma:.3g}, lam={cert.lam:.3g})"
    else:
        precondition = "unverified-preconditions"
    limit = kernel_grid(m, "limit", t, u_max, du)
    rows = []
    for N in n_values:
        fin = kernel_grid(m, N, t, u_max, du)
        rows.append((N, l2_distance(fin, limit)))
    passes = _distances_converge([d for _, d in rows])
    return ConvergenceReport(t=float(t), rows=rows, passes=passes,
                             precondition=precondition, window=window,
                             u_max=float(u_max), du=float(du))
