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

from .errors import GridMismatchError, PreconditionError, TailMassWarning
from .model import sup_norm
from .quadrature import _check_grid_budget, _grid_steps, _partition, cumulative_simpson, trapezoid
from .transition import _resolve_route, _rk4_panels, _rk4_run, matrix_exp

__all__ = [
    "KernelGrid",
    "ConvergenceReport",
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


def _cut_panels(A, args):
    """Lag panels that hold a breakpoint of A, ends included, in increasing order.

    ``args`` are the lag nodes' coefficient arguments t - u_j/N, so panel j
    spans the arguments [args[j + 1], args[j]].  A breakpoint on a lag node
    cuts both panels that share the node, so neither takes a value from the
    wrong side of it.
    """
    breaks = np.asarray(A.breakpoints)
    if not len(breaks):
        return []
    holds = (args[1:, None] <= breaks) & (breaks <= args[:-1, None])
    return np.flatnonzero(holds.any(axis=1)).tolist()


def _panel_integral(A, N, args, j):
    """int A(t - x/N) dx over lag panel j, by Simpson's rule on each piece of
    the partition of its arguments, with one-sided values at the cuts."""
    return sum(N * (hi - lo) / 6.0 * (A.eval(first) + 4.0 * A.eval(0.5 * (lo + hi)) + A.eval(hi))
               for (lo, hi), first in _partition(A, args[j + 1], args[j], lambda width: 1))


def _cumulative(A, N, avals, du, args, cut):
    """int_0^{u_j} A(t - x/N) dx at each lag node, with the ``cut`` panels
    integrated piecewise (:func:`_panel_integral`).

    Runs of uncut panels take cumulative Simpson on their nodes; a run of
    one panel takes Simpson's rule instead of the trapezoid.
    """
    cum = np.zeros_like(avals)
    start, last = 0, len(args) - 1
    for stop in [*cut, last]:  # nodes start .. stop, then cut panel stop
        if stop - start == 1:
            cum[stop] = cum[start] + _panel_integral(A, N, args, start)
        elif stop > start:
            cum[start:stop + 1] = cum[start] + cumulative_simpson(avals[start:stop + 1], du)
        if stop < last:
            cum[stop + 1] = cum[stop] + _panel_integral(A, N, args, stop)
        start = stop + 1
    return cum


def _finite_grid_values(m, N, t, u_grid, route):
    du = u_grid[1] - u_grid[0]
    c_vals = m.C.eval_array(t - u_grid / N)[:, :, 0]
    bt = m.B.eval_vec(t)
    args = t + (1.0 / N) * -u_grid  # the lag nodes' coefficient arguments
    cut = _cut_panels(m.A, args)
    if route == "comm":
        # Psi(0, -u) = exp(int_0^u A(t - x/N) dx), cumulatively over the grid.
        cum = _cumulative(m.A, N, m.A.eval_array(args), du, args, cut)
        if m.p == 1:
            rows = np.exp(cum[:, 0, 0])[:, None] * bt[None, :]
        else:
            rows = bt @ matrix_exp(cum)
        return np.einsum("ji,ji->j", rows, c_vals)
    # Panel-accumulated route: row vector r_j = B(t)' Psi(0, -u_j) advances
    # one panel at a time via r_{j+1} = r_j Phi_j with Phi_j the transition
    # over s in [-u_{j+1}, -u_j].
    n_panels = len(u_grid) - 1
    norm = max(1.0, sup_norm(m.A, args[-1], t))
    subs = np.ceil(du * norm / 0.05)
    _check_grid_budget(2 * subs * n_panels + 1, "kernel_grid RK4 stages")
    n_sub = max(1, int(subs))
    stage = np.linspace(-u_grid[-1], 0.0, 2 * n_sub * n_panels + 1)
    a_stage = m.A.eval_array(t + (1.0 / N) * stage)
    # Panel i of the stage grid spans nodes 2 n_sub i .. 2 n_sub (i + 1);
    # it is lag panel n_panels - 1 - i, hence the reversal.
    panels = np.lib.stride_tricks.sliding_window_view(
        a_stage, 2 * n_sub + 1, axis=0)[::2 * n_sub]
    phis = _rk4_panels(np.moveaxis(panels, -1, 1), du / n_sub)[::-1]
    for j in cut:  # RK4 over the panel's arguments, in steps of N times their width
        phis[j] = _rk4_run(m.A, args[j + 1], args[j], n_sub, scale=N)[0][0]
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
    coefficient has a breakpoint (a jump or a kink) inside the visited
    window, both routes cut the lag grid there and integrate each side with
    its one-sided values.

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
