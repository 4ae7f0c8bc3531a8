"""Path simulation for time-varying state-space models.

A rescaled observation Y_N(t) is the output B(t)'X(Nt) of the state process
dX(s) = A(s/N) X(s) ds + C(s/N) L(ds) in driving time s.  Paths are stepped
with midpoint-frozen propagators,

    X_{k+1} = e^{A h} X_k + e^{A h/2} C(mid) dL_k,   A = A(mid/N),

which is exact for constant coefficients and second-order accurate in the
coefficient variation otherwise.  Steps subdivide until ||A|| h <= 0.1, and
substeps also end at every breakpoint of A, so no step straddles a jump or
a kink.  Stationarity at the first observation time is reached by a burn-in
segment of 12 decay times started from the zero state.

Each path owns an independent counter-based bit stream derived from the
ensemble seed, so ensembles are reproducible and embarrassingly parallel
across path chunks.  Per path and per step the Brownian part contributes
sqrt(Sigma h) z and the compound-Poisson part std sqrt(n) xi with
n ~ Poisson(rate h), which has exactly the law of a sum of n centered
Gaussian jumps.

The recurrence is linear, so the substeps between two observation times
(the burn-in counts as the first such interval) fold into one affine map
X -> Phi_k X + sum_j dL_j w_j, built once per call.  A chunk of paths
draws its increments into one (paths x substeps) buffer, reused for every
chunk, and then advances one interval per block product.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import GridMismatchError, PreconditionError, ZeroVarianceError
from .model import sup_norm
from .quadrature import _check_grid_budget, _partition
from .transition import matrix_exp

__all__ = [
    "PathEnsemble",
    "CovarianceEstimate",
    "simulate_paths",
    "empirical_covariance",
]

_CHUNK = 512


@dataclass
class PathEnsemble:
    """Independent simulated paths sharing one grid and base seed."""

    t_grid: np.ndarray
    observations: np.ndarray  # (n_paths, n_grid)
    states: np.ndarray  # (n_paths, n_grid, p) or None
    N: int
    seed: int
    burn_in: float

    @property
    def n_paths(self):
        return self.observations.shape[0]


@dataclass
class CovarianceEstimate:
    """Sample covariance with a leave-one-out (jackknife) standard error."""

    estimate: float
    stderr: float
    n_paths: int


def _build_steps(m, N, t_grid, burn_in):
    """Driving-time substeps covering burn-in plus the observation grid.

    Observation times and the breakpoints of A are both substep edges, in
    driving time.  Returns midpoints in rescaled time, driving-time widths,
    and for each grid time the number of substeps completed when it is
    reached.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise PreconditionError("t_grid must be a non-empty 1-d array")
    if len(t_grid) > 1 and not np.all(np.diff(t_grid) > 0):
        raise PreconditionError("t_grid must be strictly increasing")
    lo = t_grid[0] - burn_in / N
    norm = sup_norm(m.A, lo, t_grid[-1])
    max_ds = 0.1 / max(1.0, norm)
    bounds = np.concatenate([[N * lo], N * t_grid])
    spans = np.diff(bounds)
    # each breakpoint adds at most one substep
    _check_grid_budget(np.ceil(spans[spans > 0] / max_ds).sum() + len(m.A.breakpoints),
                       "simulate_paths substeps")
    driving = m.A.reparametrized(0.0, 1.0 / N)  # A(s/N), breakpoints in driving time
    runs = [[edges for edges, _ in _partition(driving, s1, s2, lambda w: math.ceil(w / max_ds))]
            for s1, s2 in zip(bounds[:-1], bounds[1:])]
    edges = [piece for run in runs for piece in run]
    mids = np.concatenate([0.5 * (e[1:] + e[:-1]) / N for e in edges])
    widths = np.concatenate([np.diff(e) for e in edges])
    obs_idx = np.cumsum([sum(len(e) - 1 for e in run) for run in runs]).tolist()
    return t_grid, mids, widths, obs_idx


def _interval_blocks(prop, noise_vec, edges):
    """Each observation interval's step recurrence as one affine map.

    Substeps ``edges[k]`` to ``edges[k + 1]`` take X to Phi_k X plus the sum
    over j of dL_j R_j v_j, where v_j is substep j's noise vector and R_j
    the product of the propagators after substep j up to the interval's
    end.  Returns the Phi_k and the rows R_j v_j of every substep, built in
    one backward pass.
    """
    p = prop.shape[-1]
    phis, w = [], np.empty_like(noise_vec)
    for lo, hi in zip(edges[:-1], edges[1:]):
        R = np.eye(p)
        for j in range(hi - 1, lo - 1, -1):
            w[j] = R @ noise_vec[j]
            R = R @ prop[j]
        phis.append(R)
    return phis, w


def simulate_paths(m, N, t_grid, n_paths, seed=0, certificate=None,
                   burn_in=None, store_states=False):
    """Simulate an ensemble of rescaled observation paths.

    ``seed`` is a non-negative integer; path i draws from the Philox stream
    of ``SeedSequence(seed, spawn_key=(i,))``.  ``burn_in`` is a
    driving-time run-up before the first grid time; when omitted it
    defaults to 12 decay times of the attached stability certificate (one
    of the two must be supplied).
    """
    if burn_in is None:
        if certificate is None:
            raise PreconditionError(
                "simulate_paths needs a stability certificate or an explicit burn_in")
        burn_in = 12.0 / certificate.lam
    burn_in = float(burn_in)
    if burn_in < 0:
        raise PreconditionError("burn_in must be nonnegative")
    N = int(N)
    if N < 1:
        raise PreconditionError("N must be a positive integer")
    n_paths = int(n_paths)
    if n_paths < 1:
        raise PreconditionError("n_paths must be a positive integer")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed!r}")
    levy = m.levy
    if levy.sigma_l == 0.0:
        raise ZeroVarianceError("driving noise has zero variance")
    t_grid, mids, widths, obs_idx = _build_steps(m, N, t_grid, burn_in)
    p = m.p
    n_steps = len(mids)
    n_grid = len(t_grid)
    _check_grid_budget(n_paths * n_grid * (p if store_states else 1), "simulate_paths outputs")
    # Paths per chunk, so that a chunk's noise draws stay within the budget too.
    chunk = min(_CHUNK, max(1, quadrature.MAX_GRID_POINTS // max(1, n_steps)))

    half = matrix_exp(m.A.eval_array(mids) * (0.5 * widths)[:, None, None])
    prop = half @ half
    noise_vec = (half @ m.C.eval_array(mids))[:, :, 0]
    b_vecs = [m.B.eval(t).reshape(p) for t in t_grid]

    sigma, rate, std = levy.brownian_variance, levy.jump_intensity, levy.jump_std
    g_scale = np.sqrt(sigma * widths)
    edges = [0] + obs_idx  # interval k (the burn-in is interval 0) ends at grid time k
    phis, w = _interval_blocks(prop, noise_vec, edges)
    observations = np.empty((n_paths, n_grid))
    states = np.empty((n_paths, n_grid, p)) if store_states else None

    d_l = np.empty((min(chunk, n_paths), n_steps))  # refilled for every chunk
    for c0 in range(0, n_paths, chunk):
        c1 = min(c0 + chunk, n_paths)
        nb = c1 - c0
        for ii, i in enumerate(range(c0, c1)):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
            z = rng.standard_normal(n_steps)
            counts = rng.poisson(rate * widths)
            xi = rng.standard_normal(n_steps)
            d_l[ii] = g_scale * z + std * np.sqrt(counts) * xi

        X = np.zeros((nb, p))
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if hi > lo:
                # one product per path (a stack of 1-row products), so that a
                # path's rounding does not depend on how many share its chunk
                X = X @ phis[k].T + (d_l[:nb, None, lo:hi] @ w[lo:hi])[:, 0, :]
            observations[c0:c1, k] = X @ b_vecs[k]
            if store_states:
                states[c0:c1, k] = X

    return PathEnsemble(t_grid=t_grid, observations=observations, states=states,
                        N=N, seed=int(seed), burn_in=burn_in)


def _grid_index(grid, t):
    j = int(np.argmin(np.abs(grid - t)))
    if abs(grid[j] - t) > 1e-9 * max(1.0, abs(t)):
        raise GridMismatchError(f"time {t} is not on the simulation grid")
    return j


def empirical_covariance(ensemble, t1, t2):
    """Cross-path covariance of Y(t1) and Y(t2) with a jackknife error bar.

    The standard error comes from leave-one-out recomputation of the
    centered covariance, which accounts for the randomness of both the
    products and the subtracted means.
    """
    x = ensemble.observations[:, _grid_index(ensemble.t_grid, t1)]
    y = ensemble.observations[:, _grid_index(ensemble.t_grid, t2)]
    n = len(x)
    if n < 3:
        raise PreconditionError("jackknife needs at least 3 paths")
    sx, sy, sxy = x.sum(), y.sum(), (x * y).sum()
    est = sxy / n - (sx / n) * (sy / n)
    loo = (sxy - x * y) / (n - 1) - (sx - x) * (sy - y) / (n - 1) ** 2
    stderr = float(np.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum()))
    return CovarianceEstimate(estimate=float(est), stderr=stderr, n_paths=n)
