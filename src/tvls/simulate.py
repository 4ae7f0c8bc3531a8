"""Path simulation for time-varying state-space models.

A rescaled observation Y_N(t) is the output B(t)'X(Nt) of the state process
dX(s) = A(s/N) X(s) ds + C(s/N) L(ds) in driving time s.  Paths are stepped
with midpoint-frozen propagators,

    X_{k+1} = e^{A h} X_k + e^{A h/2} C(mid) dL_k,   A = A(mid/N),

which is exact for constant coefficients and second-order accurate in the
coefficient variation otherwise.  Steps subdivide until ||A|| h <= 0.1, and
stationarity at the first observation time is reached by a burn-in segment
of 12 decay times started from the zero state.

Each path owns an independent counter-based bit stream derived from the
ensemble seed, so ensembles are reproducible and embarrassingly parallel
across path chunks.  Per path and per step the Brownian part contributes
sqrt(Sigma h) z and the compound-Poisson part std sqrt(n) xi with
n ~ Poisson(rate h), which has exactly the law of a sum of n centered
Gaussian jumps.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import GridMismatchError, PreconditionError, ZeroVarianceError
from .model import sup_norm
from .quadrature import _check_grid_budget
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

    Returns midpoints in rescaled time, driving-time widths, and for each
    grid time the number of substeps completed when it is reached.
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
    _check_grid_budget(np.ceil(spans[spans > 0] / max_ds).sum(), "simulate_paths substeps")
    mids, widths, obs_idx = [], [], []
    done = 0
    for k in range(len(bounds) - 1):
        s1, s2 = bounds[k], bounds[k + 1]
        if s2 > s1:
            n_sub = int(np.ceil((s2 - s1) / max_ds))
            edges = np.linspace(s1, s2, n_sub + 1)
            mids.extend(0.5 * (edges[1:] + edges[:-1]) / N)
            widths.extend(np.diff(edges))
            done += n_sub
        obs_idx.append(done)
    return t_grid, np.asarray(mids), np.asarray(widths), obs_idx


def simulate_paths(m, N, t_grid, n_paths, seed=0, certificate=None,
                   burn_in=None, store_states=False):
    """Simulate an ensemble of rescaled observation paths.

    ``burn_in`` is a driving-time run-up before the first grid time; when
    omitted it defaults to 12 decay times of the attached stability
    certificate (one of the two must be supplied).
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
    observations = np.empty((n_paths, n_grid))
    states = np.empty((n_paths, n_grid, p)) if store_states else None

    for c0 in range(0, n_paths, chunk):
        c1 = min(c0 + chunk, n_paths)
        nb = c1 - c0
        z = np.empty((nb, n_steps))
        counts = np.empty((nb, n_steps))
        xi = np.empty((nb, n_steps))
        for ii, i in enumerate(range(c0, c1)):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
            z[ii] = rng.standard_normal(n_steps)
            counts[ii] = rng.poisson(rate * widths)
            xi[ii] = rng.standard_normal(n_steps)
        d_l = g_scale[None, :] * z + std * np.sqrt(counts) * xi

        X = np.zeros((nb, p))
        oi = 0
        while oi < n_grid and obs_idx[oi] == 0:
            observations[c0:c1, oi] = X @ b_vecs[oi]
            if store_states:
                states[c0:c1, oi] = X
            oi += 1
        for j in range(n_steps):
            X = X @ prop[j].T + d_l[:, j:j + 1] * noise_vec[j][None, :]
            while oi < n_grid and obs_idx[oi] == j + 1:
                observations[c0:c1, oi] = X @ b_vecs[oi]
                if store_states:
                    states[c0:c1, oi] = X
                oi += 1

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
