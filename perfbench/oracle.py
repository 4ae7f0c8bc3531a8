"""Reference values for the benchmark, computed with numpy and scipy only.

Nothing here imports tvls: the model JSON is read by its own small parser
(constant and affine entries, which is all ``model.json`` uses), and every
quantity comes from an independent route:

* finite-N covariances from the state-variance ODE
  P' = A P + P A' + sigma_L C C' and the transition ODE Psi' = A Psi,
  integrated with ``scipy.integrate.solve_ivp`` at rtol 1e-12;
* limit spectral densities from the exact frozen-time resolvent
  sigma_L / (2 pi) |B' (i mu - A)^-1 C|^2.

Driving time is x = N t, so the state matrix seen at driving time x is
A(x / N).
"""

import json

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

RTOL = 1e-12
ATOL = 1e-14
# Driving-time run-up of the state-variance ODE, started from the frozen
# (Lyapunov) variance, whose error is O(1/N).  For t in [0, 1] the run-up
# reaches back to rescaled time -0.8, where the slowest mode of the
# benchmark model decays at rate 1.4, so the start error shrinks by
# e^{-2 * 1.4 * 10} ~ 1e-12.
BURN = 10.0


def _entry(obj):
    if isinstance(obj, (int, float)):
        return float(obj), 0.0
    if isinstance(obj, dict) and obj.get("family") == "constant":
        return float(obj["params"][0]), 0.0
    if isinstance(obj, dict) and obj.get("family") == "affine":
        a, b = obj["params"]
        return float(a), float(b)
    raise ValueError(f"oracle model entries must be constant or affine, got {obj!r}")


class AffineModel:
    """State-space model whose coefficients are affine in t: M(t) = M0 + t M1."""

    def __init__(self, obj):
        def split(rows):
            pairs = [[_entry(e) for e in row] for row in rows]
            return (np.array([[a for a, _ in row] for row in pairs]),
                    np.array([[b for _, b in row] for row in pairs]))

        self.p = int(obj["p"])
        self.A0, self.A1 = split(obj["A"])
        self.B0, self.B1 = (m[:, 0] for m in split([[e] for e in obj["B"]]))
        self.C0, self.C1 = (m[:, 0] for m in split([[e] for e in obj["C"]]))
        levy = obj["levy"]
        self.sigma_l = (float(levy["brownian_variance"])
                        + float(levy.get("jump_intensity", 0.0)) * float(levy.get("jump_std", 0.0)) ** 2)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def A(self, t):
        return self.A0 + t * self.A1

    def B(self, t):
        return self.B0 + t * self.B1

    def C(self, t):
        return self.C0 + t * self.C1


def state_variance(model, N, x_start, x_eval, P0=None):
    """P(x) = Var X(x) at the sorted driving times ``x_eval``, from P(x_start) = P0 (default 0)."""
    p = model.p

    def rhs(x, y):
        P = y.reshape(p, p)
        a = model.A(x / N)
        c = model.C(x / N)
        return (a @ P + P @ a.T + model.sigma_l * np.outer(c, c)).ravel()

    y0 = np.zeros(p * p) if P0 is None else np.asarray(P0, dtype=float).ravel()
    x_eval = np.asarray(x_eval, dtype=float)
    sol = solve_ivp(rhs, (x_start, x_eval[-1]), y0, method="DOP853",
                    t_eval=x_eval, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"state-variance ODE failed: {sol.message}")
    return sol.y.T.reshape(-1, p, p)


def fundamental(model, N, x0, x_eval):
    """Phi(x) = Psi(x, x0) at the sorted driving times ``x_eval`` >= x0."""
    p = model.p

    def rhs(x, y):
        return (model.A(x / N) @ y.reshape(p, p)).ravel()

    x_eval = np.asarray(x_eval, dtype=float)
    sol = solve_ivp(rhs, (x0, x_eval[-1]), np.eye(p).ravel(), method="DOP853",
                    t_eval=x_eval, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"transition ODE failed: {sol.message}")
    return sol.y.T.reshape(-1, p, p)


def output_covariance(model, N, t1, t2, P2):
    """Cov(Y(t1), Y(t2)) for t1 >= t2, given P2 = Var X(N t2)."""
    psi = fundamental(model, N, N * t2, [N * t1])[0]
    return float(model.B(t1) @ psi @ P2 @ model.B(t2))


def symmetric_covariance(model, N, t, s_grid):
    """c(s) = Cov(Y_N(t + s/2N), Y_N(t - s/2N)) on a grid of s >= 0.

    The process is stationary from the infinite past: P starts at the
    frozen variance a ``BURN`` run-up before the earliest state it is
    needed at.  One
    fundamental matrix Phi over the window gives every propagator as
    Psi(x1, x2) = Phi(x1) Phi(x2)^-1; the window spans a few decay times,
    so Phi stays well conditioned.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    x_lo = N * t - s_grid / 2.0
    x_hi = N * t + s_grid / 2.0
    lo, lo_index = np.unique(x_lo, return_inverse=True)
    x0 = lo[0] - BURN
    c0 = model.C(x0 / N)
    P0 = solve_continuous_lyapunov(model.A(x0 / N), -model.sigma_l * np.outer(c0, c0))
    P = state_variance(model, N, x0, lo, P0)[lo_index]
    xs, index = np.unique(np.concatenate([x_lo, x_hi]), return_inverse=True)
    phi = fundamental(model, N, xs[0], xs)[index]
    n = len(s_grid)
    out = np.empty(n)
    for j, s in enumerate(s_grid):
        psi = phi[n + j] @ np.linalg.inv(phi[j])
        out[j] = model.B(t + s / (2.0 * N)) @ psi @ P[j] @ model.B(t - s / (2.0 * N))
    return out


def trapezoid_spectrum(c_vals, ds, lambda_grid):
    """(1 / 2 pi) sum_s w_s c(s) e^{-i mu s} over the symmetric grid [-s_max, s_max].

    ``c_vals`` holds c(j ds) for j = 0 .. n; c(-s) = c(s), so the sum is a
    cosine sum with trapezoid weights.
    """
    c_vals = np.asarray(c_vals, dtype=float)
    s = np.arange(len(c_vals)) * ds
    w = np.full(len(c_vals), 2.0 * ds)
    w[0] = ds
    w[-1] = ds  # the two endpoints +-s_max each carry ds/2
    lam = np.asarray(lambda_grid, dtype=float)
    return np.cos(np.outer(lam, s)) @ (w * c_vals) / (2.0 * np.pi)


def limit_spectral_density(model, t, lambda_grid):
    """sigma_L / (2 pi) |B(t)' (i mu - A(t))^-1 C(t)|^2 by dense solves."""
    lam = np.asarray(lambda_grid, dtype=float)
    a, b, c = model.A(t), model.B(t), model.C(t)
    mats = 1j * lam[:, None, None] * np.eye(model.p) - a
    rhs = np.broadcast_to(c.astype(complex), (len(lam), model.p))[..., None]
    h = np.linalg.solve(mats, rhs)[..., 0] @ b
    return model.sigma_l / (2.0 * np.pi) * np.abs(h) ** 2


def relative_error(values, reference):
    """max |values - reference| / max |reference| (sup-norm relative error)."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.abs(values - reference).max() / np.abs(reference).max())
