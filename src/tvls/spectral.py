"""Frequency-domain objects: transfer functions, spectra, covariances.

The transfer function of a lag kernel g(t, .) is its Fourier transform
A(t, mu) = int e^{-i mu u} g(t, u) du, evaluated here by trapezoid
quadrature on the kernel grid (no FFT pairing constraints between the lag
and frequency grids).  The quadrature sum is computed by Bluestein's
chirp-z transform when both grids are uniform and by a dense sum
otherwise.  The limiting spectral density is

    f(t, mu) = sigma_L / (2 pi) |A(t, mu)|^2,

and the finite-N time-frequency spectrum is the Fourier transform of the
symmetrically rescaled covariance s -> Cov(Y_N(t + s/2N), Y_N(t - s/2N)),
which converges to f as N grows.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PostconditionError, PreconditionError, TruncationWarning
from .kernels import _check_n, _check_n_list, _distances_converge, kernel_grid
from .model import sup_norm
from .quadrature import _grid_steps, trapezoid, trapezoid_weights

__all__ = [
    "GridConfig",
    "SpectrumGrid",
    "WvConvergenceReport",
    "transfer_function",
    "spectral_density",
    "covariance",
    "wigner_ville",
    "wv_convergence",
]


@dataclass
class GridConfig:
    """Grid resolutions for kernel and covariance quadrature.

    Unset lag/window sizes are derived from the attached stability
    certificate (envelope tail below 1e-8 for u_max, 30 decay times for
    s_max) or fall back to fixed defaults.
    """

    u_max: float = None
    du: float = 0.005
    s_max: float = None
    ds: float = 0.05
    certificate: object = None

    def resolved_u_max(self):
        if self.u_max is not None:
            return float(self.u_max)
        if self.certificate is not None:
            return self.certificate.default_u_max()
        return 25.0

    def resolved_s_max(self):
        if self.s_max is not None:
            return float(self.s_max)
        if self.certificate is not None:
            return 30.0 / self.certificate.lam
        return 30.0


@dataclass
class SpectrumGrid:
    """Real spectrum values on a frequency grid."""

    t: float
    lambda_grid: np.ndarray
    values: np.ndarray
    kind: str  # "spectral_density" or "wigner_ville"
    N: object = None
    route: str = None  # Fourier-sum route: "chirp_z" or "dense"

    def symmetry_defect(self):
        """Max |f(mu) - f(-mu)| when the grid itself is symmetric."""
        lg = self.lambda_grid
        if not np.allclose(lg + lg[::-1], 0.0, atol=1e-12 * (1 + abs(lg[-1]))):
            return None
        return float(np.abs(self.values - self.values[::-1]).max())


@dataclass
class WvConvergenceReport:
    """Distances between finite-N spectra and the limiting density."""

    t: float
    rows: list  # (N, distance) pairs
    passes: bool
    conditions: str
    window: tuple

    @property
    def distances(self):
        return [d for _, d in self.rows]


# A grid is uniform when it deviates from x_0 + k dx by rounding only.
_UNIFORM_RTOL = 1e-12
# The chirp-z postcondition: spot values agree with the dense sum to this
# fraction of max |result|.
_CHIRP_CHECK_RTOL = 1e-9


def _uniform_step(grid):
    """Step dx when the flat grid is x_0 + k dx for k = 0..n-1, else None."""
    if grid.size < 2 or not np.isfinite(grid).all():
        return None
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    ideal = grid[0] + step * np.arange(grid.size)
    if np.abs(grid - ideal).max() > _UNIFORM_RTOL * np.abs(grid).max():
        return None
    return step


def _fourier_route(x_grid, lambda_grid):
    """The route `_fourier_sum` takes on these grids."""
    if _uniform_step(x_grid) is None or _uniform_step(np.ravel(lambda_grid)) is None:
        return "dense"
    return "chirp_z"


def _dense_fourier_sum(x_grid, weighted, lambda_grid):
    """sum_n weighted_n e^{-i mu x_n} by chunked dense exponentials."""
    flat = lambda_grid.ravel()
    out = np.empty(flat.shape, dtype=complex)
    chunk = max(1, 2_000_000 // max(1, len(x_grid)))
    for i in range(0, len(flat), chunk):
        block = flat[i:i + chunk]
        out[i:i + chunk] = np.exp(-1j * np.outer(block, x_grid)) @ weighted
    return out.reshape(lambda_grid.shape)


def _chirp_fourier_sum(x_grid, weighted, mu):
    """Bluestein's chirp-z form of the same sum on uniform grids.

    With x_n = x_0 + n dx, mu_k = mu_0 + k dmu and alpha = dmu dx, the
    identity kn = (k^2 + n^2 - (k - n)^2) / 2 turns the sum into
    e^{-i mu_k x_0} e^{-i alpha k^2/2} sum_n y_n e^{i alpha (k - n)^2 / 2}
    with y_n = weighted_n e^{-i (mu_0 dx n + alpha n^2 / 2)}, a linear
    convolution done with three FFTs.
    """
    n_x, n_mu = len(x_grid), len(mu)
    dx, dmu = _uniform_step(x_grid), _uniform_step(mu)
    alpha = dmu * dx
    size = 1 << (n_x + n_mu - 2).bit_length()
    n = np.arange(n_x, dtype=float)
    y = np.zeros(size, dtype=complex)
    y[:n_x] = weighted * np.exp(-1j * (mu[0] * dx * n + 0.5 * alpha * n**2))
    lags = np.arange(size, dtype=float)
    lags[n_mu:] -= size  # slots n_mu..size-1 hold the negative differences k - n
    chirp = np.exp(0.5j * alpha * lags**2)
    conv = np.fft.ifft(np.fft.fft(y) * np.fft.fft(chirp))[:n_mu]
    k = np.arange(n_mu, dtype=float)
    return np.exp(-1j * (mu * x_grid[0] + 0.5 * alpha * k**2)) * conv


def _fourier_sum(x_grid, weighted, lambda_grid):
    """sum_n weighted_n e^{-i mu x_n} for every mu in ``lambda_grid``.

    Uniform grids with at least two points each take the chirp-z route,
    spot-checked against the dense sum at the first, middle and last
    frequency (its phase rounding grows with dmu dx (n_mu^2 + n_x^2));
    any other grid takes the dense route.  N-D frequency grids are
    flattened and the result reshaped.
    """
    if _fourier_route(x_grid, lambda_grid) == "dense":
        return _dense_fourier_sum(x_grid, weighted, lambda_grid)
    mu = lambda_grid.ravel()
    out = _chirp_fourier_sum(x_grid, weighted, mu)
    spots = np.array([0, len(mu) // 2, len(mu) - 1])
    gap = np.abs(out[spots] - _dense_fourier_sum(x_grid, weighted, mu[spots])).max()
    scale = np.abs(out).max()
    if gap > _CHIRP_CHECK_RTOL * scale:
        raise PostconditionError(
            f"chirp-z transform differs from the dense sum by {gap:.3e} "
            f"(max |result| {scale:.3e})")
    return out.reshape(lambda_grid.shape)


def transfer_function(kern, lambda_grid):
    """Fourier transform of a kernel grid by trapezoid quadrature.

    Returns complex values A(mu) = int_0^{u_max} e^{-i mu u} g(u) du on
    the supplied frequency grid.
    """
    lam = np.asarray(lambda_grid, dtype=float)
    u = kern.u_grid
    if u[0] != 0.0:
        raise PreconditionError("transfer_function expects a causal grid starting at lag 0")
    return _fourier_sum(u, trapezoid_weights(len(u), kern.du) * kern.values, lam)


def spectral_density(m, t, lambda_grid, config=None):
    """Limiting spectral density sigma_L/(2 pi) |A(t, mu)|^2 at time t."""
    config = config or GridConfig()
    kern = kernel_grid(m, "limit", t, config.resolved_u_max(), config.du,
                       certificate=config.certificate)
    lam = np.asarray(lambda_grid, dtype=float)
    tf = transfer_function(kern, lam)
    vals = m.levy.sigma_l / (2.0 * np.pi) * (tf.real**2 + tf.imag**2)
    return SpectrumGrid(t=float(t), lambda_grid=lam, values=vals, kind="spectral_density",
                        route=_fourier_route(kern.u_grid, lam))


def covariance(m, N, t1, t2, config=None):
    """Cov(Y_N(t1), Y_N(t2)) by overlap quadrature of the two lag kernels.

    Writing the shift Nh = N (t1 - t2) >= 0, the covariance equals
    sigma_L int_0^inf g_N(N t1, Nh + v) g_N(N t2, v) dv; the first kernel
    is sampled on its own grid and read off at the shifted lags.
    """
    config = config or GridConfig()
    if t1 < t2:
        t1, t2 = t2, t1
    u_max = config.resolved_u_max()
    du = config.du
    k2 = kernel_grid(m, N, t2, u_max, du)
    shift = N * (t1 - t2)
    if shift == 0.0:
        integrand = k2.values**2
    else:
        n1 = int(np.ceil((shift + u_max) / du)) + 1
        k1 = kernel_grid(m, N, t1, n1 * du, du)
        vals1 = np.interp(shift + k2.u_grid, k1.u_grid, k1.values)
        integrand = vals1 * k2.values
    return float(m.levy.sigma_l * trapezoid(integrand, du))


def wigner_ville(m, N, t, lambda_grid, config=None):
    """Finite-N time-frequency spectrum at rescaled time t.

    Fourier-transforms the symmetrically rescaled covariance
    c(s) = Cov(Y_N(t + s/2N), Y_N(t - s/2N)) over s in [-s_max, s_max],
    exploiting c(-s) = c(s).  Warns when the window truncates c before it
    has decayed; the imaginary part of the transform must vanish and is
    checked before being discarded.
    """
    N = _check_n(N)
    if N == "limit":
        raise PreconditionError("wigner_ville needs a positive integer N")
    config = config or GridConfig()
    lam = np.asarray(lambda_grid, dtype=float)
    s_max = config.resolved_s_max()
    ds = config.ds
    if s_max <= 0 or ds <= 0:
        raise PreconditionError("s_max and ds must be positive")
    n_s = max(2, _grid_steps(s_max, ds, "covariance window"))
    s_grid = np.arange(n_s + 1) * ds
    c_vals = np.empty(n_s + 1)
    half = 0.5 / N
    for j, s in enumerate(s_grid):
        c_vals[j] = covariance(m, N, t + s * half, t - s * half, config)
    if abs(c_vals[-1]) > 1e-4 * max(abs(c_vals[0]), 1e-300):
        warnings.warn(
            f"covariance window s_max={s_grid[-1]:.3g} truncates before decay "
            f"(|c(s_max)|/|c(0)| = {abs(c_vals[-1]) / abs(c_vals[0]):.2e})",
            TruncationWarning)
    s_full = np.concatenate([-s_grid[:0:-1], s_grid])
    c_full = np.concatenate([c_vals[:0:-1], c_vals])
    vals = _fourier_sum(s_full, trapezoid_weights(len(s_full), ds) * c_full, lam)
    vals /= 2.0 * np.pi
    scale = np.abs(vals.real).max()
    if np.abs(vals.imag).max() > 1e-8 * max(scale, 1e-300):
        raise PostconditionError("time-frequency transform has a non-vanishing imaginary part")
    # a copy, so that a kept spectrum does not hold the complex buffer too
    return SpectrumGrid(t=float(t), lambda_grid=lam, values=vals.real.copy(),
                        kind="wigner_ville", N=N, route=_fourier_route(s_full, lam))


def _spectrum_l2(grid_a, grid_b):
    la, lb = grid_a.lambda_grid, grid_b.lambda_grid
    if len(la) != len(lb) or not np.allclose(la, lb, rtol=0.0, atol=1e-9):
        raise PreconditionError("spectrum grids must share the frequency grid")
    return float(np.sqrt(trapezoid((grid_a.values - grid_b.values) ** 2, la[1] - la[0])))


def wv_convergence(m, t, lambda_grid, N_list, config=None):
    """Distances between finite-N spectra and the limit density at t.

    Sufficient conditions (a stability certificate for the coefficient
    family plus bounded observation/noise vectors on the visited window)
    are checked first and reported; when none verifies the distances are
    still computed but labeled accordingly.  Passing means non-increasing
    distances after the first entry with the final below a tenth of the
    first.
    """
    from .stability import auto_certificate

    n_values = _check_n_list(N_list)
    config = config or GridConfig()
    n_min = min(n_values)
    s_max = config.resolved_s_max()
    u_max = config.resolved_u_max()
    window = (t - (s_max / 2.0 + s_max + u_max) / n_min, t + s_max / (2.0 * n_min))
    cert = config.certificate or auto_certificate(m.A, window)
    if cert.passed:
        b_sup = sup_norm(m.B, window[0], window[1])
        c_sup = sup_norm(m.C, window[0], window[1])
        conditions = (f"verified ({cert.route}: gamma={cert.gamma:.3g}, lam={cert.lam:.3g}; "
                      f"sup|B|={b_sup:.3g}, sup|C|={c_sup:.3g})")
    else:
        conditions = "unverified-preconditions"
    limit = spectral_density(m, t, lambda_grid, config)
    rows = []
    for N in n_values:
        wv = wigner_ville(m, N, t, lambda_grid, config)
        rows.append((N, _spectrum_l2(wv, limit)))
    passes = _distances_converge([d for _, d in rows])
    return WvConvergenceReport(t=float(t), rows=rows, passes=passes,
                               conditions=conditions, window=window)
