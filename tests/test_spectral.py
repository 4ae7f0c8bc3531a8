"""Tests for transfer functions, spectra, covariances, and their limits."""

import math

import numpy as np
import pytest

import tvls.spectral as spectral_mod
from tvls import (
    GridConfig,
    KernelGrid,
    PostconditionError,
    PreconditionError,
    StabilityCertificate,
    TruncationWarning,
    covariance,
    kernel_grid,
    spectral_density,
    transfer_function,
    wigner_ville,
    wv_convergence,
)
from tvls.quadrature import MAX_GRID_POINTS
from tvls.spectral import _dense_fourier_sum, _fourier_route, _fourier_sum
from tvls.stability import _frozen_transfer


# ------------------------------------------------------------- fourier sum


def _decaying_weights(x, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(len(x)) * np.exp(-np.abs(x))


@pytest.mark.parametrize("x, lam", [
    (np.arange(801) * 0.01, np.linspace(-6.0, 6.0, 241)),            # ascending
    (np.arange(801) * 0.01, np.linspace(6.0, -6.0, 241)),            # descending
    (np.arange(-300, 301) * 0.05, np.linspace(-3.0, 5.0, 97)),       # symmetric s-grid
    (np.arange(401) * 0.02 + 0.7, np.linspace(0.5, 9.0, 60)),        # offset start
    (np.arange(801) * 0.01, np.linspace(-6.0, 6.0, 240).reshape(4, 6, 10)),  # N-D
], ids=["ascending", "descending", "symmetric", "offset", "nd"])
def test_fourier_sum_chirp_matches_dense(x, lam):
    w = _decaying_weights(x)
    assert _fourier_route(x, lam) == "chirp_z"
    fast = _fourier_sum(x, w, lam)
    dense = _dense_fourier_sum(x, w, lam)
    assert fast.shape == lam.shape
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("x, lam", [
    (np.arange(401) * 0.02, np.array([-3.0, -1.0, 0.0, 0.5, 4.0])),  # non-uniform mu
    (np.arange(401) * 0.02, np.array([1.5])),                        # one frequency
    (np.sqrt(np.arange(401) * 0.02), np.linspace(-2.0, 2.0, 21)),    # non-uniform x
    (np.array([0.0]), np.linspace(-2.0, 2.0, 21)),                   # one lag
], ids=["nonuniform-mu", "one-mu", "nonuniform-x", "one-x"])
def test_fourier_sum_dense_fallback_is_identical(x, lam):
    w = _decaying_weights(x, seed=1)
    assert _fourier_route(x, lam) == "dense"
    assert np.array_equal(_fourier_sum(x, w, lam), _dense_fourier_sum(x, w, lam))


def test_fourier_sum_postcondition_catches_a_bad_chirp(monkeypatch):
    x = np.arange(101) * 0.05
    lam = np.linspace(-2.0, 2.0, 41)
    real_chirp = spectral_mod._chirp_fourier_sum
    monkeypatch.setattr(spectral_mod, "_chirp_fourier_sum",
                        lambda *a: real_chirp(*a) * (1.0 + 1e-6))
    with pytest.raises(PostconditionError):
        _fourier_sum(x, _decaying_weights(x), lam)


def test_transfer_function_p2_matches_resolvent(companion_fixture):
    # Against the exact resolvent B'(i mu - A)^{-1} C the trapezoid error is
    # -h^2/12 f'(0) + O(h^4) for f(u) = e^{-i mu u} g(u); the truncated tail
    # at u_max = 20 is below e^{-40}.  Removing the h^2 term leaves O(h^4).
    h = 0.01
    m = companion_fixture
    kern = kernel_grid(m, "limit", 0.0, u_max=20.0, du=h)
    mu = np.linspace(-4.0, 4.0, 81)
    tf = transfer_function(kern, mu)
    exact = np.array([_frozen_transfer(m, 0.0, 1j * x) for x in mu])
    g0 = m.B.eval_vec(0.0) @ m.C.eval_vec(0.0)
    g1 = m.B.eval_vec(0.0) @ m.A.eval(0.0) @ m.C.eval_vec(0.0)
    leading = -h * h / 12.0 * (-1j * mu * g0 + g1)
    assert np.abs(tf - exact).max() > 1e-5  # the h^2 term is visible
    assert np.abs(tf - leading - exact).max() < 1e-8
    dens = spectral_density(m, 0.0, mu, GridConfig(u_max=20.0, du=h))
    assert dens.route == "chirp_z"
    exact_dens = m.levy.sigma_l / (2.0 * np.pi) * np.abs(exact) ** 2
    assert np.abs(dens.values - exact_dens).max() < 2e-4 * exact_dens.max()


# -------------------------------------------------------- transfer function


def test_transfer_function_car1(car1):
    kern = kernel_grid(car1, "limit", 0.0, u_max=30.0, du=0.005)
    lam = np.linspace(-5.0, 5.0, 101)
    tf = transfer_function(kern, lam)
    exact = 1.0 / (1.0 + 1j * lam)
    assert np.abs(tf - exact).max() < 1e-4


def test_transfer_function_hermitian(car1):
    kern = kernel_grid(car1, "limit", 0.0, u_max=20.0, du=0.01)
    lam = np.linspace(-3.0, 3.0, 61)
    tf = transfer_function(kern, lam)
    assert np.abs(tf - np.conj(tf[::-1])).max() < 1e-13


def test_transfer_function_zero_frequency_is_total_mass(diag_fixture):
    kern = kernel_grid(diag_fixture, "limit", 0.0, u_max=15.0, du=0.005)
    tf = transfer_function(kern, np.array([0.0]))
    # int_0^inf e^{-2u} + e^{-3u} du = 1/2 + 1/3
    assert tf[0].real == pytest.approx(5.0 / 6.0, abs=5e-5)
    assert abs(tf[0].imag) < 1e-12


def test_transfer_function_requires_causal_grid():
    grid = KernelGrid(t=0.0, N="limit", u_grid=np.array([0.5, 1.0]),
                      values=np.ones(2), du=0.5)
    with pytest.raises(PreconditionError):
        transfer_function(grid, np.array([0.0]))


# --------------------------------------------------------- spectral density


def test_spectral_density_car1(car1):
    lam = np.linspace(-5.0, 5.0, 201)
    dens = spectral_density(car1, 0.0, lam)
    exact = 1.0 / (2.0 * np.pi * (1.0 + lam**2))
    assert dens.kind == "spectral_density"
    assert np.abs(dens.values - exact).max() < 2e-4
    assert dens.values.min() >= 0.0
    assert dens.symmetry_defect() < 1e-12


def test_spectral_density_scales_with_sigma_l(car1, diag_fixture):
    import tvls

    lam = np.linspace(-2.0, 2.0, 41)
    base = spectral_density(car1, 0.0, lam)
    louder = tvls.StateSpaceModel(1, car1.A, [1.0], [1.0],
                                  {"brownian_variance": 3.0})
    scaled = spectral_density(louder, 0.0, lam)
    assert np.allclose(scaled.values, 3.0 * base.values, rtol=1e-12)


def test_spectral_density_asymmetric_grid_has_no_defect(car1):
    lam = np.linspace(0.0, 4.0, 11)  # not symmetric: defect undefined
    dens = spectral_density(car1, 0.0, lam)
    assert dens.symmetry_defect() is None


# --------------------------------------------------------------- covariance


def test_covariance_ou_closed_form(car1):
    # stationary OU: Cov(Y_N(t1), Y_N(t2)) = e^{-N |t1 - t2|} / 2
    for N, h in [(1, 0.0), (1, 1.0), (4, 0.25), (16, 0.125)]:
        got = covariance(car1, N, 0.5 + h, 0.5)
        assert got == pytest.approx(math.exp(-N * h) / 2.0, abs=2e-4)


def test_covariance_swap_symmetric(car1, tvcar1):
    for m in (car1, tvcar1):
        a = covariance(m, 4, 0.7, 0.2)
        b = covariance(m, 4, 0.2, 0.7)
        assert a == b


def test_covariance_diag_fixture_closed_form(diag_fixture):
    # int_0^inf g(s+v) g(v) dv with g(u) = e^{-2u} + e^{-3u}:
    #   0.45 e^{-2s} + (11/30) e^{-3s}
    for N, dt in [(1, 1.0), (2, 0.5), (8, 0.25)]:
        s = N * dt
        exact = 0.45 * math.exp(-2.0 * s) + (11.0 / 30.0) * math.exp(-3.0 * s)
        got = covariance(diag_fixture, N, dt, 0.0)
        assert got == pytest.approx(exact, abs=2e-4)
    var = covariance(diag_fixture, 1, 0.0, 0.0)
    assert var == pytest.approx(0.45 + 11.0 / 30.0, abs=2e-4)


# ------------------------------------------------------------- wigner-ville


def test_wigner_ville_constant_model_matches_density(car1):
    lam = np.linspace(-5.0, 5.0, 101)
    wv = wigner_ville(car1, 1, 0.0, lam)
    exact = 1.0 / (2.0 * np.pi * (1.0 + lam**2))
    assert wv.kind == "wigner_ville"
    assert wv.N == 1
    assert np.abs(wv.values - exact).max() < 5e-3
    assert wv.symmetry_defect() < 1e-10


def test_spectrum_values_own_their_data(car1):
    # a view would keep the whole transform buffer alive with the values
    lam = np.linspace(-2.0, 2.0, 21)
    assert spectral_density(car1, 0.0, lam).values.base is None
    coarse = GridConfig(u_max=20.0, du=0.05, s_max=20.0, ds=0.5)
    assert wigner_ville(car1, 1, 0.0, lam, coarse).values.base is None


def test_wigner_ville_rejects_bad_n(car1):
    lam = np.linspace(-2.0, 2.0, 21)
    for N in (0, -3, 2.5, "limit"):
        with pytest.raises(PreconditionError):
            wigner_ville(car1, N, 0.0, lam)


def test_wigner_ville_window_validation(car1):
    lam = np.linspace(-2.0, 2.0, 21)
    with pytest.raises(PreconditionError, match="budget"):
        wigner_ville(car1, 1, 0.0, lam, GridConfig(s_max=1.0, ds=0.5 / MAX_GRID_POINTS))
    for config in (GridConfig(ds=0.0), GridConfig(s_max=-1.0)):
        with pytest.raises(PreconditionError):
            wigner_ville(car1, 1, 0.0, lam, config)


def test_wigner_ville_truncation_warning(car1):
    lam = np.linspace(-2.0, 2.0, 21)
    with pytest.warns(TruncationWarning):
        wigner_ville(car1, 1, 0.0, lam, GridConfig(s_max=2.0))


# --------------------------------------------------------------- gridconfig


def test_grid_config_resolution():
    assert GridConfig().resolved_u_max() == 25.0
    assert GridConfig().resolved_s_max() == 30.0
    assert GridConfig(u_max=7.0, s_max=11.0).resolved_u_max() == 7.0
    assert GridConfig(u_max=7.0, s_max=11.0).resolved_s_max() == 11.0
    cert = StabilityCertificate(gamma=1.0, lam=2.0, route="lambda_max",
                                checked_window=(0.0, 1.0), grid_points=129)
    cfg = GridConfig(certificate=cert)
    assert cfg.resolved_u_max() == pytest.approx(cert.default_u_max())
    assert cfg.resolved_s_max() == pytest.approx(15.0)


# ------------------------------------------------------------ wv convergence


def test_wv_convergence_tanh(tvcar1):
    lam = np.linspace(-2.0, 2.0, 41)
    config = GridConfig(u_max=10.0, s_max=15.0)
    report = wv_convergence(tvcar1, 0.0, lam, [2, 8, 32], config)
    assert report.conditions.startswith("verified (lambda_max")
    assert "sup|B|=1" in report.conditions
    d = report.distances
    assert len(d) == 3
    assert d[1] < d[0] and d[2] < d[1]
    assert report.window[0] < 0.0 < report.window[1] + 1e-12


def test_wv_convergence_rejects_bad_n(tvcar1):
    lam = np.linspace(-2.0, 2.0, 21)
    for n_list in ([0, 4], [], ["limit", 4]):
        with pytest.raises(PreconditionError):
            wv_convergence(tvcar1, 0.0, lam, n_list, GridConfig(u_max=5.0, s_max=5.0))
