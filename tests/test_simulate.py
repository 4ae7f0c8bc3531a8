"""Tests for path simulation and Monte Carlo covariance estimates."""

import math

import numpy as np
import pytest

from tvls import (
    GridMismatchError,
    LevyModel,
    MatrixFunction,
    PreconditionError,
    StateSpaceModel,
    ZeroVarianceError,
    covariance,
    empirical_covariance,
    lambda_max_check,
    simulate_paths,
)
from tvls.simulate import _build_steps


def ou_grid():
    # N = 20 so the rescaled spacing 0.05 is one unit of driving time
    return np.arange(11) * 0.05


def test_ou_stationary_moments(car1):
    ens = simulate_paths(car1, 20, ou_grid(), n_paths=3000, seed=123, burn_in=12.0)
    var = empirical_covariance(ens, 0.25, 0.25)
    assert var.stderr < 0.03
    assert abs(var.estimate - 0.5) < 3.0 * var.stderr
    # driving-time lag 1: autocovariance e^{-1}/2
    lag = empirical_covariance(ens, 0.25, 0.30)
    assert abs(lag.estimate - math.exp(-1.0) / 2.0) < 3.0 * lag.stderr


def test_jump_matched_moments(brownian):
    # Brownian variance 0.5 plus jumps contributing rate * std^2 = 0.5
    levy = LevyModel(brownian_variance=0.5, jump_intensity=2.0, jump_std=0.5)
    assert levy.sigma_l == pytest.approx(1.0)
    A = MatrixFunction([[-1.0]], what="A")
    m = StateSpaceModel(1, A, [1.0], [1.0], levy)
    ens = simulate_paths(m, 20, ou_grid(), n_paths=3000, seed=7, burn_in=12.0)
    var = empirical_covariance(ens, 0.25, 0.25)
    assert abs(var.estimate - 0.5) < 3.0 * var.stderr
    lag = empirical_covariance(ens, 0.25, 0.30)
    assert abs(lag.estimate - math.exp(-1.0) / 2.0) < 3.0 * lag.stderr


def test_simulation_deterministic(car1):
    a = simulate_paths(car1, 4, ou_grid(), n_paths=8, seed=42, burn_in=6.0)
    b = simulate_paths(car1, 4, ou_grid(), n_paths=8, seed=42, burn_in=6.0)
    assert np.array_equal(a.observations, b.observations)
    c = simulate_paths(car1, 4, ou_grid(), n_paths=8, seed=43, burn_in=6.0)
    assert not np.array_equal(a.observations, c.observations)


def test_paths_keyed_by_index_not_ensemble_size(car1):
    # path i draws from a stream keyed by (seed, i), so enlarging the
    # ensemble must not change earlier paths
    small = simulate_paths(car1, 4, ou_grid(), n_paths=2, seed=11, burn_in=6.0)
    large = simulate_paths(car1, 4, ou_grid(), n_paths=5, seed=11, burn_in=6.0)
    assert np.array_equal(small.observations, large.observations[:2])


def test_paths_do_not_depend_on_chunking(car1, monkeypatch):
    # a smaller grid budget splits the ensemble into chunks of fewer paths
    ref = simulate_paths(car1, 4, ou_grid(), n_paths=7, seed=5, burn_in=6.0, store_states=True)
    n_steps = len(_build_steps(car1, 4, ou_grid(), 6.0)[1])
    monkeypatch.setattr("tvls.quadrature.MAX_GRID_POINTS", 2 * n_steps + 1)  # 2 paths a chunk
    small = simulate_paths(car1, 4, ou_grid(), n_paths=7, seed=5, burn_in=6.0, store_states=True)
    assert np.array_equal(small.observations, ref.observations)
    assert np.array_equal(small.states, ref.states)


def test_path_sample_fields(car1):
    ens = simulate_paths(car1, 4, ou_grid(), n_paths=1, seed=3, burn_in=6.0,
                         store_states=True)
    assert ens.n_paths == 1
    assert ens.N == 4
    assert ens.seed == 3
    assert ens.burn_in == 6.0
    assert ens.observations.shape == (1, 11)
    assert ens.states.shape == (1, 11, 1)
    # observation is B' X with B = 1
    assert np.allclose(ens.observations, ens.states[:, :, 0])


def test_states_option(diag_fixture):
    grid = np.arange(5) * 0.25
    ens = simulate_paths(diag_fixture, 2, grid, n_paths=4, seed=1,
                         burn_in=6.0, store_states=True)
    assert ens.states.shape == (4, 5, 2)
    # B = (1, 1)': observations are the state coordinate sums
    assert np.allclose(ens.observations, ens.states.sum(axis=2), atol=1e-12)
    ens2 = simulate_paths(diag_fixture, 2, grid, n_paths=4, seed=1, burn_in=6.0)
    assert ens2.states is None
    assert np.array_equal(ens2.observations, ens.observations)


def test_certificate_supplies_burn_in(car1):
    cert = lambda_max_check(car1.A, (-15.0, 1.0))
    ens = simulate_paths(car1, 4, ou_grid(), n_paths=3, seed=0, certificate=cert)
    assert ens.burn_in == pytest.approx(12.0 / cert.lam)
    with pytest.raises(PreconditionError):
        simulate_paths(car1, 4, ou_grid(), n_paths=3, seed=0)


def test_monte_carlo_matches_quadrature(tvcar1):
    # time-varying damping: simulated covariances vs overlap quadrature
    grid = np.array([0.25, 0.375])
    ens = simulate_paths(tvcar1, 8, grid, n_paths=4000, seed=17, burn_in=14.0)
    var = empirical_covariance(ens, 0.25, 0.25)
    var_quad = covariance(tvcar1, 8, 0.25, 0.25)
    assert abs(var.estimate - var_quad) < 3.5 * var.stderr
    cov = empirical_covariance(ens, 0.25, 0.375)
    cov_quad = covariance(tvcar1, 8, 0.25, 0.375)
    assert abs(cov.estimate - cov_quad) < 3.5 * cov.stderr


def test_burn_in_doubling_is_immaterial(tvcar1):
    grid = np.array([0.0, 0.125])
    a = simulate_paths(tvcar1, 8, grid, n_paths=2000, seed=5, burn_in=12.0)
    b = simulate_paths(tvcar1, 8, grid, n_paths=2000, seed=5, burn_in=24.0)
    va = empirical_covariance(a, 0.0, 0.0)
    vb = empirical_covariance(b, 0.0, 0.0)
    assert abs(va.estimate - vb.estimate) < 3.0 * (va.stderr + vb.stderr)


def test_grid_mismatch(car1):
    ens = simulate_paths(car1, 4, ou_grid(), n_paths=3, seed=0, burn_in=6.0)
    with pytest.raises(GridMismatchError):
        empirical_covariance(ens, 0.25, 0.2501)


def test_jackknife_needs_three_paths(car1):
    ens = simulate_paths(car1, 4, ou_grid(), n_paths=2, seed=0, burn_in=6.0)
    with pytest.raises(PreconditionError):
        empirical_covariance(ens, 0.0, 0.25)


def test_zero_variance_rejected():
    A = MatrixFunction([[-1.0]], what="A")
    silent = StateSpaceModel(1, A, [1.0], [1.0], LevyModel(brownian_variance=0.0))
    with pytest.raises(ZeroVarianceError):
        simulate_paths(silent, 1, ou_grid(), n_paths=3, seed=0, burn_in=6.0)


def test_simulation_validation(car1):
    with pytest.raises(PreconditionError):
        simulate_paths(car1, 0, ou_grid(), n_paths=3, seed=0, burn_in=6.0)
    with pytest.raises(PreconditionError):
        simulate_paths(car1, 4, ou_grid(), n_paths=0, seed=0, burn_in=6.0)
    with pytest.raises(PreconditionError):
        simulate_paths(car1, 4, ou_grid(), n_paths=3, seed=0, burn_in=-1.0)
    with pytest.raises(PreconditionError):
        simulate_paths(car1, 4, np.array([0.0, 0.0, 1.0]), n_paths=3,
                       seed=0, burn_in=6.0)
    with pytest.raises(PreconditionError):
        simulate_paths(car1, 4, np.empty(0), n_paths=3, seed=0, burn_in=6.0)


def test_jackknife_stderr_scales(car1):
    small = simulate_paths(car1, 20, ou_grid(), n_paths=500, seed=9, burn_in=12.0)
    big = simulate_paths(car1, 20, ou_grid(), n_paths=8000, seed=9, burn_in=12.0)
    se_small = empirical_covariance(small, 0.25, 0.25).stderr
    se_big = empirical_covariance(big, 0.25, 0.25).stderr
    # 16x the paths should shrink the error bar by about 4x
    assert se_big < 0.45 * se_small
