"""Tests for path simulation and Monte Carlo covariance estimates."""

import math
import tracemalloc

import numpy as np
import pytest

from tvls import (
    GridMismatchError,
    LevyModel,
    MatrixFunction,
    PiecewisePolynomial,
    PreconditionError,
    StateSpaceModel,
    Step,
    ZeroVarianceError,
    auto_certificate,
    covariance,
    empirical_covariance,
    lambda_max_check,
    simulate_paths,
)
from tvls.simulate import _CHUNK, _build_steps
from tvls.transition import matrix_exp


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


def _step_model(t_break, a_left=1.0, a_right=3.0):
    """dX = -a X ds + dL, Y = X, with the damping a jumping from a_left to a_right."""
    A = MatrixFunction([[Step(t_break, -a_left, -a_right)]], what="A")
    return StateSpaceModel(1, A, [1.0], [1.0], {"brownian_variance": 1.0})


@pytest.mark.parametrize("N", [4, 16, 64])
def test_substeps_end_at_a_jump(N):
    # a jump of the damping from 1 to 3 at 0.513 inside [0.4, 0.6]; a substep
    # straddling it was off exp(-int a) by 3.0e-2, 1.6e-2 and 2.7e-3
    m = _step_model(0.513)
    _, mids, widths, _ = _build_steps(m, N, np.array([0.4, 0.6]), 0.0)
    product = np.prod(np.exp(m.A.eval_array(mids)[:, 0, 0] * widths))
    exact = math.exp(-N * (0.513 - 0.4) - 3.0 * N * (0.6 - 0.513))
    assert abs(product / exact - 1.0) <= 1e-13


@pytest.mark.parametrize("kind", ["kink", "jump"])
def test_breakpoint_on_an_observation_time_adds_no_substep(kind):
    # at N = 16 the breakpoint 0.5 is the driving time 8, an observation time
    t_grid, N = np.array([0.4, 0.5, 0.6]), 16
    if kind == "kink":
        a = PiecewisePolynomial([0.5], [[-0.5, -1.0], [-1.5, 1.0]])
        m = StateSpaceModel(1, MatrixFunction([[a]], what="A"), [1.0], [1.0],
                            {"brownian_variance": 1.0})
    else:
        m = _step_model(0.5)
    _, mids, widths, obs_idx = _build_steps(m, N, t_grid, 0.0)
    # ||A|| h <= 0.1 over 1.6 driving-time units on each side
    per_side = 48 if kind == "jump" else 16
    assert obs_idx == [0, per_side, 2 * per_side]
    # midpoint rule: exact for a piecewise-linear exponent
    integral = -1.6 - 3.0 * 1.6 if kind == "jump" else -N * 0.19
    product = np.prod(np.exp(m.A.eval_array(mids)[:, 0, 0] * widths))
    assert abs(product / math.exp(integral) - 1.0) <= 1e-13


def test_variance_across_a_jump_matches_the_piecewise_closed_form():
    # the damping jumps from 1 to 3 at 0.513: the state variance solves
    # P' = -2 a P + sigma_L in driving time on each side, from P = 1/2
    m = _step_model(0.513)
    N, t_grid = 16, np.array([0.5, 0.52, 0.55])
    ens = simulate_paths(m, N, t_grid, n_paths=4000, seed=29, burn_in=12.0)
    for t in t_grid:
        after = max(0.0, N * (t - 0.513))
        exact = 1.0 / 6.0 + (0.5 - 1.0 / 6.0) * math.exp(-6.0 * after)
        var = empirical_covariance(ens, t, t)
        assert abs(var.estimate - exact) < 4.0 * var.stderr


def step_loop_paths(m, N, t_grid, n_paths, seed, burn_in):
    """Observations and states of the substep recurrence, one substep at a
    time, from the increments of each path's own stream: the pathwise
    oracle of the interval blocks."""
    t_grid, mids, widths, obs_idx = _build_steps(m, N, t_grid, burn_in)
    half = matrix_exp(m.A.eval_array(mids) * (0.5 * widths)[:, None, None])
    prop = half @ half
    noise_vec = (half @ m.C.eval_array(mids))[:, :, 0]
    levy = m.levy
    d_l = np.empty((n_paths, len(mids)))
    for i in range(n_paths):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
        z = rng.standard_normal(len(mids))
        counts = rng.poisson(levy.jump_intensity * widths)
        xi = rng.standard_normal(len(mids))
        d_l[i] = np.sqrt(levy.brownian_variance * widths) * z + levy.jump_std * np.sqrt(counts) * xi
    X = np.zeros((n_paths, m.p))
    states = np.empty((n_paths, len(t_grid), m.p))
    for j in range(len(mids) + 1):
        for k in np.flatnonzero(np.array(obs_idx) == j):
            states[:, k] = X
        if j < len(mids):
            X = X @ prop[j].T + d_l[:, j:j + 1] * noise_vec[j][None, :]
    b_vecs = np.array([m.B.eval(t).reshape(m.p) for t in t_grid])
    return np.einsum("ikp,kp->ik", states, b_vecs), states


@pytest.mark.parametrize("burn_in", [0.0, 3.0])
@pytest.mark.parametrize("name", ["car1", "tvcar1", "drifting_companion", "step"])
def test_interval_blocks_match_the_step_loop(name, burn_in, request):
    # the step family jumps inside the interval (0.5, 0.525), which it splits
    if name == "step":
        m, N, grid = _step_model(0.513), 16, np.linspace(0.5, 0.6, 5)
    else:
        m, N, grid = request.getfixturevalue(name), 8, np.linspace(0.25, 0.5, 6)
    ens = simulate_paths(m, N, grid, n_paths=6, seed=19, burn_in=burn_in, store_states=True)
    obs, states = step_loop_paths(m, N, grid, 6, 19, burn_in)
    assert np.abs(ens.observations - obs).max() <= 1e-13 * np.abs(obs).max()
    assert np.abs(ens.states - states).max() <= 1e-13 * np.abs(states).max()


def test_peak_memory_is_one_chunk_of_increments(drifting_companion):
    # the benchmark's setting (101 observations at N = 16), with one path
    # more than a chunk: the second chunk refills the first one's buffer,
    # as the benchmark's 1 000 paths do, at half their drawing time
    cert = auto_certificate(drifting_companion.A, (-1.25, 1.0))
    grid = np.linspace(0.0, 1.0, 101)
    n_steps = len(_build_steps(drifting_companion, 16, grid, 12.0 / cert.lam)[1])
    tracemalloc.start()
    try:
        simulate_paths(drifting_companion, 16, grid, n_paths=_CHUNK + 1, seed=3, certificate=cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * _CHUNK * n_steps


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


@pytest.mark.parametrize("seed", [-1, 1.0, "3", None, np.int64(-2)])
def test_seed_must_be_a_non_negative_integer(car1, seed):
    with pytest.raises(PreconditionError, match="seed"):
        simulate_paths(car1, 4, ou_grid(), n_paths=3, seed=seed, burn_in=6.0)


def test_integer_seed_types_draw_the_same_paths(car1):
    ref = simulate_paths(car1, 4, ou_grid(), n_paths=3, seed=7, burn_in=6.0)
    for seed in (np.int64(7), np.uint32(7)):
        ens = simulate_paths(car1, 4, ou_grid(), n_paths=3, seed=seed, burn_in=6.0)
        assert np.array_equal(ens.observations, ref.observations)


def test_jackknife_stderr_scales(car1):
    small = simulate_paths(car1, 20, ou_grid(), n_paths=500, seed=9, burn_in=12.0)
    big = simulate_paths(car1, 20, ou_grid(), n_paths=8000, seed=9, burn_in=12.0)
    se_small = empirical_covariance(small, 0.25, 0.25).stderr
    se_big = empirical_covariance(big, 0.25, 0.25).stderr
    # 16x the paths should shrink the error bar by about 4x
    assert se_big < 0.45 * se_small
