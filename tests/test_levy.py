"""Tests for the Levy driving-noise layer."""

import math

import numpy as np
import pytest

from tvls import (
    LevyModel,
    PreconditionError,
    ZeroVarianceError,
    characteristic_exponent,
    refine_increments,
    sample_increments,
)


def closed_form_exponent(model, z):
    """-Sigma z^2 / 2 + rate (exp(-std^2 z^2 / 2) - 1) for centered
    Gaussian jumps; the compensating drift cancels by symmetry."""
    jump = model.jump_intensity * (math.exp(-0.5 * (model.jump_std * z) ** 2) - 1.0)
    return -0.5 * model.brownian_variance * z * z + jump


def test_model_validation():
    with pytest.raises(PreconditionError):
        LevyModel(brownian_variance=-1.0)
    with pytest.raises(PreconditionError):
        LevyModel(brownian_variance=1.0, jump_intensity=-0.5)
    with pytest.raises(PreconditionError):
        LevyModel(brownian_variance=1.0, jump_std=-0.1)
    with pytest.raises(PreconditionError):
        LevyModel(brownian_variance=float("nan"))
    with pytest.raises(PreconditionError):
        LevyModel(brownian_variance=float("inf"))


def test_sigma_l_derivation():
    m = LevyModel(brownian_variance=0.3, jump_intensity=2.0, jump_std=0.5)
    assert m.sigma_l == 0.3 + 2.0 * 0.25
    assert LevyModel(brownian_variance=1.0).sigma_l == 1.0


def test_json_round_trip():
    m = LevyModel(brownian_variance=0.25, jump_intensity=1.5, jump_std=0.75)
    again = LevyModel.from_json(m.to_json())
    assert again == m
    # defaults fill in for omitted jump fields
    assert LevyModel.from_json({"brownian_variance": 2.0}) == LevyModel(2.0)


def test_json_errors():
    with pytest.raises(PreconditionError):
        LevyModel.from_json([1.0])
    with pytest.raises(PreconditionError):
        LevyModel.from_json({"jump_intensity": 1.0})  # missing variance
    with pytest.raises(PreconditionError):
        LevyModel.from_json({"brownian_variance": 1.0, "sigma": 2.0})


def test_characteristic_exponent_brownian_only():
    m = LevyModel(brownian_variance=1.7)
    for z in (0.0, 0.5, -2.0, 3.3):
        psi = characteristic_exponent(m, z)
        assert psi == pytest.approx(-0.85 * z * z, abs=1e-15)
        assert psi.imag == 0.0


def test_characteristic_exponent_with_jumps():
    # frozen reference value for (variance 0, rate 2, std 0.5) at z = 1:
    # 2 (exp(-1/8) - 1) = -0.23500619483080523
    m = LevyModel(brownian_variance=0.0, jump_intensity=2.0, jump_std=0.5)
    psi = characteristic_exponent(m, 1.0)
    assert abs(psi - (-0.23500619483080523)) < 1e-8

    cases = [
        (0.4, 2.0, 0.5, 1.0),
        (0.0, 1.0, 2.0, 0.7),  # jump std above the compensation cutoff
        (1.0, 3.0, 0.2, -1.5),
        (0.1, 0.5, 1.0, 2.5),
    ]
    for sig, rate, std, z in cases:
        m = LevyModel(brownian_variance=sig, jump_intensity=rate, jump_std=std)
        psi = characteristic_exponent(m, z)
        assert abs(psi.real - closed_form_exponent(m, z)) < 1e-7
        assert abs(psi.imag) < 1e-8  # symmetric jumps: exponent is real


def test_characteristic_exponent_symmetries():
    m = LevyModel(brownian_variance=0.3, jump_intensity=1.0, jump_std=0.8)
    assert characteristic_exponent(m, 0.0) == 0.0
    for z in (0.3, 1.1, 2.7):
        assert characteristic_exponent(m, z) == pytest.approx(
            characteristic_exponent(m, -z), abs=1e-12)


def test_sample_increments_deterministic():
    m = LevyModel(brownian_variance=1.0, jump_intensity=2.0, jump_std=0.5)
    times = np.linspace(0.0, 5.0, 51)
    a = sample_increments(m, times, seed=42)
    b = sample_increments(m, times, seed=42)
    assert np.array_equal(a, b)
    c = sample_increments(m, times, seed=43)
    assert not np.array_equal(a, c)


def test_sample_increments_moments():
    m = LevyModel(brownian_variance=0.5, jump_intensity=1.0, jump_std=0.7)
    n = 20000
    h = 0.05
    times = h * np.arange(n + 1)
    inc = sample_increments(m, times, seed=7)
    assert inc.shape == (n,)
    var_per = m.sigma_l * h
    # mean of n iid zero-mean increments
    assert abs(inc.mean()) < 4.0 * math.sqrt(var_per / n)
    # variance estimate; kurtosis of the jump mixture inflates its stderr,
    # so allow a generous factor over the Gaussian sampling error
    assert abs(inc.var() - var_per) < 8.0 * var_per * math.sqrt(2.0 / n)


def test_sample_increments_uneven_grid():
    m = LevyModel(brownian_variance=2.0)
    times = np.array([0.0, 0.1, 0.4, 1.0])
    inc = sample_increments(m, times, seed=1)
    assert inc.shape == (3,)
    assert np.all(np.isfinite(inc))


@pytest.mark.parametrize("factor", [2, 4, 8])
@pytest.mark.parametrize("params", [
    (1.0, 0.0, 0.0),    # Brownian only
    (0.0, 3.0, 0.5),    # jumps only
    (0.5, 2.0, 0.7),    # both
])
def test_refine_increments_couples_exactly(factor, params):
    m = LevyModel(*params)
    times = np.linspace(0.0, 2.0, 9)
    coarse = sample_increments(m, times, seed=11)
    fine_times, fine = refine_increments(m, times, seed=11, factor=factor)
    assert fine.shape == ((times.size - 1) * factor,)
    assert fine_times.shape == ((times.size - 1) * factor + 1,)
    assert np.allclose(np.diff(fine_times), (times[1] - times[0]) / factor)
    grouped = fine.reshape(times.size - 1, factor).sum(axis=1)
    assert np.max(np.abs(grouped - coarse)) < 1e-12


def test_refine_factor_one_replays_coarse():
    m = LevyModel(brownian_variance=0.5, jump_intensity=2.0, jump_std=0.7)
    times = np.linspace(0.0, 1.0, 11)
    coarse = sample_increments(m, times, seed=3)
    fine_times, fine = refine_increments(m, times, seed=3, factor=1)
    assert np.allclose(fine, coarse, atol=1e-14)
    assert np.allclose(fine_times, times)


def test_refine_increments_moments():
    # refined increments still have the right per-interval variance
    m = LevyModel(brownian_variance=0.5, jump_intensity=1.0, jump_std=0.7)
    n, factor, h = 5000, 4, 0.2
    times = h * np.arange(n + 1)
    _, fine = refine_increments(m, times, seed=19, factor=factor)
    var_per = m.sigma_l * h / factor
    n_fine = n * factor
    assert abs(fine.mean()) < 4.0 * math.sqrt(var_per / n_fine)
    assert abs(fine.var() - var_per) < 8.0 * var_per * math.sqrt(2.0 / n_fine)


def test_zero_variance_rejected():
    silent = LevyModel(brownian_variance=0.0)
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ZeroVarianceError):
        sample_increments(silent, times, seed=0)
    with pytest.raises(ZeroVarianceError):
        refine_increments(silent, times, seed=0, factor=2)
    # zero-std jumps are just as silent
    silent2 = LevyModel(brownian_variance=0.0, jump_intensity=5.0, jump_std=0.0)
    with pytest.raises(ZeroVarianceError):
        sample_increments(silent2, times, seed=0)


def test_grid_validation():
    m = LevyModel(brownian_variance=1.0)
    with pytest.raises(PreconditionError):
        sample_increments(m, [0.0, 1.0, 1.0], seed=0)  # not strictly increasing
    with pytest.raises(PreconditionError):
        sample_increments(m, [2.0, 1.0], seed=0)
    with pytest.raises(PreconditionError):
        sample_increments(m, [0.0], seed=0)  # too short
    with pytest.raises(PreconditionError):
        refine_increments(m, [0.0, 1.0], seed=0, factor=0)
