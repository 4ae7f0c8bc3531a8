"""Tests for the Levy driving-noise layer."""

import numpy as np
import pytest

from tvls import (
    LevyModel,
    MatrixFunction,
    PreconditionError,
    StateSpaceModel,
    ZeroVarianceError,
    simulate_paths,
)


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


def test_zero_variance_rejected():
    # zero-std jumps are just as silent as no noise at all
    A = MatrixFunction([[-1.0]], what="A")
    times = np.linspace(0.0, 1.0, 5)
    for silent in (LevyModel(brownian_variance=0.0),
                   LevyModel(brownian_variance=0.0, jump_intensity=5.0, jump_std=0.0)):
        assert silent.sigma_l == 0.0
        model = StateSpaceModel(1, A, [1.0], [1.0], silent)
        with pytest.raises(ZeroVarianceError):
            simulate_paths(model, 4, times, n_paths=3, seed=0, burn_in=1.0)
