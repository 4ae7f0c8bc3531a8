"""Shared model fixtures for the test suite."""

import numpy as np
import pytest

from tvls import (
    Affine,
    Constant,
    LevyModel,
    Logistic,
    MatrixFunction,
    Sinusoidal,
    StateSpaceModel,
)


@pytest.fixture
def brownian():
    return LevyModel(brownian_variance=1.0)


@pytest.fixture
def car1(brownian):
    """Constant CAR(1): dX = -X dt + dL, Y = X (an OU process)."""
    A = MatrixFunction([[Constant(-1.0)]], what="A")
    return StateSpaceModel(1, A, [Constant(1.0)], [Constant(1.0)], brownian)


@pytest.fixture
def tvcar1(brownian):
    """tvCAR(1) with a(t) = 1.5 + 0.5 tanh(t), expressed as a logistic."""
    a = Logistic(1.0, 1.0, 2.0, 0.0)
    A = MatrixFunction([[a.negated()]], what="A")
    return StateSpaceModel(1, A, [Constant(1.0)], [Constant(1.0)], brownian)


@pytest.fixture
def diag_fixture(brownian):
    """Two-state diagonal model: A = diag(-2, -3), B = C = (1, 1)'."""
    A = MatrixFunction([[Constant(-2.0), Constant(0.0)],
                        [Constant(0.0), Constant(-3.0)]], what="A")
    return StateSpaceModel(2, A, [Constant(1.0), Constant(1.0)],
                           [Constant(1.0), Constant(1.0)], brownian)


@pytest.fixture
def companion_fixture(brownian):
    """Companion-form model observationally equivalent to diag_fixture."""
    A = MatrixFunction([[Constant(0.0), Constant(1.0)],
                        [Constant(-6.0), Constant(-5.0)]], what="A")
    return StateSpaceModel(2, A, [Constant(5.0), Constant(2.0)],
                           [Constant(0.0), Constant(1.0)], brownian)


@pytest.fixture
def noncomm_family():
    """Non-commuting smooth family A(t) = [[0, 1], [-2 - t, -3]]."""
    return MatrixFunction([[Constant(0.0), Constant(1.0)],
                           [Affine(-2.0, -1.0), Constant(-3.0)]], what="A")


@pytest.fixture
def sin_car1(brownian):
    """CAR(1) with a(t) = 1 + 0.5 sin(t)."""
    a = Sinusoidal(1.0, 0.5, 1.0, 0.0)
    A = MatrixFunction([[a.negated()]], what="A")
    return StateSpaceModel(1, A, [Constant(1.0)], [Constant(1.0)], brownian)


@pytest.fixture
def drifting_companion():
    """Companion model with drifting stiffness: A(t) = [[0, 1], [-6 - t, -5]],
    B = (5, 2)', C = (0, 1)', driven by Brownian motion plus Gaussian jumps."""
    A = MatrixFunction([[Constant(0.0), Constant(1.0)],
                        [Affine(-6.0, -1.0), Constant(-5.0)]], what="A")
    levy = LevyModel(brownian_variance=1.0, jump_intensity=2.0, jump_std=0.5)
    return StateSpaceModel(2, A, [Constant(5.0), Constant(2.0)],
                           [Constant(0.0), Constant(1.0)], levy)


def _rk4_step_loop(a_stage, h):
    """Reference RK4: one step at a time from the identity, stage values
    a_stage[0], a_stage[1], ... at node, midpoint, node, ..."""
    phi = np.eye(a_stage.shape[-1])
    for k in range((len(a_stage) - 1) // 2):
        a0, am, a1 = a_stage[2 * k], a_stage[2 * k + 1], a_stage[2 * k + 2]
        k1 = a0 @ phi
        k2 = am @ (phi + 0.5 * h * k1)
        k3 = am @ (phi + 0.5 * h * k2)
        k4 = a1 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


@pytest.fixture
def rk4_step_loop():
    """The scalar RK4 loop the batched panel core replaced, as a test oracle."""
    return _rk4_step_loop
