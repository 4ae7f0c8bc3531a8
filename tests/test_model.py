"""Tests for coefficient-function families and model containers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvls import (
    Affine,
    Callback,
    CarmaModel,
    Constant,
    LevyModel,
    Logistic,
    MatrixFunction,
    PiecewisePolynomial,
    PreconditionError,
    Sinusoidal,
    SmoothnessError,
    StateSpaceModel,
    Step,
    companion_from_carma,
    model_from_json,
    ode_transition,
    scalar_from_json,
)
from tvls.model import _FAMILIES, sup_norm
from tvls.quadrature import _right_limit


def registry_members():
    """One member of every family in the JSON registry, so that a new family
    is covered without editing the tests that iterate over these."""
    return [cls(*(0.3 + 0.4 * i for i in range(len(cls.params)))) for cls in _FAMILIES.values()]


def central_diff(f, t, n, h=1e-5):
    if n == 0:
        return f.value(t)
    g = lambda x: central_diff(f, x, n - 1, h)
    return (g(t + h) - g(t - h)) / (2.0 * h)


# ---------------------------------------------------------------- families


def test_constant_family():
    f = Constant(2.5)
    assert f.value(0.3) == 2.5
    assert f(100.0) == 2.5
    assert f.nth_derivative(0.0, 1) == 0.0
    assert f.nth_derivative(1.0, 7) == 0.0
    assert np.array_equal(f.value(np.zeros(3)), 2.5 * np.ones(3))
    assert f.is_continuous and f.breakpoints == ()


def test_affine_family():
    f = Affine(1.0, -2.0)
    assert f.value(0.5) == 0.0
    assert f.nth_derivative(3.0, 1) == -2.0
    assert f.nth_derivative(3.0, 2) == 0.0


def test_sinusoidal_family():
    f = Sinusoidal(0.5, 2.0, 3.0, 0.25)
    rng = np.random.default_rng(0)
    for t in rng.uniform(-2.0, 2.0, size=8):
        assert f.value(t) == pytest.approx(0.5 + 2.0 * math.sin(3.0 * t + 0.25))
        for n in (1, 2, 3):
            # d^n/dt^n [a1 sin(w t + phi)] = a1 w^n sin(w t + phi + n pi/2)
            exact = 2.0 * 3.0**n * math.sin(3.0 * t + 0.25 + n * math.pi / 2.0)
            assert f.nth_derivative(t, n) == pytest.approx(exact, abs=1e-12)
        assert f.nth_derivative(t, 1) == pytest.approx(central_diff(f, t, 1), abs=1e-6)


def test_logistic_family():
    f = Logistic(0.2, 1.5, 2.0, 0.5)
    rng = np.random.default_rng(1)
    for t in rng.uniform(-2.0, 2.0, size=8):
        sig = 1.0 / (1.0 + math.exp(-2.0 * (t - 0.5)))
        assert f.value(t) == pytest.approx(0.2 + 1.5 * sig, abs=1e-14)
        assert f.nth_derivative(t, 1) == pytest.approx(central_diff(f, t, 1), abs=1e-6)
        assert f.nth_derivative(t, 2) == pytest.approx(central_diff(f, t, 2), abs=1e-4)
    # extreme arguments must not overflow
    assert f.value(1e4) == pytest.approx(1.7)
    assert f.value(-1e4) == pytest.approx(0.2)


def test_logistic_tanh_identity():
    # 1 + sigmoid(2t) = 1.5 + 0.5 tanh(t)
    f = Logistic(1.0, 1.0, 2.0, 0.0)
    for t in np.linspace(-3.0, 3.0, 13):
        assert f.value(t) == pytest.approx(1.5 + 0.5 * math.tanh(t), abs=1e-14)


def test_piecewise_polynomial():
    # t on [-inf, 1], then -1 + 2t afterwards (continuous at 1)
    f = PiecewisePolynomial([1.0], [[0.0, 1.0], [-1.0, 2.0]])
    assert f.value(0.5) == pytest.approx(0.5)
    assert f.value(1.0) == pytest.approx(1.0)
    assert f.value(1.5) == pytest.approx(2.0)
    assert f.nth_derivative(0.0, 1) == pytest.approx(1.0)
    assert f.nth_derivative(2.0, 1) == pytest.approx(2.0)
    # derivative at the breakpoint comes from the right-hand segment
    assert f.nth_derivative(1.0, 1) == pytest.approx(2.0)
    assert f.nth_derivative(2.0, 2) == pytest.approx(0.0)
    assert f.breakpoints == (1.0,)
    vals = f.value(np.array([0.5, 1.0, 1.5]))
    assert np.allclose(vals, [0.5, 1.0, 2.0])


def test_piecewise_polynomial_validation():
    with pytest.raises(PreconditionError):
        PiecewisePolynomial([1.0], [[0.0, 1.0], [5.0]])  # jump at the break
    with pytest.raises(PreconditionError):
        PiecewisePolynomial([2.0, 1.0], [[0.0], [0.0], [0.0]])  # unsorted
    with pytest.raises(PreconditionError):
        PiecewisePolynomial([1.0], [[0.0]])  # segment count mismatch
    with pytest.raises(PreconditionError):
        PiecewisePolynomial([1.0], [[0.0, 1.0], []])  # empty segment


def test_step_family():
    f = Step(0.5, 1.0, 3.0)
    assert f.value(0.0) == 1.0
    assert f.value(0.5) == 1.0  # left value at the break itself
    assert f.value(0.6) == 3.0
    assert not f.is_continuous
    assert f.breakpoints == (0.5,)
    assert f.nth_derivative(0.0, 1) == 0.0
    assert f.nth_derivative(2.0, 3) == 0.0
    with pytest.raises(SmoothnessError):
        f.nth_derivative(0.5, 1)
    with pytest.raises(SmoothnessError):
        f.nth_derivative(np.array([0.0, 0.5, 1.0]), 1)


def test_callback_family():
    f = Callback(lambda t: t * t + 1.0)
    assert f.value(2.0) == 5.0
    grid = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
    assert np.array_equal(f.value(grid), grid * grid + 1.0)
    assert f.nth_derivative(1.5, 1) == pytest.approx(3.0, abs=1e-7)
    with pytest.raises(SmoothnessError):
        f.nth_derivative(0.0, 2)
    with pytest.raises(PreconditionError):
        f.to_json()
    with pytest.raises(PreconditionError):
        Callback("not callable")
    g = f.negated()
    assert g.value(2.0) == -5.0


def test_negation_closure():
    funcs = [
        Constant(2.0),
        Affine(1.0, -3.0),
        Sinusoidal(0.5, 1.0, 2.0, 0.1),
        Logistic(0.2, 1.5, 2.0, 0.5),
        PiecewisePolynomial([0.0], [[1.0], [1.0, 2.0]]),
        Step(0.0, -1.0, 1.0),
        *registry_members(),
    ]
    for f in funcs:
        g = f.negated()
        assert type(g) is type(f)
        for t in (-0.7, 0.0, 1.3):
            assert g.value(t) == pytest.approx(-f.value(t), abs=1e-14)
    for f in registry_members():  # negation flips exactly the linear parameters
        g = f.negated()
        for name in f.params:
            sign = -1.0 if name in f.linear else 1.0
            assert getattr(g, name) == sign * getattr(f, name)


def test_family_parameter_validation():
    with pytest.raises(PreconditionError):
        Constant(float("nan"))
    with pytest.raises(PreconditionError):
        Affine(1.0, float("inf"))
    with pytest.raises(PreconditionError):
        Sinusoidal(0.0, "x", 1.0, 0.0)
    with pytest.raises(PreconditionError):
        Constant(True)  # a bool is not a number
    with pytest.raises(PreconditionError):
        Constant("-6")  # nor is a numeric string
    for cls in _FAMILIES.values():  # a wrong number of values, e.g. Affine(1.0)
        for arity in (len(cls.params) - 1, len(cls.params) + 1):
            with pytest.raises(PreconditionError, match="params must hold exactly"):
                cls(*[1.0] * arity)


# ------------------------------------------------------------ serialization


def test_scalar_json_round_trips():
    funcs = [
        Constant(2.0),
        Affine(1.0, -3.0),
        Sinusoidal(0.5, 1.0, 2.0, 0.1),
        Logistic(0.2, 1.5, 2.0, 0.5),
        PiecewisePolynomial([0.0, 1.0], [[1.0], [1.0, 2.0], [3.0]]),
        Step(0.25, -1.0, 1.0),
        *registry_members(),
    ]
    for f in funcs:
        g = scalar_from_json(f.to_json())
        assert type(g) is type(f)
        assert g.to_json() == f.to_json()
        for t in (-0.7, 0.1, 2.3):
            assert g.value(t) == f.value(t)


def test_scalar_json_errors():
    assert isinstance(scalar_from_json(3.5), Constant)
    assert scalar_from_json(2).value(0.0) == 2.0
    with pytest.raises(PreconditionError):
        scalar_from_json({"family": "fourier", "params": [1.0]})
    with pytest.raises(PreconditionError):
        scalar_from_json({"family": "affine", "params": [1.0]})  # arity 2
    with pytest.raises(PreconditionError):
        scalar_from_json({"family": "sinusoidal", "params": [1, 2, 3, 4, 5]})
    with pytest.raises(PreconditionError):
        scalar_from_json({"params": [1.0]})
    with pytest.raises(PreconditionError):
        scalar_from_json([1.0])
    with pytest.raises(PreconditionError):
        scalar_from_json({"family": "piecewise_polynomial", "params": [1.0]})
    with pytest.raises(PreconditionError):
        scalar_from_json(True)  # JSON true is not the number 1
    with pytest.raises(PreconditionError):
        scalar_from_json({"family": "affine", "params": [1.0, "2"]})
    with pytest.raises(PreconditionError):
        scalar_from_json({"family": ["affine"], "params": [1.0, 2.0]})


# ----------------------------------------------------------- MatrixFunction


def test_matrix_function_eval():
    m = MatrixFunction([[Constant(1.0), Affine(0.0, 1.0)],
                        [Sinusoidal(0.0, 1.0, 1.0, 0.0), Constant(-2.0)]])
    at = m.eval(0.5)
    assert at.shape == (2, 2)
    assert np.allclose(at, [[1.0, 0.5], [math.sin(0.5), -2.0]])
    arr = m.eval_array(np.array([0.0, 0.5]))
    assert arr.shape == (2, 2, 2)
    assert np.allclose(arr[1], at)
    d = m.deriv(0.0)
    assert np.allclose(d, [[0.0, 1.0], [1.0, 0.0]])
    d2 = m.deriv(0.0, order=2)
    assert np.allclose(d2, [[0.0, 0.0], [0.0, 0.0]])


def test_matrix_function_flags_and_helpers():
    m = MatrixFunction.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert m.is_constant and m.is_continuous

    col = MatrixFunction.column([Constant(1.0), Constant(2.0)])
    assert col.shape == (2, 1)
    assert np.allclose(col.eval_vec(0.0), [1.0, 2.0])
    with pytest.raises(PreconditionError):
        m.eval_vec(0.0)

    stepped = MatrixFunction([[Step(1.0, 0.0, 1.0), Step(2.0, 0.0, 1.0)]])
    assert stepped.breakpoints == (1.0, 2.0)
    assert not stepped.is_continuous

    with pytest.raises(PreconditionError):
        MatrixFunction([[Constant(1.0)], [Constant(1.0), Constant(2.0)]])
    with pytest.raises(PreconditionError):
        MatrixFunction([[object()]])


def test_matrix_function_accepts_bare_numbers():
    m = MatrixFunction([[0.0, 1.0], [-2.0, -3.0]])
    assert m.is_constant
    assert np.allclose(m.eval(5.0), [[0.0, 1.0], [-2.0, -3.0]])


def test_reparametrized_chain_rule():
    base = MatrixFunction([[Sinusoidal(0.0, 1.0, 2.0, 0.3)]])
    view = base.reparametrized(offset=1.0, rate=0.5)
    for s in (-1.0, 0.0, 2.0):
        t = 1.0 + 0.5 * s
        assert view.eval(s)[0, 0] == pytest.approx(base.eval(t)[0, 0], abs=1e-14)
        for n in (1, 2, 3):
            assert view.deriv(s, n)[0, 0] == pytest.approx(
                base.deriv(t, n)[0, 0] * 0.5**n, abs=1e-12)
    arr = view.eval_array(np.array([0.0, 2.0]))
    assert arr.shape == (2, 1, 1)
    # composition of reparametrizations collapses to a single affine map
    twice = view.reparametrized(offset=2.0, rate=3.0)
    assert twice.eval(0.1)[0, 0] == pytest.approx(
        base.eval(1.0 + 0.5 * (2.0 + 3.0 * 0.1))[0, 0], abs=1e-14)


def test_reparametrized_breakpoints():
    base = MatrixFunction([[Step(1.0, 0.0, 1.0)]])
    view = base.reparametrized(offset=0.5, rate=2.0)
    assert view.breakpoints == (0.25,)
    assert view.eval(0.25)[0, 0] == 0.0
    assert view.eval(0.26)[0, 0] == 1.0
    assert not view.is_continuous


def test_reparametrized_step_is_read_on_the_side_of_its_jump():
    # (0.19 - 0.5) * 13 maps back to 0.19000000000000006, past the jump, and
    # RK4 was off exp(int a) by 7.2e-3 there
    view = MatrixFunction([[Step(0.19, -1.0, -3.0)]]).reparametrized(0.5, 1.0 / 13.0)
    phi = ode_transition(view, -6.5, 0.0, steps=300).value[0, 0]
    exact = math.exp(-13.0 * (0.19 + 3.0 * (0.5 - 0.19)))
    # the RK4 error: b = 0.2, whose round trip is exact, gives 1.8e-6
    assert abs(phi / exact - 1.0) <= 2e-6


@given(offset=st.floats(-10.0, 10.0), rate=st.floats(1e-3, 1e3),
       b=st.floats(-10.0, 10.0))
def test_reparametrized_breakpoint_keeps_its_side(offset, rate, b):
    base = MatrixFunction([[Step(b, -1.0, -3.0)]])
    view = base.reparametrized(offset, rate)
    (s,) = view.breakpoints
    assert offset + rate * s <= b
    assert view.eval(s)[0, 0] == -1.0
    assert view.eval(_right_limit(view, s))[0, 0] == -3.0


def test_sup_norm():
    m = MatrixFunction.constant(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert sup_norm(m, 0.0, 1.0) == pytest.approx(5.0)
    # an interior peak between coarse samples is caught via breakpoints
    peak = PiecewisePolynomial([0.5], [[0.0, 2.0], [2.0, -2.0]])
    m2 = MatrixFunction([[peak]])
    assert sup_norm(m2, 0.0, 1.0, samples=2) == pytest.approx(1.0)
    # sup over a step sees the value just right of the break
    m3 = MatrixFunction([[Step(0.5, 1.0, 5.0)]])
    assert sup_norm(m3, 0.0, 0.75, samples=2) == pytest.approx(5.0)


# ----------------------------------------------------------------- models


def test_state_space_validation(brownian):
    A = MatrixFunction([[Constant(-1.0)]])
    with pytest.raises(PreconditionError):
        StateSpaceModel(0, A, [Constant(1.0)], [Constant(1.0)], brownian)
    with pytest.raises(PreconditionError):
        StateSpaceModel(2, A, [Constant(1.0)] * 2, [Constant(1.0)] * 2, brownian)
    with pytest.raises(PreconditionError):
        StateSpaceModel(1, A, [Constant(1.0)] * 2, [Constant(1.0)], brownian)
    with pytest.raises(PreconditionError):
        StateSpaceModel(1, A, [Constant(1.0)], [], brownian)
    # B/C accept bare numbers, levy accepts its JSON form
    m = StateSpaceModel(1, A, [1.0], [2.0], {"brownian_variance": 1.0})
    assert m.B.eval_vec(0.0)[0] == 1.0
    assert m.C.eval_vec(0.0)[0] == 2.0
    assert m.levy == brownian


def test_carma_validation(brownian):
    with pytest.raises(PreconditionError):
        CarmaModel(2, 2, [Constant(1.0)] * 2, [Constant(1.0)] * 3, brownian)
    with pytest.raises(PreconditionError):
        CarmaModel(2, 1, [Constant(1.0)], [Constant(1.0)] * 2, brownian)
    with pytest.raises(PreconditionError):
        CarmaModel(2, 1, [Constant(1.0)] * 2, [Constant(1.0)], brownian)
    with pytest.raises(PreconditionError):
        CarmaModel(0, 0, [], [Constant(1.0)], brownian)


def frozen_transfer(m, t, z):
    A = m.A.eval(t)
    b = m.B.eval_vec(t)
    c = m.C.eval_vec(t)
    return b @ np.linalg.solve(z * np.eye(m.p) - A, c)


def test_companion_structure(brownian):
    carma = CarmaModel(3, 1, [Constant(3.0), Constant(4.0), Constant(2.0)],
                       [Constant(1.0), Constant(0.5)], brownian)
    m = companion_from_carma(carma)
    assert m.p == 3
    A = m.A.eval(0.0)
    assert np.allclose(A, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-2.0, -4.0, -3.0]])
    assert np.allclose(m.B.eval_vec(0.0), [1.0, 0.5, 0.0])
    assert np.allclose(m.C.eval_vec(0.0), [0.0, 0.0, 1.0])
    assert m.levy == brownian


def test_companion_preserves_transfer(brownian):
    carma = CarmaModel(3, 1, [Constant(3.0), Constant(4.0), Constant(2.0)],
                       [Constant(1.0), Constant(0.5)], brownian)
    m = companion_from_carma(carma)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 3))
        ratio = (1.0 + 0.5 * z) / (z**3 + 3.0 * z**2 + 4.0 * z + 2.0)
        h = frozen_transfer(m, 0.0, z)
        assert abs(h - ratio) <= 1e-10 * abs(ratio)


def test_companion_time_varying(brownian):
    # time-varying AR coefficient lands negated in the last companion row
    carma = CarmaModel(2, 0, [Affine(3.0, 1.0), Constant(2.0)],
                       [Constant(1.0)], brownian)
    m = companion_from_carma(carma)
    assert np.allclose(m.A.eval(0.0), [[0.0, 1.0], [-2.0, -3.0]])
    assert np.allclose(m.A.eval(1.0), [[0.0, 1.0], [-2.0, -4.0]])


def test_model_json_round_trips(brownian):
    ss = StateSpaceModel(
        2,
        MatrixFunction([[Constant(0.0), Constant(1.0)],
                        [Affine(-2.0, -1.0), Constant(-3.0)]], what="A"),
        [Sinusoidal(1.0, 0.5, 2.0, 0.0), Constant(0.0)],
        [Constant(0.0), Constant(1.0)],
        brownian,
    )
    again = model_from_json(ss.to_json())
    assert isinstance(again, StateSpaceModel)
    assert again.to_json() == ss.to_json()

    carma = CarmaModel(2, 1, [Constant(3.0), Constant(2.0)],
                       [Constant(1.0), Constant(1.0)], brownian)
    again = model_from_json(carma.to_json())
    assert isinstance(again, CarmaModel)
    assert again.to_json() == carma.to_json()


def test_model_json_errors():
    levy = {"brownian_variance": 1.0}
    with pytest.raises(PreconditionError):
        model_from_json([])
    with pytest.raises(PreconditionError):
        model_from_json({"levy": levy})  # missing p
    with pytest.raises(PreconditionError):
        model_from_json({"p": 1})  # missing levy
    with pytest.raises(PreconditionError):
        model_from_json({"p": 1, "levy": levy, "A": [[1.0]], "B": [1.0]})  # no C
    with pytest.raises(PreconditionError):
        model_from_json({"p": 2, "levy": levy, "ar": [1.0, 2.0]})  # no q/ma


def test_model_json_flat_vectors():
    obj = {
        "p": 2,
        "A": [[{"family": "constant", "params": [-2.0]}, 0.0],
              [0.0, {"family": "constant", "params": [-3.0]}]],
        "B": [1.0, 1.0],
        "C": [1.0, 1.0],
        "levy": {"brownian_variance": 1.0},
    }
    m = model_from_json(obj)
    assert np.allclose(m.A.eval(0.0), [[-2.0, 0.0], [0.0, -3.0]])
    assert np.allclose(m.B.eval_vec(0.0), [1.0, 1.0])
