"""Tests for transition-matrix routes and matrix exponentials."""

import math

import numpy as np
import pytest
import scipy.linalg

from tvls import (
    Callback,
    Constant,
    DivergenceError,
    MatrixFunction,
    PiecewisePolynomial,
    PreconditionError,
    Sinusoidal,
    Step,
    check_commutativity,
    commutative_transition,
    matrix_exp,
    ode_transition,
    peano_baker,
)
from tvls.quadrature import nudge_off_break, split_interval
from tvls.transition import _ordered_products, _rk4_panels


@pytest.fixture
def constant_family():
    return MatrixFunction([[0.0, 1.0], [-2.0, -3.0]], what="A")


def closed_form_constant(s):
    """exp(s [[0,1],[-2,-3]]) via eigenvalues -1, -2:
    (2 e^-s - e^-2s) I + (e^-s - e^-2s) A."""
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    return (2.0 * math.exp(-s) - math.exp(-2.0 * s)) * np.eye(2) + (
        math.exp(-s) - math.exp(-2.0 * s)) * A


# ------------------------------------------------------------- matrix_exp


def test_matrix_exp_against_scipy():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = rng.integers(1, 6)
        scale = 10.0 ** rng.uniform(-3, 1.7)  # exercises 0 and many squarings
        D = rng.standard_normal((n, n)) * scale
        ours = matrix_exp(D)
        ref = scipy.linalg.expm(D)
        worst = max(worst, np.linalg.norm(ours - ref) / max(1.0, np.linalg.norm(ref)))
    assert worst < 1e-12


def test_matrix_exp_closed_form():
    # companion matrix with eigenvalues -2, -3
    D = np.array([[0.0, 1.0], [-6.0, -5.0]])
    e2, e3 = math.exp(-2.0), math.exp(-3.0)
    exact = np.array([[3.0 * e2 - 2.0 * e3, e2 - e3],
                      [-6.0 * (e2 - e3), -2.0 * e2 + 3.0 * e3]])
    assert np.abs(matrix_exp(D) - exact).max() < 1e-14
    assert np.abs(matrix_exp(np.zeros((3, 3))) - np.eye(3)).max() < 1e-15
    with pytest.raises(PreconditionError):
        matrix_exp(np.ones((2, 3)))


def test_matrix_exp_stacks_match_single_calls():
    # column-sum norms from 0.01 to 300: 0, 1 and up to 6 squarings in one stack
    rng = np.random.default_rng(5)
    scales = [0.01, 0.5, 1.3, 4.0, 6.5, 12.0, 80.0, 300.0]
    stack = np.stack([rng.standard_normal((3, 3)) * s / 3.0 for s in scales])
    stack = np.concatenate([stack, np.zeros((1, 3, 3))])
    squarings = {max(0, math.ceil(math.log2(np.abs(D).sum(axis=0).max() / 5.371920351148152)))
                 for D in stack if np.abs(D).sum() > 0}
    assert {0, 1}.issubset(squarings) and max(squarings) >= 4
    out = matrix_exp(stack)
    assert out.shape == stack.shape
    for D, E in zip(stack, out):
        assert np.array_equal(E, matrix_exp(D))
        ref = scipy.linalg.expm(D)
        assert np.linalg.norm(E - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
    # any leading shape, complex entries and empty stacks
    grid = stack[:8].reshape(2, 4, 3, 3)
    assert np.array_equal(matrix_exp(grid), out[:8].reshape(2, 4, 3, 3))
    rot = np.array([[[0.0, 1.0], [-1.0, 0.0]]]) * np.array([0.5, 1.0])[:, None, None] * 1j
    assert np.allclose(matrix_exp(rot), np.stack([scipy.linalg.expm(R) for R in rot]),
                       rtol=0.0, atol=1e-14)
    assert matrix_exp(np.empty((0, 2, 2))).shape == (0, 2, 2)
    assert matrix_exp(np.empty((0, 0))).shape == (0, 0)
    with pytest.raises(PreconditionError):
        matrix_exp(np.ones((4, 2, 3)))
    with pytest.raises(PreconditionError):
        matrix_exp(np.ones(3))


# ------------------------------------------------------------- peano_baker


def test_peano_baker_constant_closed_form(constant_family):
    out = peano_baker(constant_family, 0.0, 1.0)
    assert out.method == "peano_baker"
    assert out.terms_or_steps > 3
    assert out.error_estimate >= 0.0
    assert np.abs(out.value - closed_form_constant(1.0)).max() < 1e-9


def test_peano_baker_zero_family():
    Z = MatrixFunction([[0.0, 0.0], [0.0, 0.0]], what="A")
    out = peano_baker(Z, 0.0, 2.0)
    assert np.array_equal(out.value, np.eye(2))
    assert out.terms_or_steps <= 1


def test_peano_baker_identity_at_zero_length(constant_family):
    out = peano_baker(constant_family, 0.7, 0.7)
    assert np.array_equal(out.value, np.eye(2))
    assert out.error_estimate == 0.0
    with pytest.raises(PreconditionError):
        peano_baker(constant_family, 1.0, 0.0)


def test_peano_baker_vs_ode(noncomm_family):
    pb = peano_baker(noncomm_family, 0.0, 1.5)
    ode = ode_transition(noncomm_family, 0.0, 1.5, steps=2**14)
    assert np.abs(pb.value - ode.value).max() < 1e-7


def test_peano_baker_semigroup(noncomm_family):
    rng = np.random.default_rng(4)
    for _ in range(10):
        s0, m, s1 = np.sort(rng.uniform(0.0, 2.0, size=3))
        whole = peano_baker(noncomm_family, s0, s1).value
        split = peano_baker(noncomm_family, m, s1).value @ peano_baker(
            noncomm_family, s0, m).value
        assert np.abs(whole - split).max() < 1e-7


def test_peano_baker_divergence_reports_norms():
    # fast rotation: series terms grow like (10 s)^n / n! and five terms
    # cannot reach the tolerance
    R = MatrixFunction([[0.0, 10.0], [-10.0, 0.0]], what="A")
    with pytest.raises(DivergenceError) as exc:
        peano_baker(R, 0.0, 3.0, max_terms=5)
    assert len(exc.value.term_norms) == 5
    assert all(n > 0 for n in exc.value.term_norms)


def test_peano_baker_rejects_non_positive_tol(constant_family):
    # no term norm can drop below tol <= 0, so the series would run out of terms
    for tol in (0.0, -1e-12, float("nan")):
        with pytest.raises(PreconditionError, match="tol"):
            peano_baker(constant_family, 0.0, 1.0, tol=tol)


def test_peano_baker_step_crossing():
    # piecewise-constant scalar: exp integrates exactly on each side
    a = Step(1.0, -1.0, -2.0)
    A = MatrixFunction([[a]], what="A")
    out = peano_baker(A, 0.0, 2.0)
    assert abs(out.value[0, 0] - math.exp(-3.0)) < 1e-8
    # 2x2 with distinct halves: Psi(2,0) = e^{A2} e^{A1}
    A2d = MatrixFunction([[Step(1.0, -1.0, -2.0), 0.0],
                          [0.0, Step(1.0, -3.0, -1.0)]], what="A")
    out = peano_baker(A2d, 0.0, 2.0)
    expected = np.diag([math.exp(-1.0 - 2.0), math.exp(-3.0 - 1.0)])
    assert np.abs(out.value - expected).max() < 1e-8


# ---------------------------------------------------------- ode_transition


def test_ode_scalar_accuracy():
    A = MatrixFunction([[-2.0]], what="A")
    out = ode_transition(A, 0.0, 1.0, steps=4096)
    assert out.method == "ode"
    assert abs(out.value[0, 0] - math.exp(-2.0)) < 1e-10
    assert out.error_estimate >= 0.0


def test_ode_fourth_order_convergence(noncomm_family):
    ref = ode_transition(noncomm_family, 0.0, 1.0, steps=2**13).value
    err = [np.abs(ode_transition(noncomm_family, 0.0, 1.0, steps=n).value - ref).max()
           for n in (16, 32, 64)]
    assert err[0] / err[1] > 10.0  # ~16 for a fourth-order scheme
    assert err[1] / err[2] > 10.0


def test_ode_validation(constant_family):
    with pytest.raises(PreconditionError):
        ode_transition(constant_family, 0.0, 1.0, steps=0)
    with pytest.raises(PreconditionError):
        ode_transition(constant_family, 1.0, 0.0)
    out = ode_transition(constant_family, 0.3, 0.3)
    assert np.array_equal(out.value, np.eye(2))


def test_ode_step_crossing():
    A = MatrixFunction([[Step(1.0, -1.0, -2.0)]], what="A")
    out = ode_transition(A, 0.0, 2.0, steps=512)
    assert abs(out.value[0, 0] - math.exp(-3.0)) < 1e-10


def _rk4_run_loop(A, s0, s, steps, rk4_step_loop):
    """Reference ode_transition value: each piece between breakpoints advanced
    step by step on one stage grid, the start of a piece nudged off its break."""
    breaks = set(A.breakpoints)
    pieces = split_interval(s0, s, breaks)
    psi = np.eye(A.shape[0])
    for lo, hi in pieces:
        n = max(1, int(round(steps * (hi - lo) / (s - s0))))
        ev = np.linspace(lo, hi, 2 * n + 1)
        if lo in breaks:
            ev[0] = nudge_off_break(lo)
        psi = rk4_step_loop(A.eval_array(ev), (hi - lo) / n) @ psi
    return psi


def test_rk4_panels_match_scalar_loop(rk4_step_loop):
    rng = np.random.default_rng(11)
    a_stage = rng.standard_normal((7, 2 * 3 + 1, 3, 3))
    for h in (0.05, rng.uniform(0.01, 0.1, size=7)):
        out = _rk4_panels(a_stage, h)
        hs = np.broadcast_to(h, (7,))
        for panel, phi, hk in zip(a_stage, out, hs):
            ref = rk4_step_loop(panel, hk)
            assert np.abs(phi - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.fixture
def kinked_family():
    return MatrixFunction([[Constant(0.0), Constant(1.0)],
                           [PiecewisePolynomial([0.4], [[-2.0, -1.0], [-2.8, 1.0]]),
                            Constant(-3.0)]], what="A")


@pytest.fixture
def stepped_family():
    return MatrixFunction([[Step(1.0, -1.0, -2.0), Constant(0.5)],
                           [Constant(0.0), Constant(-1.0)]], what="A")


def test_ordered_products_match_sequential_loop():
    rng = np.random.default_rng(5)
    for p in (1, 2, 3):
        for n in (1, 2, 3, 5, 47, 48, 129):
            # near-identity factors, as RK4 step matrices are
            mats = np.eye(p) + 0.05 * rng.standard_normal((n, p, p))
            runs = (mats, mats[:(n + 1) // 2])
            for run, out in zip(runs, _ordered_products(*runs)):
                ref = np.eye(p)
                for m in run:
                    ref = m @ ref
                assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_ode_transition_matches_scalar_loop_and_series(noncomm_family, kinked_family,
                                                       stepped_family, rk4_step_loop):
    cases = [(noncomm_family, 0.0, 1.0, 256), (noncomm_family, -0.7, 2.3, 370),
             (kinked_family, 0.0, 1.5, 200), (kinked_family, 0.4, 1.0, 64),
             (stepped_family, 0.0, 2.0, 128)]
    for A, s0, s, steps in cases:
        out = ode_transition(A, s0, s, steps)
        ref = _rk4_run_loop(A, s0, s, steps, rk4_step_loop)
        assert np.abs(out.value - ref).max() <= 1e-13 * np.abs(ref).max()
        series = peano_baker(A, s0, s).value
        assert np.abs(out.value - series).max() < 1e-7


@pytest.mark.parametrize("steps", [1, 3, 48, 370])
def test_ode_error_estimate_is_the_distance_between_two_step_loops(
        noncomm_family, kinked_family, stepped_family, rk4_step_loop, steps):
    coarse_steps = steps // 2 if steps >= 2 else 2
    for A, s0, s in ((noncomm_family, -0.7, 2.3), (kinked_family, 0.0, 1.5),
                     (stepped_family, 0.0, 2.0)):
        out = ode_transition(A, s0, s, steps)
        fine = _rk4_run_loop(A, s0, s, steps, rk4_step_loop)
        coarse = _rk4_run_loop(A, s0, s, coarse_steps, rk4_step_loop)
        scale = np.abs(fine).max()
        assert np.abs(out.value - fine).max() <= 1e-13 * scale
        assert abs(out.error_estimate - np.linalg.norm(fine - coarse)) <= 1e-13 * scale
        # each piece between breakpoints takes a rounded share of the steps
        assert out.terms_or_steps == sum(max(1, int(round(steps * (hi - lo) / (s - s0))))
                                         for lo, hi in split_interval(s0, s, A.breakpoints))


def test_ode_transition_on_callback_matches_analytic_family():
    # _rk4_run evaluates a 2-D grid of stage points; an opaque callback
    # coefficient must give the values of the same analytic family
    analytic = MatrixFunction([[Sinusoidal(-1.0, -0.25, 1.0, 0.0), 1.0],
                               [-2.0, -3.0]], what="A")
    wrapped = MatrixFunction([[Callback(lambda t: -1.0 - 0.25 * math.sin(t)), 1.0],
                              [-2.0, -3.0]], what="A")
    for s0, s, steps in ((0.0, 1.0, 256), (-0.7, 2.3, 33)):
        ref = ode_transition(analytic, s0, s, steps)
        out = ode_transition(wrapped, s0, s, steps)
        assert np.abs(out.value - ref.value).max() <= 1e-13 * np.abs(ref.value).max()


# ------------------------------------------------------- commutative route


def test_check_commutativity(noncomm_family):
    diag = MatrixFunction([[Sinusoidal(1.0, 0.5, 2.0, 0.0), 0.0],
                           [0.0, Sinusoidal(-1.0, 0.25, 1.0, 0.5)]], what="A")
    report = check_commutativity(diag, (0.0, 2.0))
    assert report.passes
    assert report.max_violation < 1e-12
    report = check_commutativity(noncomm_family, (0.0, 2.0))
    assert not report.passes
    assert report.max_violation > 1e-3
    with pytest.raises(PreconditionError):
        check_commutativity(diag, (1.0, 0.0))


def test_commutative_transition_sinusoidal_scalar():
    # a(t) = -(1 + 0.5 sin t); int_0^1 a = -(1 + 0.5 (1 - cos 1))
    A = MatrixFunction([[Sinusoidal(-1.0, -0.5, 1.0, 0.0)]], what="A")
    out = commutative_transition(A, 0.0, 1.0)
    assert out.method == "commutative_exp"
    exact = math.exp(-(1.0 + 0.5 * (1.0 - math.cos(1.0))))
    assert abs(out.value[0, 0] - exact) < 1e-10


def test_commutative_transition_diagonal_elementwise():
    f1 = Sinusoidal(-1.0, 0.5, 2.0, 0.0)
    f2 = Sinusoidal(-2.0, 0.25, 1.0, 0.3)
    A = MatrixFunction([[f1, 0.0], [0.0, f2]], what="A")
    out = commutative_transition(A, 0.2, 1.7)

    def integral(a0, a1, w, phi, lo, hi):
        return a0 * (hi - lo) - a1 / w * (math.cos(w * hi + phi) - math.cos(w * lo + phi))

    exact = np.diag([math.exp(integral(-1.0, 0.5, 2.0, 0.0, 0.2, 1.7)),
                     math.exp(integral(-2.0, 0.25, 1.0, 0.3, 0.2, 1.7))])
    assert np.abs(out.value - exact).max() < 1e-8
    assert np.abs(out.value - exact).max() < 10.0 * out.error_estimate
    assert out.value[0, 1] == 0.0


def test_commutative_transition_rejects_noncommuting(noncomm_family):
    with pytest.raises(PreconditionError):
        commutative_transition(noncomm_family, 0.0, 2.0)


def test_commutative_matches_constant_exponential(constant_family):
    out = commutative_transition(constant_family, 0.0, 1.0)
    assert np.abs(out.value - closed_form_constant(1.0)).max() < 1e-10


# ------------------------------------------------------------ cross-route


def test_routes_agree():
    A = MatrixFunction([[Sinusoidal(-1.5, 0.5, 3.0, 0.2)]], what="A")
    pb = peano_baker(A, 0.0, 2.0)
    ode = ode_transition(A, 0.0, 2.0, steps=2048)
    comm = commutative_transition(A, 0.0, 2.0)
    tol = max(1e-7, 10.0 * max(pb.error_estimate, ode.error_estimate,
                               comm.error_estimate))
    assert np.abs(pb.value - comm.value).max() < tol
    assert np.abs(ode.value - comm.value).max() < tol


def test_error_estimates_are_honest(noncomm_family):
    ref = ode_transition(noncomm_family, 0.0, 1.0, steps=2**14).value
    for route in (lambda: peano_baker(noncomm_family, 0.0, 1.0),
                  lambda: ode_transition(noncomm_family, 0.0, 1.0, steps=256)):
        out = route()
        true_err = np.abs(out.value - ref).max()
        assert out.error_estimate >= 0.0
        # the reported estimate bounds the true error within a small factor
        assert true_err < max(1e-9, 20.0 * out.error_estimate)
