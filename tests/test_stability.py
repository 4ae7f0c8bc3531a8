"""Tests for stability certificates, controllability, and companion transforms."""

import math

import numpy as np
import pytest

from tvls import (
    Callback,
    Constant,
    MatrixFunction,
    PreconditionError,
    Sinusoidal,
    SmoothnessError,
    StabilityCertificate,
    StateSpaceModel,
    Step,
    TvlsError,
    auto_certificate,
    carma_transform,
    commutative_route_check,
    controllability_matrix,
    eigen_bound_check,
    instantaneous_controllability,
    lambda_max_check,
    ode_transition,
    structural_break_gap,
    transfer_equivalence,
)
from tvls.stability import (
    BREAK_CARMA_A,
    BREAK_CARMA_NOISE,
    BREAK_CARMA_OBS,
    BREAK_STATE_A,
    BREAK_STATE_NOISE,
    BREAK_STATE_OBS,
)


def envelope_holds(A, cert, n_pairs=25, seed=0, slack=1.05):
    """Spot-check ||Psi(x, s)||_2 <= slack * gamma e^{-lam (x-s)}."""
    lo, hi = cert.checked_window
    rng = np.random.default_rng(seed)
    for _ in range(n_pairs):
        s, x = np.sort(rng.uniform(lo, hi, size=2))
        if x - s < 1e-6:
            continue
        psi = ode_transition(A, s, x, steps=512).value
        bound = slack * cert.gamma * math.exp(-cert.lam * (x - s))
        assert np.linalg.norm(psi, 2) <= bound + 1e-12


# ------------------------------------------------------- lambda_max route


def test_lambda_max_pointwise(diag_fixture):
    cert = lambda_max_check(diag_fixture.A, (-5.0, 0.0))
    assert cert.passed
    assert cert.route == "lambda_max"
    assert cert.gamma == 1.0
    assert cert.lam == pytest.approx(2.0)
    assert cert.details["criterion"] == "pointwise"
    assert cert.checked_window == (-5.0, 0.0)
    envelope_holds(diag_fixture.A, cert)


def test_lambda_max_scalar_floor():
    # a(t) >= 0.5 on the window certifies lam = 0.5 with gamma = 1
    A = MatrixFunction([[Sinusoidal(-0.75, 0.25, 1.0, 0.0)]], what="A")
    cert = lambda_max_check(A, (0.0, 2.0 * np.pi))
    assert cert.passed
    assert cert.gamma == 1.0
    assert cert.lam == pytest.approx(0.5, abs=1e-9)


def test_lambda_max_integral_criterion():
    # a(t) = 1 - 1.5 sin t dips negative but averages to decay rate 1;
    # the transient excess integral 3 (1 - cos .) peaks at 6, so gamma = e^3
    A = MatrixFunction([[Sinusoidal(-1.0, 1.5, 1.0, 0.0)]], what="A")
    cert = lambda_max_check(A, (0.0, 2.0 * np.pi))
    assert cert.passed
    assert cert.details["criterion"] == "integral"
    assert cert.lam == pytest.approx(1.0, abs=1e-6)
    assert cert.gamma == pytest.approx(math.exp(3.0), rel=1e-2)
    envelope_holds(A, cert)


def test_lambda_max_failure():
    # sup lambda_max(A + A') = -3 + sqrt(13) > 0 and constant families
    # cannot be rescued by averaging
    A = MatrixFunction([[0.0, 2.0], [0.0, -3.0]], what="A")
    fail = lambda_max_check(A, (0.0, 1.0))
    assert not fail.passed
    assert fail.route == "lambda_max"
    assert fail.sup_lambda_max == pytest.approx(-3.0 + math.sqrt(13.0), abs=1e-12)
    assert "eigen_bound_check" in fail.hint


def test_lambda_max_window_validation(diag_fixture):
    with pytest.raises(PreconditionError):
        lambda_max_check(diag_fixture.A, (1.0, 1.0))
    with pytest.raises(PreconditionError):
        lambda_max_check(diag_fixture.A, (2.0, 1.0))


# ------------------------------------------------------------- eigen route


def test_eigen_bound_non_normal():
    # pointwise spectra are stable but the symmetrized envelope is not
    A = MatrixFunction([[-1.0, 4.0], [0.0, -2.0]], what="A")
    assert not lambda_max_check(A, (0.0, 3.0)).passed
    cert = eigen_bound_check(A, (0.0, 3.0))
    assert cert.passed
    assert cert.route == "eigen_bound"
    assert cert.lam == pytest.approx(0.5)  # mu/2 with mu = 1
    assert cert.gamma > 1.0
    assert cert.details["mu"] == pytest.approx(1.0)
    assert cert.details["margin"] == 1.05
    envelope_holds(A, cert)


def test_eigen_bound_on_callback_matches_analytic_family():
    analytic = MatrixFunction([[Sinusoidal(-1.0, -0.25, 1.0, 0.0), 1.0],
                               [0.0, -2.0]], what="A")
    wrapped = MatrixFunction([[Callback(lambda t: -1.0 - 0.25 * math.sin(t)), 1.0],
                              [0.0, -2.0]], what="A")
    ref = eigen_bound_check(analytic, (0.0, 2.0))
    cert = eigen_bound_check(wrapped, (0.0, 2.0))
    assert ref.passed and cert.passed
    assert cert.gamma == pytest.approx(ref.gamma, rel=1e-9)
    assert cert.lam == pytest.approx(ref.lam, rel=1e-12)


def test_eigen_bound_drifting_companion_values(drifting_companion):
    # gamma and lam as the per-step RK4 loop gave them before the batched core
    A = drifting_companion.A
    expected = {(-0.5, 0.5): (1.782576981536633, 0.8169872981077808),
                (-1.25, 1.0): (1.6720339065682357, 0.6376275643042053)}
    for window, (gamma, lam) in expected.items():
        assert not lambda_max_check(A, window).passed
        cert = eigen_bound_check(A, window)
        assert cert.passed
        assert cert.gamma == pytest.approx(gamma, rel=1e-12, abs=0.0)
        assert cert.lam == pytest.approx(lam, rel=1e-12, abs=0.0)


def test_eigen_bound_rejects_steps():
    A = MatrixFunction([[Step(0.5, -1.0, -2.0)]], what="A")
    with pytest.raises(SmoothnessError):
        eigen_bound_check(A, (0.0, 1.0))


def test_eigen_bound_failure():
    A = MatrixFunction([[Constant(0.5)]], what="A")
    fail = eigen_bound_check(A, (0.0, 1.0))
    assert not fail.passed
    assert "Re eig" in fail.reason


# ------------------------------------------------------- commutative route


def test_commutative_route_diagonal():
    A = MatrixFunction([[Sinusoidal(-1.0, 0.25, 2.0, 0.0), 0.0],
                        [0.0, -2.0]], what="A")
    cert = commutative_route_check(A, (0.0, 4.0))
    assert cert.passed
    assert cert.route == "commutative"
    assert cert.gamma == pytest.approx(1.0)  # diagonal: eigenbasis is I
    assert 0.7 < cert.lam <= 1.0
    assert cert.details["max_commutator"] < 1e-10
    envelope_holds(A, cert)


def test_commutative_route_rejects_noncommuting(noncomm_family):
    fail = commutative_route_check(noncomm_family, (0.0, 2.0))
    assert not fail.passed
    assert "commute" in fail.reason


def test_commutative_route_rejects_defective():
    A = MatrixFunction([[-1.0, 1.0], [0.0, -1.0]], what="A")
    fail = commutative_route_check(A, (0.0, 2.0))
    assert not fail.passed
    assert "diagonalizable" in fail.reason


def test_commutative_route_rejects_antistable():
    A = MatrixFunction([[0.5]], what="A")
    fail = commutative_route_check(A, (0.0, 2.0))
    assert not fail.passed
    assert fail.sup_lambda_max == pytest.approx(0.5)


# ------------------------------------------------------- auto certificate


def _two_route_chain(A, window):
    """The lambda_max -> eigen chain that kernels, spectral and the CLI each
    used to write out: the first pass, else the lambda_max failure."""
    cert = lambda_max_check(A, window)
    if cert.passed:
        return cert
    try:
        cert2 = eigen_bound_check(A, window)
    except SmoothnessError:
        return cert
    return cert2 if cert2.passed else cert


def _stability_loop(A, window):
    """The old ``tvls stability --route auto`` loop: every route in turn,
    skipping any that raises, up to the first pass."""
    result = None
    for check in (lambda_max_check, eigen_bound_check, commutative_route_check):
        try:
            result = check(A, window)
        except TvlsError:
            continue
        if result.passed:
            break
    return result


def test_auto_certificate_matches_the_old_chains(car1, tvcar1, sin_car1, diag_fixture,
                                                 companion_fixture, drifting_companion):
    scaled = [[Step(0.5, -1.0, -2.0), Step(0.5, 4.0, 8.0)],
              [0.0, Step(0.5, -2.0, -4.0)]]  # s(t) [[-1, 4], [0, -2]]: steps, commuting
    cases = [
        (car1.A, (-1.0, 1.0)), (tvcar1.A, (-1.0, 0.0)), (tvcar1.A, (-10.0, 0.0)),
        (sin_car1.A, (-0.7, 0.3)), (diag_fixture.A, (-5.0, 0.0)),
        (companion_fixture.A, (0.0, 1.0)), (drifting_companion.A, (-1.25, 1.0)),
        (MatrixFunction([[Sinusoidal(-1.0, 1.5, 1.0, 0.0)]], what="A"), (0.0, 2.0 * np.pi)),
        (MatrixFunction([[Step(0.5, -1.0, -2.0)]], what="A"), (0.0, 1.0)),
        (MatrixFunction([[Sinusoidal(-1.0, 0.25, 2.0, 0.0), 0.0], [0.0, -2.0]], what="A"),
         (0.0, 4.0)),
        (MatrixFunction(scaled, what="A"), (0.0, 1.0)),
    ]
    routes = []
    for A, window in cases:
        cert = auto_certificate(A, window)
        assert cert.passed
        routes.append(cert.route)
        for old in (_two_route_chain(A, window), _stability_loop(A, window)):
            if old.passed:
                assert (old.route, old.gamma, old.lam) == (cert.route, cert.gamma, cert.lam)
    assert routes[5:7] == ["eigen_bound"] * 2
    assert routes[-1] == "commutative"  # lambda_max fails, eigen does not apply


def test_auto_certificate_failure_is_the_lambda_max_one():
    A = MatrixFunction([[0.5]], what="A")
    fail = auto_certificate(A, (0.0, 1.0))
    assert not fail.passed
    assert fail.route == "lambda_max"
    assert fail.reason == lambda_max_check(A, (0.0, 1.0)).reason
    with pytest.raises(PreconditionError, match="positive length"):
        auto_certificate(A, (1.0, 0.0))


# ------------------------------------------------------------ certificates


def test_default_u_max_formula():
    cert = StabilityCertificate(gamma=2.0, lam=1.5, route="lambda_max",
                                checked_window=(0.0, 1.0), grid_points=129)
    expected = math.log(4.0 / (2.0 * 1.5 * 1e-8)) / (2.0 * 1.5)
    assert cert.default_u_max() == pytest.approx(expected)
    assert cert.default_u_max(tol=1e-4) == pytest.approx(
        math.log(4.0 / (2.0 * 1.5 * 1e-4)) / (2.0 * 1.5))
    # floored at one lag unit for very fast decay
    fast = StabilityCertificate(gamma=1.0, lam=100.0, route="lambda_max",
                                checked_window=(0.0, 1.0), grid_points=129)
    assert fast.default_u_max() == 1.0


# --------------------------------------------------------- controllability


def test_controllability_matrix_fixture():
    # K0 = C = (0,1)', K1 = -A K0 = (-1,-1)' for constant coefficients
    A = MatrixFunction([[0.0, 1.0], [1.0, 1.0]], what="A")
    m = StateSpaceModel(2, A, [1.0, 0.0], [0.0, 1.0], {"brownian_variance": 1.0})
    W = controllability_matrix(m, 0.0)
    assert np.allclose(W, [[0.0, -1.0], [1.0, -1.0]])
    report = instantaneous_controllability(m, [0.0, 1.0, 2.0])
    assert report.full_rank
    assert report.ranks == [2, 2, 2]
    assert all(s > 0.1 for s in report.min_singular)


def test_controllability_constant_powers(diag_fixture):
    # constant coefficients: K_i = (-A)^i C
    W = controllability_matrix(diag_fixture, 0.7)
    A0 = np.diag([-2.0, -3.0])
    c = np.ones(2)
    assert np.allclose(W[:, 0], c)
    assert np.allclose(W[:, 1], -A0 @ c)


def test_controllability_time_varying_matches_finite_differences():
    a = Sinusoidal(1.0, 0.25, 1.0, 0.0)
    A = MatrixFunction([[a.negated(), Constant(1.0)],
                        [Constant(0.0), Constant(-2.0)]], what="A")
    C = MatrixFunction.column([Sinusoidal(1.0, 0.5, 2.0, 0.0), Constant(1.0)],
                              what="C")
    m = StateSpaceModel(2, A, [1.0, 0.0], C, {"brownian_variance": 1.0})

    def k_columns(tt):
        # K_0 = C, K_{i+1} = -A K_i + K_i' with K_i' by central differences
        h = 1e-5

        def k0(x):
            return m.C.eval(x).reshape(2)

        def k1(x):
            dk0 = (k0(x + h) - k0(x - h)) / (2.0 * h)
            return -m.A.eval(x) @ k0(x) + dk0

        return np.column_stack([k0(tt), k1(tt)])

    for t in (-0.3, 0.0, 1.1):
        assert np.abs(controllability_matrix(m, t) - k_columns(t)).max() < 1e-6


def test_controllability_depth_three():
    # p = 3 exercises second derivatives in the term algebra
    a = Sinusoidal(1.0, 0.25, 1.0, 0.0)
    A = MatrixFunction([[a.negated(), 1.0, 0.0],
                        [0.0, -2.0, 1.0],
                        [0.0, 0.0, -3.0]], what="A")
    C = MatrixFunction.column([Constant(1.0), Sinusoidal(0.5, 0.25, 2.0, 0.0),
                               Constant(1.0)], what="C")
    m = StateSpaceModel(3, A, [1.0, 0.0, 0.0], C, {"brownian_variance": 1.0})
    h = 1e-4

    def k_col(i, tt):
        if i == 0:
            return m.C.eval(tt).reshape(3)
        dk = (k_col(i - 1, tt + h) - k_col(i - 1, tt - h)) / (2.0 * h)
        return -m.A.eval(tt) @ k_col(i - 1, tt) + dk

    W_exact = controllability_matrix(m, 0.4)
    W_num = np.column_stack([k_col(i, 0.4) for i in range(3)])
    assert np.abs(W_exact - W_num).max() < 1e-5


def test_controllability_rank_deficient():
    A = MatrixFunction([[0.0, 1.0], [0.0, 0.0]], what="A")
    m = StateSpaceModel(2, A, [1.0, 0.0], [1.0, 0.0], {"brownian_variance": 1.0})
    report = instantaneous_controllability(m, 0.0)
    assert not report.full_rank
    assert report.ranks == [1]
    zero_c = StateSpaceModel(2, A, [1.0, 0.0], [0.0, 0.0],
                             {"brownian_variance": 1.0})
    report = instantaneous_controllability(zero_c, [0.0, 1.0])
    assert report.ranks == [0, 0]


def test_controllability_rejects_steps():
    A = MatrixFunction([[Step(0.5, -1.0, -2.0)]], what="A")
    m = StateSpaceModel(1, A, [1.0], [1.0], {"brownian_variance": 1.0})
    with pytest.raises(SmoothnessError):
        controllability_matrix(m, 0.0)


# ---------------------------------------------------------- carma transform


def test_carma_transform_worked_example(diag_fixture):
    res = carma_transform(diag_fixture, 0.0)
    assert res.method == "jets"
    assert np.allclose(res.T, [[1.0, -1.0], [-2.0, 3.0]], atol=1e-12)
    assert np.allclose(res.T_dot, 0.0, atol=1e-12)
    assert np.allclose(res.carma_A, BREAK_CARMA_A, atol=1e-10)
    assert np.allclose(res.ar, [5.0, 6.0], atol=1e-10)
    assert np.allclose(res.observation, BREAK_CARMA_OBS, atol=1e-10)
    assert np.allclose(res.noise, BREAK_CARMA_NOISE, atol=1e-12)
    assert res.residual_noise < 1e-12
    assert res.residual_companion < 1e-10


def test_carma_transform_companion_is_fixed_point(companion_fixture):
    res = carma_transform(companion_fixture, 0.0)
    assert np.allclose(res.T, np.eye(2), atol=1e-12)
    assert np.allclose(res.T_dot, 0.0, atol=1e-12)
    assert np.allclose(res.ar, [5.0, 6.0], atol=1e-10)
    assert np.allclose(res.observation, [5.0, 2.0], atol=1e-10)


def test_carma_transform_jets_vs_finite_differences():
    # a genuinely time-varying, non-companion model, once with analytic
    # coefficient families (jet route) and once wrapped in opaque callbacks
    # (finite-difference route)
    def damping(t):
        return -(1.0 + 0.25 * math.sin(t))

    A_jet = MatrixFunction([[Sinusoidal(-1.0, -0.25, 1.0, 0.0), 1.0],
                            [0.0, -2.0]], what="A")
    A_num = MatrixFunction([[Callback(damping), 1.0],
                            [0.0, -2.0]], what="A")
    levy = {"brownian_variance": 1.0}
    m_jet = StateSpaceModel(2, A_jet, [1.0, 0.0], [1.0, 1.0], levy)
    m_num = StateSpaceModel(2, A_num, [1.0, 0.0], [1.0, 1.0], levy)
    r_jet = carma_transform(m_jet, 0.4)
    r_num = carma_transform(m_num, 0.4)
    assert r_jet.method == "jets"
    assert r_num.method == "finite-difference"
    assert np.abs(r_jet.T - r_num.T).max() < 1e-6
    assert np.abs(r_jet.T_dot - r_num.T_dot).max() < 1e-4
    assert np.abs(r_jet.ar - r_num.ar).max() < 1e-4
    assert np.abs(r_jet.observation - r_num.observation).max() < 1e-5
    # the jet route satisfies its postconditions tightly
    assert r_jet.residual_noise < 1e-12
    assert r_jet.residual_companion < 1e-8


def test_carma_transform_round_trip_transfer(diag_fixture):
    # companion realization built from the transform output is
    # observationally equivalent to the original model
    res = carma_transform(diag_fixture, 0.0)
    rebuilt = StateSpaceModel(
        2, MatrixFunction.constant(res.carma_A, what="A"),
        [float(v) for v in res.observation],
        [float(v) for v in res.noise],
        {"brownian_variance": 1.0})
    report = transfer_equivalence(diag_fixture, rebuilt, 0.0)
    assert report.equivalent
    assert report.max_rel_error < 1e-10


def test_carma_transform_singular_controllability():
    A = MatrixFunction([[0.0, 1.0], [0.0, 0.0]], what="A")
    m = StateSpaceModel(2, A, [1.0, 0.0], [1.0, 0.0], {"brownian_variance": 1.0})
    with pytest.raises(PreconditionError):
        carma_transform(m, 0.0)


def test_carma_transform_rejects_steps():
    A = MatrixFunction([[Step(0.5, -1.0, -2.0)]], what="A")
    m = StateSpaceModel(1, A, [1.0], [1.0], {"brownian_variance": 1.0})
    with pytest.raises(SmoothnessError):
        carma_transform(m, 0.0)


def test_carma_transform_scalar():
    a = Sinusoidal(1.0, 0.25, 1.0, 0.0)
    A = MatrixFunction([[a.negated()]], what="A")
    m = StateSpaceModel(1, A, [2.0], [0.5], {"brownian_variance": 1.0})
    res = carma_transform(m, 0.3)
    # p = 1: T = 1/C, drift is the scalar coefficient itself
    assert res.T[0, 0] == pytest.approx(2.0)
    assert res.noise[0] == pytest.approx(1.0)
    assert res.ar[0] == pytest.approx(a.value(0.3), abs=1e-10)
    assert res.observation[0] == pytest.approx(1.0)  # B / T


# ------------------------------------------------------ transfer equivalence


def test_transfer_equivalence_fixtures(diag_fixture, companion_fixture):
    report = transfer_equivalence(diag_fixture, companion_fixture, 0.0)
    assert report.equivalent
    assert report.max_rel_error < 1e-12
    assert report.n_used == 24
    assert report.n_skipped == 0
    assert report.note == ""


def test_transfer_equivalence_detects_difference(diag_fixture, brownian):
    A = MatrixFunction([[0.0, 1.0], [-6.0, -5.0]], what="A")
    other = StateSpaceModel(2, A, [5.0, 2.01], [0.0, 1.0], brownian)
    report = transfer_equivalence(diag_fixture, other, 0.0)
    assert not report.equivalent
    assert report.max_rel_error > 1e-4


def test_transfer_equivalence_skips_spectrum_points(diag_fixture, companion_fixture):
    z = np.array([-2.0, -3.0, 5.0 + 0.0j])
    report = transfer_equivalence(diag_fixture, companion_fixture, 0.0, z_samples=z)
    assert report.n_skipped == 2
    assert report.n_used == 1
    assert report.equivalent
    assert "skipped" in report.note
    all_on = transfer_equivalence(diag_fixture, companion_fixture, 0.0,
                                  z_samples=np.array([-2.0 + 1e-9j]))
    assert not all_on.equivalent
    assert all_on.n_used == 0


# ------------------------------------------------------- structural break


def test_structural_break_gap_value():
    # forecasting from an untransformed state after a basis switch:
    # gap(1, e_1) = 2 (e^{-2} + e^{-3})
    exact = 2.0 * (math.exp(-2.0) + math.exp(-3.0))
    assert structural_break_gap(1.0, [1.0, 0.0]) == pytest.approx(exact, abs=1e-12)
    assert structural_break_gap(1.0, [1.0, 0.0]) == pytest.approx(
        0.37024470320895386, abs=1e-12)


def test_structural_break_gap_positive_and_decaying():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(0.0, 2.0, size=2)
        if x.max() < 1e-6:
            continue
        tau = rng.uniform(0.05, 3.0)
        assert structural_break_gap(tau, x) > 0.0
    x = [1.0, 1.0]
    assert structural_break_gap(5.0, x) < structural_break_gap(1.0, x)
    assert abs(structural_break_gap(20.0, x)) < 1e-15


def test_break_constants_consistent(diag_fixture):
    # the published example matrices are exactly what carma_transform yields
    res = carma_transform(diag_fixture, 0.0)
    assert np.allclose(np.diag(BREAK_STATE_A), [-2.0, -3.0])
    assert np.allclose(BREAK_STATE_OBS, [1.0, 1.0])
    assert np.allclose(BREAK_STATE_NOISE, [1.0, 1.0])
    assert np.allclose(res.carma_A, BREAK_CARMA_A, atol=1e-10)
    assert np.allclose(res.observation, BREAK_CARMA_OBS, atol=1e-10)
    assert np.allclose(res.noise, BREAK_CARMA_NOISE, atol=1e-10)
