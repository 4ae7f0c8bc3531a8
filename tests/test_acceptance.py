"""Acceptance suite: end-to-end numerical checks of the package contract.

Each test exercises one headline guarantee at its stated tolerance and
prints a single ``ACCEPTANCE k (...): PASS/FAIL`` line so the whole gate
is readable from the pytest output alone.
"""

import math
import time

import numpy as np

from tvls.kernels import convergence_diagnostic, kernel_grid
from tvls.levy import LevyModel
from tvls.model import (
    Affine,
    CarmaModel,
    Constant,
    MatrixFunction,
    Sinusoidal,
    StateSpaceModel,
    companion_from_carma,
)
from tvls.simulate import empirical_covariance, simulate_paths
from tvls.spectral import GridConfig, covariance, transfer_function, wigner_ville, wv_convergence
from tvls.stability import (
    auto_certificate,
    carma_transform,
    commutative_route_check,
    eigen_bound_check,
    instantaneous_controllability,
    lambda_max_check,
    structural_break_gap,
    transfer_equivalence,
)
from tvls.transition import ode_transition, peano_baker


def _announce(capsys, num, name, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")


def test_acceptance_01_stationary_collapse(car1, capsys):
    # constant-coefficient model: time-frequency spectrum == stationary density
    start = time.perf_counter()
    lam = np.linspace(-5.0, 5.0, 201)
    config = GridConfig(certificate=lambda_max_check(car1.A, (-1.0, 1.0)))
    wv = wigner_ville(car1, 8, 0.0, lam, config)
    target = 1.0 / (2.0 * np.pi * (1.0 + lam**2))
    sup_err = float(np.max(np.abs(wv.values - target)))
    elapsed = time.perf_counter() - start
    ok = sup_err < 5e-3 and elapsed < 10.0
    _announce(capsys, 1, "stationary collapse", ok)
    assert sup_err < 5e-3
    assert elapsed < 10.0


def test_acceptance_02_spectral_convergence(tvcar1, capsys):
    start = time.perf_counter()
    lam = np.linspace(-5.0, 5.0, 101)
    config = GridConfig(u_max=12.0, s_max=15.0,
                        certificate=lambda_max_check(tvcar1.A, (-1.0, 1.0)))
    report = wv_convergence(tvcar1, 0.0, lam, [2, 64], config)
    d_first, d_last = report.distances
    factor = d_first / d_last
    elapsed = time.perf_counter() - start
    ok = factor >= 5.0 and elapsed < 120.0
    _announce(capsys, 2, f"spectral convergence (factor {factor:.1f})", ok)
    assert factor >= 5.0
    assert elapsed < 120.0


def test_acceptance_03_kernel_convergence(tvcar1, capsys):
    start = time.perf_counter()
    cert = lambda_max_check(tvcar1.A, (-1.0, 0.0))
    n_list = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    report = convergence_diagnostic(tvcar1, 0.0, n_list, cert.default_u_max())
    d = report.distances
    monotone = all(b < a for a, b in zip(d, d[1:]))
    shrunk = d[-1] < d[0] / 20.0
    elapsed = time.perf_counter() - start
    ok = monotone and shrunk and elapsed < 30.0
    _announce(capsys, 3, "kernel convergence", ok)
    assert monotone
    assert shrunk
    assert elapsed < 30.0


def test_acceptance_04_decorrelation(tvcar1, capsys):
    config = GridConfig(u_max=25.0)
    n_values = [1, 4, 16, 64, 128]
    covs = [covariance(tvcar1, n, 0.5, -0.5, config) for n in n_values]
    var_scale = covariance(tvcar1, 128, 0.5, 0.5, config)
    weakly_decreasing = all(abs(b) <= abs(a) for a, b in zip(covs, covs[1:]))
    small = abs(covs[-1]) < 1e-3 * var_scale

    # Monte-Carlo cross-check where the covariance is resolvable
    t_grid = np.array([-0.5, 0.5])
    cert = lambda_max_check(tvcar1.A, (-2.0, 1.0))
    agree = True
    for n in (1, 4):
        ens = simulate_paths(tvcar1, n, t_grid, 10_000, seed=21, certificate=cert)
        est = empirical_covariance(ens, -0.5, 0.5)
        agree &= abs(est.estimate - covariance(tvcar1, n, 0.5, -0.5, config)) <= 3.0 * est.stderr
    ok = weakly_decreasing and small and agree
    _announce(capsys, 4, "decorrelation", ok)
    assert weakly_decreasing
    assert small
    assert agree


def test_acceptance_05_transition_series(noncomm_family, capsys):
    A_mat = np.array([[0.0, 1.0], [-2.0, -3.0]])
    A_const = MatrixFunction.constant(A_mat, what="A")
    closed = ((2.0 * math.exp(-1.0) - math.exp(-2.0)) * np.eye(2)
              + (math.exp(-1.0) - math.exp(-2.0)) * A_mat)
    err_const = float(np.linalg.norm(
        peano_baker(A_const, 0.0, 1.0, tol=1e-12).value - closed))

    pb = peano_baker(noncomm_family, 0.0, 1.0, tol=1e-12).value
    rk = ode_transition(noncomm_family, 0.0, 1.0, steps=2**14).value
    err_tv = float(np.linalg.norm(pb - rk))

    rng = np.random.default_rng(5)
    worst_semigroup = 0.0
    for _ in range(50):
        s0, s1, s2 = np.sort(rng.uniform(0.0, 1.0, size=3))
        direct = peano_baker(noncomm_family, s0, s2, tol=1e-12).value
        composed = (peano_baker(noncomm_family, s1, s2, tol=1e-12).value
                    @ peano_baker(noncomm_family, s0, s1, tol=1e-12).value)
        worst_semigroup = max(worst_semigroup,
                              float(np.linalg.norm(direct - composed)))
    ok = err_const < 1e-9 and err_tv < 1e-7 and worst_semigroup < 1e-7
    _announce(capsys, 5, "transition series", ok)
    assert err_const < 1e-9
    assert err_tv < 1e-7
    assert worst_semigroup < 1e-7


def test_acceptance_06_transfer_fixture(diag_fixture, companion_fixture, capsys):
    A = diag_fixture.A.eval(0.0)
    b = diag_fixture.B.eval_vec(0.0)
    c = diag_fixture.C.eval_vec(0.0)
    z_samples = [0.0, 1.0, -1.0, 3.0, 0.25j, 0.5j, 2.0j,
                 1.0 + 1.0j, -0.5 + 2.0j, -4.0 + 0.5j]
    worst_rel = 0.0
    for z in z_samples:
        value = b @ np.linalg.solve(z * np.eye(2) - A, c)
        target = (2.0 * z + 5.0) / (z * z + 5.0 * z + 6.0)
        worst_rel = max(worst_rel, abs(value - target) / abs(target))
    at_zero = b @ np.linalg.solve(-A, c)
    zero_ok = abs(at_zero - 5.0 / 6.0) < 1e-10
    pair = transfer_equivalence(diag_fixture, companion_fixture, 0.0)

    gap = structural_break_gap(1.0, np.array([1.0, 0.0]))
    gap_ok = abs(gap - 2.0 * (math.exp(-2.0) + math.exp(-3.0))) < 1e-10
    rng = np.random.default_rng(6)
    positive = all(structural_break_gap(1.0, rng.uniform(0.05, 3.0, size=2)) > 0.0
                   for _ in range(100))
    ok = (worst_rel < 1e-10 and zero_ok and pair.equivalent
          and gap_ok and positive)
    _announce(capsys, 6, "transfer fixture", ok)
    assert worst_rel < 1e-10
    assert zero_ok
    assert pair.equivalent and pair.max_rel_error < 1e-10
    assert gap_ok
    assert positive


def test_acceptance_07_controllability(capsys):
    def rank_of(A_mat, c_vec):
        m = StateSpaceModel(2, MatrixFunction.constant(A_mat, what="A"),
                            [1.0, 0.0], [float(v) for v in c_vec],
                            {"brownian_variance": 1.0})
        return instantaneous_controllability(m, [0.0]).ranks[0]

    A1 = np.array([[0.0, 1.0], [1.0, 1.0]])
    c1 = np.array([0.0, 1.0])
    full = rank_of(A1, c1) == 2
    empty = rank_of(A1, [0.0, 0.0]) == 0

    rng = np.random.default_rng(7)
    invariant = True
    trials = 0
    while trials < 20:
        S = rng.normal(size=(2, 2))
        if np.linalg.cond(S) > 20.0:
            continue
        trials += 1
        invariant &= rank_of(S @ A1 @ np.linalg.inv(S), S @ c1) == 2
    ok = full and empty and invariant
    _announce(capsys, 7, "controllability", ok)
    assert full
    assert empty
    assert invariant


def test_acceptance_08_carma_equivalence(capsys):
    rng = np.random.default_rng(8)
    worst_rel = 0.0
    all_equivalent = True
    checked = 0
    while checked < 5:
        p = 2 + checked % 2
        R = rng.normal(size=(p, p))
        A_mat = R - (np.linalg.norm(R, 2) + 0.5) * np.eye(p)
        m = StateSpaceModel(p, MatrixFunction.constant(A_mat, what="A"),
                            [float(v) for v in rng.normal(size=p)],
                            [float(v) for v in rng.normal(size=p)],
                            {"brownian_variance": 1.0})
        report = instantaneous_controllability(m, [0.0])
        if report.ranks[0] < p or report.min_singular[0] < 1e-6:
            continue
        checked += 1
        res = carma_transform(m, 0.0)
        rebuilt = StateSpaceModel(p, MatrixFunction.constant(res.carma_A, what="A"),
                                  [float(v) for v in res.observation],
                                  [float(v) for v in res.noise],
                                  {"brownian_variance": 1.0})
        equiv = transfer_equivalence(m, rebuilt, 0.0)
        all_equivalent &= equiv.equivalent
        worst_rel = max(worst_rel, equiv.max_rel_error)
    ok = all_equivalent and worst_rel < 1e-8
    _announce(capsys, 8, "carma equivalence", ok)
    assert all_equivalent
    assert worst_rel < 1e-8


def test_acceptance_09_simulation_moments(capsys):
    start = time.perf_counter()
    target_lag = math.exp(-1.0) / 2.0
    checks = []
    noises = [LevyModel(brownian_variance=1.0),
              LevyModel(brownian_variance=0.5, jump_intensity=2.0, jump_std=0.5)]
    for seed, levy in zip((2024, 2026), noises):
        m = StateSpaceModel(1, MatrixFunction([[Constant(-1.0)]], what="A"),
                            [Constant(1.0)], [Constant(1.0)], levy)
        # N = 20 turns the rescaled spacing 0.05 into a driving-time lag of 1
        t_grid = np.arange(2) * 0.05
        ens = simulate_paths(m, 20, t_grid, 10_000, seed=seed, burn_in=12.0)
        var = float(ens.observations[:, 0].var(ddof=1))
        lag = empirical_covariance(ens, 0.0, 0.05)
        checks.append((0.47 <= var <= 0.53,
                       abs(lag.estimate - target_lag) <= 3.0 * lag.stderr))
    elapsed = time.perf_counter() - start
    ok = all(v and l for v, l in checks) and elapsed < 120.0
    _announce(capsys, 9, "simulation moments", ok)
    for var_ok, lag_ok in checks:
        assert var_ok
        assert lag_ok
    assert elapsed < 120.0


def test_acceptance_10_plancherel(car1, tvcar1, diag_fixture, companion_fixture,
                                  sin_car1, brownian, capsys):
    carma21 = companion_from_carma(CarmaModel(
        2, 1, [Constant(3.0), Constant(2.0)], [Constant(1.0), Constant(1.0)],
        brownian))
    cases = [(car1, 0.0), (tvcar1, 0.0), (diag_fixture, 0.0),
             (companion_fixture, 0.0), (carma21, 0.0), (sin_car1, 0.3)]
    d_mu = 0.01
    mu = np.arange(-25600, 25601) * d_mu  # |mu| <= 256
    worst_rel = 0.0
    for m, t in cases:
        cert = auto_certificate(m.A, (t - 1.0, t))
        kern = kernel_grid(m, "limit", t, u_max=cert.default_u_max())
        mass_time = kern.l2_mass()
        sq = np.abs(transfer_function(kern, mu))**2
        mass_freq = d_mu * (sq.sum() - 0.5 * (sq[0] + sq[-1])) / (2.0 * np.pi)
        worst_rel = max(worst_rel, abs(mass_time - mass_freq) / mass_time)
    ok = worst_rel < 0.01
    _announce(capsys, 10, f"plancherel (worst {100 * worst_rel:.2f}%)", ok)
    assert worst_rel < 0.01


def test_acceptance_11_stability_certificates(diag_fixture, companion_fixture,
                                              capsys):
    def envelope_holds(A, cert, n_points=50, seed=11, slack=1.05):
        rng = np.random.default_rng(seed)
        lo, hi = cert.checked_window
        for _ in range(n_points):
            s0, s1 = np.sort(rng.uniform(lo, hi, size=2))
            if s1 - s0 < 1e-6:
                s1 = min(hi, s0 + 1e-6)
            psi = ode_transition(A, s0, s1, steps=512).value
            bound = slack * cert.gamma * math.exp(-cert.lam * (s1 - s0))
            if float(np.linalg.norm(psi, 2)) > bound:
                return False
        return True

    def scalar_family(entry):
        return MatrixFunction([[entry]], what="A")

    # scalar models with a(t) >= 0.5 and the infimum attained on the grid
    floor_models = [
        scalar_family(Constant(-0.5)),
        scalar_family(Affine(-0.5, -0.3)),
        scalar_family(Sinusoidal(-0.75, -0.25, 1.0, 0.0)),
    ]
    floor_windows = [(0.0, 2.0), (0.0, 2.0), (0.0, 2.0 * np.pi)]
    floor_ok = True
    certs = []
    for A, window in zip(floor_models, floor_windows):
        cert = lambda_max_check(A, window)
        floor_ok &= cert.passed and cert.lam == 0.5 and cert.gamma == 1.0
        certs.append((A, cert))

    # one certificate from every route, on fixtures exercised elsewhere
    certs.append((scalar_family(Sinusoidal(-1.0, 1.5, 1.0, 0.0)),
                  lambda_max_check(scalar_family(Sinusoidal(-1.0, 1.5, 1.0, 0.0)),
                                   (0.0, 2.0 * np.pi))))
    nonnormal = MatrixFunction.constant(np.array([[-1.0, 4.0], [0.0, -2.0]]),
                                        what="A")
    certs.append((nonnormal, eigen_bound_check(nonnormal, (0.0, 1.0))))
    comm_family = MatrixFunction(
        [[Sinusoidal(-1.0, 0.25, 2.0, 0.0), Constant(0.0)],
         [Constant(0.0), Constant(-2.0)]], what="A")
    certs.append((comm_family, commutative_route_check(comm_family, (0.0, 4.0))))
    certs.append((diag_fixture.A, lambda_max_check(diag_fixture.A, (0.0, 1.0))))
    certs.append((companion_fixture.A,
                  eigen_bound_check(companion_fixture.A, (0.0, 1.0))))

    all_passed = all(cert.passed for _, cert in certs)
    all_enveloped = all(envelope_holds(A, cert) for A, cert in certs)
    ok = floor_ok and all_passed and all_enveloped
    _announce(capsys, 11, "stability certificates", ok)
    assert floor_ok
    assert all_passed
    assert all_enveloped
