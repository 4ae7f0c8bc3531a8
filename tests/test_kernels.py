"""Tests for lag kernels, kernel grids, and the convergence diagnostic."""

import json
import math

import numpy as np
import pytest

from tvls import (
    Affine,
    Constant,
    GridMismatchError,
    KernelGrid,
    MatrixFunction,
    PiecewisePolynomial,
    PreconditionError,
    Sinusoidal,
    SmoothnessError,
    StateSpaceModel,
    Step,
    TailMassWarning,
    car1_kernel,
    convergence_diagnostic,
    kernel_grid,
    l2_distance,
    lambda_max_check,
    ode_transition,
    peano_baker,
)
from tvls.cli import dispatch
from tvls.model import sup_norm
from tvls.transition import _resolve_route


def _scalar_model(a):
    """dX = -a(.) X dt + L(dt), Y = X."""
    return StateSpaceModel(1, MatrixFunction([[a.negated()]], what="A"),
                           [1.0], [1.0], {"brownian_variance": 1.0})


# ------------------------------------------------------------ car1 kernels


def test_car1_constant_damping():
    a = Constant(1.0)
    for N in (1, 4, 100):
        for u in (0.1, 1.0, 3.7):
            assert car1_kernel(a, N, 0.3, u) == pytest.approx(math.exp(-u), abs=1e-12)
    assert car1_kernel(a, 1, 0.0, 0.0) == 1.0
    assert car1_kernel(a, 1, 0.0, -0.5) == 0.0
    limit = kernel_grid(_scalar_model(a), "limit", 0.0, u_max=2.0, du=0.5)
    assert limit.values[-1] == pytest.approx(math.exp(-2.0))


def test_car1_sinusoidal_closed_form():
    # a(t) = 1 + 0.5 sin t; int_{-u}^0 a(s/N + t) ds
    #   = u + 0.5 N (cos(t - u/N) - cos t)
    a = Sinusoidal(1.0, 0.5, 1.0, 0.0)
    for N, t, u in [(1, 0.0, 1.0), (4, 0.5, 2.0), (16, -0.3, 5.0)]:
        exact = math.exp(-(u + 0.5 * N * (math.cos(t - u / N) - math.cos(t))))
        assert car1_kernel(a, N, t, u) == pytest.approx(exact, abs=1e-10)


def test_car1_limit_is_frozen_coefficient():
    a = Sinusoidal(1.0, 0.5, 1.0, 0.0)
    t = 0.7
    grid = kernel_grid(_scalar_model(a), "limit", t, u_max=2.0, du=0.5)
    assert np.allclose(grid.values, np.exp(-a.value(t) * grid.u_grid), atol=1e-14)


def test_car1_rejects_discontinuous_damping():
    with pytest.raises(SmoothnessError):
        car1_kernel(Step(0.0, 1.0, 2.0), 1, 0.0, 1.0)


def test_car1_invalid_n():
    a = Constant(1.0)
    for bad in (0, -1, 1.5, "soon"):
        with pytest.raises(PreconditionError):
            car1_kernel(a, bad, 0.0, 1.0)


# ------------------------------------------------------ statespace kernels


def test_statespace_matches_car1():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a0 = rng.uniform(0.5, 2.0)
        a1 = rng.uniform(0.0, 0.4)
        w = rng.uniform(0.5, 3.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        a = Sinusoidal(a0, a1, w, phi)
        N = int(rng.integers(1, 50))
        t = rng.uniform(-1.0, 1.0)
        u = rng.uniform(0.0, 4.0)
        # A lag step of u / (2 P), with P the Simpson panels car1_kernel uses
        # at lag u, puts both on the same quadrature nodes at the last lag.
        panels = max(32, int(np.ceil(u / 0.05)))
        grid = kernel_grid(_scalar_model(a), N, t, u_max=u, du=u / (2 * panels))
        assert grid.values[-1] == pytest.approx(
            car1_kernel(a, N, t, grid.u_grid[-1]), abs=1e-12)


def test_limit_kernel_equal_across_representations(diag_fixture, companion_fixture):
    # both realizations share the limit kernel e^{-2u} + e^{-3u}
    g1 = kernel_grid(diag_fixture, "limit", 0.0, u_max=2.5, du=0.1)
    g2 = kernel_grid(companion_fixture, "limit", 0.0, u_max=2.5, du=0.1)
    exact = np.exp(-2.0 * g1.u_grid) + np.exp(-3.0 * g1.u_grid)
    assert np.abs(g1.values - exact).max() < 1e-10
    assert np.abs(g2.values - exact).max() < 1e-10


def test_finite_n_equals_limit_for_constant_models(diag_fixture):
    fin = kernel_grid(diag_fixture, 3, 0.0, u_max=4.0)
    lim = kernel_grid(diag_fixture, "limit", 0.0, u_max=4.0)
    assert np.abs(fin.values - lim.values).max() < 1e-9
    # and at a coarse lag step, against the closed form
    grid = kernel_grid(diag_fixture, 7, 0.0, u_max=1.1, du=0.1)
    for j in (3, 11):
        u = grid.u_grid[j]
        assert grid.values[j] == pytest.approx(
            math.exp(-2.0 * u) + math.exp(-3.0 * u), abs=1e-9)


def _panel_product(m, N, t, u_grid, panel):
    """Reference finite-N kernel B(t)' Psi(0, -u_j) C(t - u_j/N), with Psi
    accumulated one lag panel at a time from ``panel(shifted, j)``, the
    propagator over s in [-u_{j+1}, -u_j]."""
    shifted = m.A.reparametrized(t, 1.0 / N)
    c_vals = m.C.eval_array(t - u_grid / N)[:, :, 0]
    row = m.B.eval_vec(t)
    values = [row @ c_vals[0]]
    for j in range(len(u_grid) - 1):
        row = row @ panel(shifted, j)
        values.append(row @ c_vals[j + 1])
    return np.array(values)


def _pb_panel_loop(m, N, t, u_grid):
    """Reference finite-N kernel from one Peano-Baker series per lag panel."""
    return _panel_product(m, N, t, u_grid, lambda shifted, j: peano_baker(
        shifted, -u_grid[j + 1], -u_grid[j], tol=1e-12).value)


def test_kernel_grid_u_zero_and_methods(companion_fixture, noncomm_family):
    assert kernel_grid(companion_fixture, 5, 0.0, u_max=1.0).values[0] == pytest.approx(2.0)
    m = StateSpaceModel(2, noncomm_family, [1.0, 0.0], [0.0, 1.0],
                        {"brownian_variance": 1.0})
    ode = kernel_grid(m, 2, 0.0, u_max=1.5, du=0.5)
    assert ode.route == "ode"
    psi = peano_baker(m.A.reparametrized(0.0, 0.5), -1.5, 0.0).value
    assert ode.values[-1] == pytest.approx(
        m.B.eval_vec(0.0) @ psi @ m.C.eval_vec(-0.75), abs=1e-8)


def test_grid_routes_agree_on_noncommutative_model(noncomm_family):
    m = StateSpaceModel(2, noncomm_family, [1.0, 0.0], [0.0, 1.0],
                        {"brownian_variance": 1.0})
    g_ode = kernel_grid(m, 2, 0.0, u_max=3.0, du=0.01)
    assert g_ode.route == "ode"
    assert np.abs(_pb_panel_loop(m, 2, 0.0, g_ode.u_grid) - g_ode.values).max() < 1e-8


def _finite_grid_loop(m, N, t, u_grid, rk4_step_loop):
    """Reference finite-N kernel on the RK4 route: each panel's propagator
    from the scalar step loop, on the same stage grid as the package."""
    du = u_grid[1] - u_grid[0]
    shifted = m.A.reparametrized(t, 1.0 / N)
    n_panels = len(u_grid) - 1
    n_sub = max(1, int(np.ceil(du * max(1.0, sup_norm(shifted, -u_grid[-1], 0.0)) / 0.05)))
    a_stage = shifted.eval_array(np.linspace(-u_grid[-1], 0.0, 2 * n_sub * n_panels + 1))

    def panel(_, j):
        base = (n_panels - 1 - j) * 2 * n_sub
        return rk4_step_loop(a_stage[base:base + 2 * n_sub + 1], du / n_sub)

    return _panel_product(m, N, t, u_grid, panel)


def test_finite_grid_matches_scalar_panel_loop(drifting_companion, rk4_step_loop):
    # a kink in the damping at t = 0.2 lies inside the visited window [t - u_max/N, t]
    kinked_A = MatrixFunction([[Constant(0.0), Constant(1.0)],
                               [Constant(-4.0),
                                PiecewisePolynomial([0.2], [[-3.0, 2.0], [-2.2, -2.0]])]],
                              what="A")
    kinked = StateSpaceModel(2, kinked_A, [Constant(1.0), Constant(0.5)],
                             [Affine(0.2, 0.1), Constant(1.0)], drifting_companion.levy)
    for m, N, t, u_max, du in [(drifting_companion, 16, 0.3, 5.0, 0.01),
                               (drifting_companion, 3, -0.8, 4.0, 0.05),
                               (kinked, 4, 0.5, 3.0, 0.01)]:
        grid = kernel_grid(m, N, t, u_max, du)
        assert grid.route == "ode"
        ref = _finite_grid_loop(m, N, t, grid.u_grid, rk4_step_loop)
        assert np.abs(grid.values - ref).max() <= 1e-13 * np.abs(ref).max()


def _step_integral(step, N, t, u):
    """int_0^u of the step's value at t - x/N, in closed form."""
    cut = N * (t - step.t_break)  # lags beyond the cut see the left value
    return step.right * np.clip(u, None, cut) + step.left * np.clip(u - cut, 0.0, None)


def test_comm_kernel_across_a_jump_matches_closed_form():
    # a(t) jumps from 1 to 2 at t = 0.2; lag 0.4 maps onto the jump
    step = Step(0.2, 1.0, 2.0)
    m = _scalar_model(step)
    for du in (0.01, 0.005, 0.0025, 0.007):
        grid = kernel_grid(m, 4, 0.3, u_max=3.0, du=du)
        assert grid.route == "comm"
        exact = np.exp(-_step_integral(step, 4, 0.3, grid.u_grid))
        assert np.abs(grid.values - exact).max() <= 1e-12


def test_comm_kernel_with_two_jumps_in_one_lag_panel():
    # diagonal, so the family commutes; the jumps sit at lags 0.802 and 0.804
    s1, s2 = Step(0.2995, -1.0, -2.0), Step(0.299, -3.0, -0.5)
    A = MatrixFunction([[s1, 0.0], [0.0, s2]], what="A")
    m = StateSpaceModel(2, A, [1.0, 2.0], [1.0, 1.0], {"brownian_variance": 1.0})
    grid = kernel_grid(m, 4, 0.5, u_max=2.0, du=0.01)
    assert grid.route == "comm"
    exact = (np.exp(_step_integral(s1, 4, 0.5, grid.u_grid))
             + 2.0 * np.exp(_step_integral(s2, 4, 0.5, grid.u_grid)))
    assert np.abs(grid.values - exact).max() <= 1e-12


def test_smooth_entries_keep_their_accuracy_between_close_jumps():
    # jumps at lags 0.405 and 0.425 leave two nodes between them; the
    # sinusoidal entry must still be integrated to Simpson accuracy there
    N, t = 1, 0.5
    sine = Sinusoidal(-1.0, 0.5, 5.0, 0.3)
    A = MatrixFunction([[Step(0.095, -1.0, -2.0), 0.0, 0.0], [0.0, Step(0.075, -3.0, -0.5), 0.0],
                        [0.0, 0.0, sine]], what="A")
    m = StateSpaceModel(3, A, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], {"brownian_variance": 1.0})
    grid = kernel_grid(m, N, t, u_max=1.0, du=0.01)
    assert grid.route == "comm"
    u = grid.u_grid
    integral = -u + 0.5 * N / 5.0 * (np.cos(5.0 * (t - u / N) + 0.3) - np.cos(5.0 * t + 0.3))
    # 2.4e-8 is the error of the same grid without any jump
    assert np.abs(grid.values - np.exp(integral)).max() < 5e-8


def test_ode_kernel_across_jumps_matches_per_lag_transitions():
    # non-commuting; jumps at lags 0.75 and 0.755 (one panel) and 1.5 (a node, to rounding)
    A = MatrixFunction([[Constant(0.0), Step(0.31125, 1.0, 0.5)],
                        [Step(0.3125, -2.0, -4.0), Step(0.125, -3.0, -1.5)]], what="A")
    m = StateSpaceModel(2, A, [1.0, 0.5], [0.0, 1.0], {"brownian_variance": 1.0})
    N, t = 4, 0.5
    grid = kernel_grid(m, N, t, u_max=2.0, du=0.02)
    assert grid.route == "ode"
    shifted = A.reparametrized(t, 1.0 / N)
    for j in range(5, len(grid.u_grid), 5):
        u = grid.u_grid[j]
        psi = ode_transition(shifted, -u, 0.0, steps=int(2000 * u)).value
        ref = m.B.eval_vec(t) @ psi @ m.C.eval_vec(t - u / N)
        assert abs(grid.values[j] - ref) <= 1e-8


def test_comm_kernel_across_a_kink_matches_closed_form():
    # a(t) = 1.8 - 4t up to 0.2, then 0.2 + 4t: continuous, with a kink at
    # lag 0.4; only du = 0.01 and 0.005 put it on a lag node
    a = PiecewisePolynomial([0.2], [[1.8, -4.0], [0.2, 4.0]])
    N, t = 4, 0.3

    def antiderivative(s):
        return np.where(s <= 0.2, 1.8 * s - 2.0 * s**2, 0.16 + 0.2 * s + 2.0 * s**2)

    for du in (0.01, 0.007, 0.005, 0.0033):
        grid = kernel_grid(_scalar_model(a), N, t, u_max=3.0, du=du)
        assert grid.route == "comm"
        u = grid.u_grid
        exact = np.exp(-N * (antiderivative(t) - antiderivative(t - u / N)))
        assert np.abs(grid.values - exact).max() <= 1e-12


def test_ode_kernel_across_a_kink_matches_per_lag_transitions():
    # non-commuting, with a kink at t = 0.2: at lag 1.2148 (inside a panel)
    # for t = 0.5037, at lag 1.2 (a panel holds it for du = 0.007) for t = 0.5
    A = MatrixFunction([[Constant(0.0), Constant(1.0)],
                        [Constant(-4.0), PiecewisePolynomial([0.2], [[-3.0, 2.0], [-2.2, -2.0]])]],
                       what="A")
    m = StateSpaceModel(2, A, [1.0, 0.5], [Affine(0.2, 0.1), Constant(1.0)],
                        {"brownian_variance": 1.0})
    N = 4
    for t, du in ((0.5037, 0.01), (0.5037, 0.005), (0.5, 0.007)):
        grid = kernel_grid(m, N, t, u_max=3.0, du=du)
        assert grid.route == "ode"
        shifted = A.reparametrized(t, 1.0 / N)
        for j in range(5, len(grid.u_grid), 35):
            u = grid.u_grid[j]
            psi = ode_transition(shifted, -u, 0.0, steps=int(2000 * u)).value
            ref = m.B.eval_vec(t) @ psi @ m.C.eval_vec(t - u / N)
            # 1.8e-9 to 3.0e-8 with the kink's panel left uncut
            assert abs(grid.values[j] - ref) <= 1e-9


def test_jump_outside_the_window_changes_nothing():
    # the lags reach back to t - u_max/N = -0.45 only
    grid = kernel_grid(_scalar_model(Step(-0.5, 1.5, 2.0)), 4, 0.3, u_max=3.0, du=0.01)
    flat = kernel_grid(_scalar_model(Constant(2.0)), 4, 0.3, u_max=3.0, du=0.01)
    assert np.array_equal(grid.values, flat.values)


def test_auto_route_commutative_p2():
    # diagonal time-varying family: kernel splits into two scalar factors
    f1 = Sinusoidal(-1.0, 0.25, 2.0, 0.0)
    f2 = Constant(-2.0)
    A = MatrixFunction([[f1, 0.0], [0.0, f2]], what="A")
    m = StateSpaceModel(2, A, [1.0, 1.0], [1.0, 1.0], {"brownian_variance": 1.0})
    N, t = 4, 0.3
    grid = kernel_grid(m, N, t, u_max=3.0, du=0.005)
    for j in (10, 200, 600):
        u = grid.u_grid[j]
        scalar1 = car1_kernel(f1.negated(), N, t, u)
        scalar2 = math.exp(-2.0 * u)
        assert grid.values[j] == pytest.approx(scalar1 + scalar2, abs=1e-7)


def test_every_caller_resolves_the_same_route(tvcar1, drifting_companion, tmp_path, capsys):
    diagonal = MatrixFunction([[Sinusoidal(-1.0, 0.25, 2.0, 0.0), 0.0], [0.0, -2.0]], what="A")
    cases = [
        (tvcar1, "comm"),
        (StateSpaceModel(2, diagonal, [1.0, 1.0], [1.0, 1.0], {"brownian_variance": 1.0}), "comm"),
        (drifting_companion, "ode"),
        (_scalar_model(Step(0.2, 1.0, 2.0)), "comm"),  # jumps inside the visited window
    ]
    N, t, u_max = 4, 0.3, 3.0
    for m, expected in cases:
        assert _resolve_route(m.A.reparametrized(t, 1.0 / N), (-u_max, 0.0)) == expected
        path = tmp_path / "model.json"
        path.write_text(json.dumps(m.to_json()))
        assert dispatch(["transition", "--model", str(path), "--s0", repr(t - u_max / N),
                         "--s", repr(t), "--method", "auto"]) == 0
        method = json.loads(capsys.readouterr().out)["method"]
        assert method == {"comm": "commutative_exp", "ode": "ode"}[expected]
        assert kernel_grid(m, N, t, u_max=u_max, du=0.01).route == expected


def test_limit_grid_defective_state_matrix():
    # Jordan block: B' e^{Au} C = u e^{-u} cannot be eigendecomposed stably
    A = MatrixFunction([[-1.0, 1.0], [0.0, -1.0]], what="A")
    m = StateSpaceModel(2, A, [1.0, 0.0], [0.0, 1.0], {"brownian_variance": 1.0})
    grid = kernel_grid(m, "limit", 0.0, u_max=5.0, du=0.01)
    exact = grid.u_grid * np.exp(-grid.u_grid)
    assert np.abs(grid.values - exact).max() < 1e-10


# ------------------------------------------------------------ kernel grids


def test_kernel_grid_with_certificate(diag_fixture):
    cert = lambda_max_check(diag_fixture.A, (-5.0, 0.0))
    assert cert.passed
    grid = kernel_grid(diag_fixture, 2, 0.0, certificate=cert)
    # envelope closes at the lag where the certified tail reaches 1e-8
    assert grid.u_max == pytest.approx(cert.default_u_max(), abs=0.01)
    assert grid.lam == pytest.approx(cert.lam)
    # gamma scales by |B| and sup |C| over the visited window
    assert grid.gamma == pytest.approx(cert.gamma * math.sqrt(2.0) * math.sqrt(2.0))
    assert grid.tail_bound() is not None
    assert grid.tail_bound() < 1e-6 * grid.l2_mass()


def test_kernel_grid_tail_warning(diag_fixture):
    cert = lambda_max_check(diag_fixture.A, (-5.0, 0.0))
    with pytest.warns(TailMassWarning):
        kernel_grid(diag_fixture, 1, 0.0, u_max=1.0, certificate=cert)


def test_kernel_grid_validation(diag_fixture):
    with pytest.raises(PreconditionError):
        kernel_grid(diag_fixture, 1, 0.0)  # no u_max, no certificate
    with pytest.raises(PreconditionError):
        kernel_grid(diag_fixture, 0, 0.0, u_max=1.0)
    with pytest.raises(PreconditionError):
        kernel_grid(diag_fixture, 1, 0.0, u_max=-1.0)
    with pytest.raises(PreconditionError):
        kernel_grid(diag_fixture, 1, 0.0, u_max=1.0, du=0.0)


def test_kernel_grid_budget_checked_before_allocation(car1):
    for u_max, du in [(1e3, 1e-9), (float("inf"), 0.01), (float("nan"), 0.01)]:
        with pytest.raises(PreconditionError):
            kernel_grid(car1, "limit", 0.0, u_max=u_max, du=du)


def test_l2_mass_and_norm():
    u = np.arange(0, 201) * 0.01
    vals = np.exp(-u)
    grid = KernelGrid(t=0.0, N="limit", u_grid=u, values=vals, du=0.01)
    # int_0^2 e^{-2u} du = (1 - e^{-4}) / 2
    exact = (1.0 - math.exp(-4.0)) / 2.0
    assert grid.l2_mass() == pytest.approx(exact, abs=1e-4)
    assert grid.l2_norm() == pytest.approx(math.sqrt(exact), abs=1e-4)


def test_l2_distance_hand_value_and_mismatch():
    u = np.arange(0, 3) * 0.5
    a = KernelGrid(t=0.0, N=1, u_grid=u, values=np.ones(3), du=0.5)
    b = KernelGrid(t=0.0, N=2, u_grid=u, values=np.zeros(3), du=0.5)
    # trapezoid of 1 over [0, 1] -> distance 1
    assert l2_distance(a, b) == pytest.approx(1.0)
    assert l2_distance(a, a) == 0.0
    c = KernelGrid(t=0.0, N=1, u_grid=np.arange(0, 4) * 0.5, values=np.ones(4), du=0.5)
    with pytest.raises(GridMismatchError):
        l2_distance(a, c)
    d = KernelGrid(t=0.0, N=1, u_grid=u * 2.0, values=np.ones(3), du=1.0)
    with pytest.raises(GridMismatchError):
        l2_distance(a, d)


# ------------------------------------------------- convergence diagnostic


def test_convergence_diagnostic_tanh(tvcar1):
    report = convergence_diagnostic(tvcar1, 0.0, [1, 2, 4, 8, 16], u_max=10.0)
    assert report.precondition.startswith("verified (lambda_max route")
    d = report.distances
    assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
    # roughly O(1/N): each doubling of N should halve the distance
    for i in range(len(d) - 1):
        assert d[i + 1] < 0.75 * d[i]
    assert d[-1] < 0.15 * d[0]
    assert report.passes
    assert report.window == (0.0 - 10.0, 0.0)


def test_convergence_diagnostic_unverified():
    # a(t) = -t is anti-stable over the visited window (-5, 0)
    A = MatrixFunction([[Affine(0.0, -1.0)]], what="A")
    m = StateSpaceModel(1, A, [1.0], [1.0], {"brownian_variance": 1.0})
    report = convergence_diagnostic(m, 0.0, [1, 2], u_max=5.0)
    assert report.precondition == "unverified-preconditions"
    assert len(report.distances) == 2
    assert all(np.isfinite(report.distances))


def test_convergence_diagnostic_validation(tvcar1):
    with pytest.raises(PreconditionError):
        convergence_diagnostic(tvcar1, 0.0, [], u_max=5.0)
    with pytest.raises(PreconditionError):
        convergence_diagnostic(tvcar1, 0.0, [1, "limit"], u_max=5.0)
    with pytest.raises(PreconditionError):
        convergence_diagnostic(tvcar1, 0.0, [0, 2], u_max=5.0)
