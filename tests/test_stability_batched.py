"""The stacked certificate routes against the per-point loops they replaced.

Each oracle below is the earlier implementation of a route, one grid point,
one anchor product and one (anchor, separation) pair at a time.  The stacked
routes must reproduce every field of its result exactly, not approximately.
"""

import math

import numpy as np
import pytest

import tvls.stability as stability_mod
from tvls import (
    Callback,
    MatrixFunction,
    PiecewisePolynomial,
    Sinusoidal,
    SmoothnessError,
    Step,
    auto_certificate,
    commutative_route_check,
    eigen_bound_check,
    lambda_max_check,
    ode_transition,
)
from tvls.stability import (
    StabilityCertificate,
    StabilityFailure,
    _prefix_integral,
    _window_grid,
)
from tvls.transition import check_commutativity

# ----------------------------------------------------------- per-point oracles


def lambda_max_loop(A, window, grid_points=129):
    lo, hi = float(window[0]), float(window[1])
    grid = _window_grid(A, lo, hi, grid_points)
    vals = np.array([np.linalg.eigvalsh(A.eval(t) + A.eval(t).T).max() for t in grid])
    sup_val = float(vals.max())
    if sup_val < 0.0:
        return StabilityCertificate(
            gamma=1.0, lam=-0.5 * sup_val, route="lambda_max",
            checked_window=(lo, hi), grid_points=grid_points,
            details={"criterion": "pointwise", "sup_lambda_max": sup_val})
    fine = _window_grid(A, lo, hi, max(513, 4 * grid_points))
    fvals = np.array([np.linalg.eigvalsh(A.eval(t) + A.eval(t).T).max() for t in fine])
    prefix = _prefix_integral(fvals, fine)
    mean_decay = prefix[-1] / (hi - lo)
    if mean_decay < 0.0:
        lam = -0.5 * mean_decay
        idx = np.linspace(0, len(fine) - 1, min(len(fine), 129)).astype(int)
        P, T = prefix[idx], fine[idx]
        M = P[None, :] - P[:, None]
        D = T[None, :] - T[:, None]
        upper = np.triu_indices(len(idx), k=1)
        excess = max(0.0, float((M[upper] + 2.0 * lam * D[upper]).max()))
        return StabilityCertificate(
            gamma=float(np.exp(0.5 * excess)), lam=lam, route="lambda_max",
            checked_window=(lo, hi), grid_points=grid_points,
            details={"criterion": "integral", "sup_lambda_max": sup_val,
                     "mean_decay": float(mean_decay)})
    return StabilityFailure(
        route="lambda_max",
        reason=(f"sup of lambda_max(A + A') is {sup_val:.6g} >= 0 and its window "
                f"average {mean_decay:.6g} does not decay"),
        checked_window=(lo, hi), sup_lambda_max=sup_val,
        hint=("the symmetrized envelope is pessimistic for non-normal matrices; "
              "eigen_bound_check may still certify a decay rate"))


def eigen_bound_loop(A, window, grid_points=129):
    lo, hi = float(window[0]), float(window[1])
    for row in A.entries:
        for e in row:
            if e.family == "step":
                raise SmoothnessError(
                    "eigen_bound_check requires continuously differentiable "
                    "coefficients; step entries are not differentiable")
    grid = _window_grid(A, lo, hi, grid_points)
    max_re = max(np.linalg.eigvals(A.eval(t)).real.max() for t in grid)
    mu = -max_re
    if mu <= 0.0:
        return StabilityFailure(
            route="eigen_bound",
            reason=f"sup of Re eig(A(t)) is {max_re:.6g} >= 0 on the window",
            checked_window=(lo, hi), sup_lambda_max=float(max_re),
            hint="no exponential decay rate is available for this family")
    alpha = max(np.linalg.norm(A.eval(t), 2) for t in grid)
    beta = max(np.linalg.norm(A.deriv(t), 2) for t in grid)
    lam = 0.5 * mu
    anchors = np.linspace(lo, hi, 17)
    steps = [ode_transition(A, anchors[k], anchors[k + 1],
                            steps=max(48, int(np.ceil(24 * alpha * (anchors[k + 1] - anchors[k])))))
             for k in range(len(anchors) - 1)]
    emp = 1.0
    for i in range(len(anchors) - 1):
        P = np.eye(A.shape[0])
        for k in range(i, len(anchors) - 1):
            P = steps[k].value @ P
            emp = max(emp, np.linalg.norm(P, 2) * np.exp(lam * (anchors[k + 1] - anchors[i])))
    return StabilityCertificate(
        gamma=float(1.05 * emp), lam=float(lam), route="eigen_bound",
        checked_window=(lo, hi), grid_points=grid_points,
        details={"mu": float(mu), "alpha": float(alpha), "beta": float(beta),
                 "empirical_sup": float(emp), "margin": 1.05})


def commutative_loop(A, window, grid_points=33, tol=1e-8):
    lo, hi = float(window[0]), float(window[1])
    rep = check_commutativity(A, (lo, hi), grid_points=grid_points, tol=tol)
    if not rep.passes:
        return StabilityFailure(
            route="commutative",
            reason=f"coefficient family does not commute (max violation {rep.max_violation:.3e})",
            checked_window=(lo, hi),
            hint="use lambda_max_check or eigen_bound_check for non-commuting families")
    fine = _window_grid(A, lo, hi, 513)
    prefix = _prefix_integral(A.eval_array(fine), fine)
    width = hi - lo
    anchors = np.linspace(lo, hi, 9)[:-1]
    seps = width / 256.0 * (2.0 ** np.arange(0, 9))

    def prefix_at(v):
        j = int(np.clip(np.searchsorted(fine, v), 1, len(fine) - 1))
        w = (v - fine[j - 1]) / (fine[j] - fine[j - 1])
        return (1.0 - w) * prefix[j - 1] + w * prefix[j]

    worst_rate = -np.inf
    sup_cond = 1.0
    pairs = 0
    for s in anchors:
        for d in seps:
            x = min(s + d, hi)
            if x - s < 1e-12 * width:
                continue
            M = prefix_at(x) - prefix_at(s)
            w, V = np.linalg.eig(M)
            cond = np.linalg.cond(V)
            rate = w.real.max() / (x - s)
            worst_rate = max(worst_rate, rate)
            sup_cond = max(sup_cond, cond)
            pairs += 1
    if not np.isfinite(sup_cond) or sup_cond >= 1e8:
        return StabilityFailure(
            route="commutative",
            reason=(f"averaged coefficient matrices are not reliably diagonalizable "
                    f"(eigenvector condition number {sup_cond:.3e})"),
            checked_window=(lo, hi),
            hint="defective averaged matrices void the eigen-decomposition bound")
    if worst_rate >= 0.0:
        return StabilityFailure(
            route="commutative",
            reason=f"averaged spectra do not decay uniformly (worst rate {worst_rate:.6g})",
            checked_window=(lo, hi), sup_lambda_max=float(worst_rate),
            hint="no uniform exponential rate on this window")
    return StabilityCertificate(
        gamma=float(sup_cond), lam=float(-worst_rate), route="commutative",
        checked_window=(lo, hi), grid_points=grid_points,
        details={"max_commutator": float(rep.max_violation),
                 "sup_eigvec_cond": float(sup_cond), "pairs": pairs})


def auto_loop(A, window):
    first = lambda_max_loop(A, window)
    if first.passed:
        return first
    for check in (eigen_bound_loop, commutative_loop):
        try:
            cert = check(A, window)
        except SmoothnessError:
            continue
        if cert.passed:
            return cert
    return first


# ------------------------------------------------------------------ families


def _kinked():
    # -1 - t up to 0.3, then -0.4 - 3 t: continuous, with a kink at 0.3
    return PiecewisePolynomial([0.3], [[-1.0, -1.0], [-0.4, -3.0]])


FAMILIES = {
    "car1": ("car1", (-1.0, 1.0)),
    "tvcar1": ("tvcar1", (-1.0, 0.0)),
    "sin_car1": ("sin_car1", (-0.7, 0.3)),
    "diag": ("diag_fixture", (-5.0, 0.0)),
    "companion": ("companion_fixture", (0.0, 1.0)),
    "drifting_short": ("drifting_companion", (-0.5, 0.5)),
    "drifting_long": ("drifting_companion", (-1.25, 1.0)),
    "scalar_sinusoid": ([[Sinusoidal(-1.0, 1.5, 1.0, 0.0)]], (0.0, 2.0 * np.pi)),
    "scalar_step": ([[Step(0.5, -1.0, -2.0)]], (0.0, 1.0)),
    "step_scaled_commuting": ([[Step(0.5, -1.0, -2.0), Step(0.5, 4.0, 8.0)],
                               [0.0, Step(0.5, -2.0, -4.0)]], (0.0, 1.0)),
    "diagonal_sinusoid": ([[Sinusoidal(-1.0, 0.25, 2.0, 0.0), 0.0], [0.0, -2.0]], (0.0, 4.0)),
    "kinked_piecewise": ([[_kinked(), 0.0], [0.0, -2.0]], (0.0, 1.0)),
    "kinked_non_normal": ([[_kinked(), 4.0], [0.0, -2.0]], (0.0, 1.0)),
    "callback_sinusoid": ([[Callback(lambda t: -1.0 - 0.25 * math.sin(t)), 1.0], [0.0, -2.0]],
                          (0.0, 2.0)),
    # -I + g J with g stepping 0 -> 1: pairs left of the step average to
    # real spectra, the others to complex ones, so eig returns a mixed stack
    "step_rotation": ([[-1.0, Step(0.5, 0.0, 1.0)], [Step(0.5, 0.0, -1.0), -1.0]], (0.0, 1.0)),
    "jordan_block": ([[-1.0, 1.0], [0.0, -1.0]], (0.0, 2.0)),
    "antistable_scalar": ([[0.5]], (0.0, 2.0)),
}


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    source, window = FAMILIES[request.param]
    if isinstance(source, str):
        return request.getfixturevalue(source).A, window
    return MatrixFunction(source, what="A"), window


def _outcome(fn, A, window):
    try:
        return fn(A, window)
    except SmoothnessError as exc:
        return ("SmoothnessError", str(exc))


@pytest.mark.parametrize("route, oracle", [
    (lambda_max_check, lambda_max_loop),
    (eigen_bound_check, eigen_bound_loop),
    (commutative_route_check, commutative_loop),
    (auto_certificate, auto_loop),
], ids=["lambda_max", "eigen_bound", "commutative", "auto"])
def test_stacked_route_equals_per_point_loop(family, route, oracle):
    A, window = family
    new, old = _outcome(route, A, window), _outcome(oracle, A, window)
    assert type(new) is type(old)
    if isinstance(old, tuple):
        assert new == old
        return
    assert new.passed == old.passed
    assert new.route == old.route
    if old.passed:
        assert (new.gamma, new.lam) == (old.gamma, old.lam)
        assert new.details == old.details
        assert new.grid_points == old.grid_points
    else:
        assert new.reason == old.reason
        assert new.hint == old.hint
        assert new.sup_lambda_max == old.sup_lambda_max
    assert new.checked_window == old.checked_window
    assert new == old


def test_families_cover_every_route_and_outcome(request):
    """The equality matrix above sees each route both pass and fail."""
    seen = set()
    for name in FAMILIES:
        source, window = FAMILIES[name]
        A = (request.getfixturevalue(source).A if isinstance(source, str)
             else MatrixFunction(source, what="A"))
        for route in (lambda_max_check, eigen_bound_check, commutative_route_check):
            res = _outcome(route, A, window)
            if not isinstance(res, tuple):
                seen.add((res.route, res.passed, res.details.get("criterion")
                          if res.passed else None))
    assert {("lambda_max", True, "pointwise"), ("lambda_max", True, "integral"),
            ("lambda_max", False, None), ("eigen_bound", True, None),
            ("eigen_bound", False, None), ("commutative", True, None),
            ("commutative", False, None)} <= seen


def test_array_deriv_equals_per_point_calls(family):
    A, window = family
    lo, hi = window
    grid = np.linspace(lo, hi, 37)
    grid = grid[~np.isin(grid, A.breakpoints)]  # a step has no derivative at its break
    analytic = A.analytic
    for order in (1, 2) if analytic else (1,):
        stacked = A.deriv(grid, order)
        assert stacked.shape == grid.shape + A.shape
        assert np.array_equal(stacked, np.array([A.deriv(t, order) for t in grid]))
        assert A.deriv(grid[3], order).shape == A.shape
    square = grid[:36].reshape(6, 6) if len(grid) >= 36 else grid[None, :]
    assert np.array_equal(A.deriv(square), A.deriv(square.ravel()).reshape(square.shape + A.shape))
    view = A.reparametrized(0.25, 0.5)
    s = (grid - 0.25) / 0.5
    assert np.array_equal(view.deriv(s), np.array([view.deriv(x) for x in s]))


def test_auto_certificate_evaluates_only_stacks(drifting_companion, monkeypatch):
    calls = {"scalar eval": 0, "scalar deriv": 0, "array deriv": 0, "ode_transition": 0}

    def counted(fn, scalar_name, array_name=None):
        def wrapper(self, t, *args):
            name = scalar_name if np.ndim(t) == 0 else array_name
            if name:
                calls[name] += 1
            return fn(self, t, *args)
        return wrapper

    monkeypatch.setattr(MatrixFunction, "eval", counted(MatrixFunction.eval, "scalar eval"))
    monkeypatch.setattr(MatrixFunction, "deriv",
                        counted(MatrixFunction.deriv, "scalar deriv", "array deriv"))
    real_ode = stability_mod.ode_transition

    def ode_counted(*args, **kwargs):
        calls["ode_transition"] += 1
        return real_ode(*args, **kwargs)

    monkeypatch.setattr(stability_mod, "ode_transition", ode_counted)
    cert = auto_certificate(drifting_companion.A, (-1.25, 1.0))
    assert cert.route == "eigen_bound"
    assert calls == {"scalar eval": 0, "scalar deriv": 0, "array deriv": 1, "ode_transition": 16}
