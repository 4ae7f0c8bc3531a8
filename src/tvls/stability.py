"""Stability certificates, controllability, and observable-form transforms.

A certificate is a pair (gamma, lam) such that the propagator of x' = A(t)x
satisfies ||Psi(x, s)|| <= gamma e^{-lam (x - s)} on the checked window.
Three routes produce one:

* ``lambda_max_check`` bounds the log-norm by the largest eigenvalue of the
  symmetrized coefficient A + A', either pointwise (gamma = 1) or through
  window-averaged integrals of that eigenvalue envelope;
* ``eigen_bound_check`` needs uniformly stable pointwise spectra plus smooth
  coefficients, and backs the asserted rate with an empirically measured
  constant;
* ``commutative_route_check`` applies when the family commutes, so the
  propagator is the exponential of the averaged coefficient, whose
  eigen-decomposition gives the bound directly.

``auto_certificate`` tries the three routes in that order and returns the
first certificate that passes.

The second half of the module deals with time-varying observable forms:
controllability matrices built from the iterated operator K -> -A K + K',
the row-by-row change of basis that carries a state-space model to companion
(CARMA) form, frozen-time transfer-function comparison, and a worked
structural-break example showing that states cannot be re-used across
representations without transforming them.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import PostconditionError, PreconditionError, SmoothnessError
from .quadrature import _window_grid
from .transition import check_commutativity, matrix_exp, ode_transition

__all__ = [
    "StabilityCertificate",
    "StabilityFailure",
    "ControllabilityReport",
    "CarmaTransformResult",
    "EquivalenceReport",
    "lambda_max_check",
    "eigen_bound_check",
    "commutative_route_check",
    "auto_certificate",
    "controllability_matrix",
    "instantaneous_controllability",
    "carma_transform",
    "transfer_equivalence",
    "structural_break_gap",
    "BREAK_STATE_A",
    "BREAK_STATE_OBS",
    "BREAK_STATE_NOISE",
    "BREAK_CARMA_A",
    "BREAK_CARMA_OBS",
    "BREAK_CARMA_NOISE",
]


@dataclass
class StabilityCertificate:
    """Exponential envelope ||Psi(x, s)|| <= gamma e^{-lam (x-s)}."""

    gamma: float
    lam: float
    route: str
    checked_window: tuple
    grid_points: int
    details: dict = field(default_factory=dict)

    passed = True

    def default_u_max(self, tol=1e-8):
        """Lag horizon beyond which the envelope's squared tail mass is < tol."""
        g = max(self.gamma, 1.0)
        val = np.log(g * g / (2.0 * self.lam * tol)) / (2.0 * self.lam)
        return float(max(1.0, val))


@dataclass
class StabilityFailure:
    """Negative outcome of a stability route, with a redirect hint."""

    route: str
    reason: str
    checked_window: tuple
    sup_lambda_max: float = None
    hint: str = None

    passed = False


def _prefix_integral(vals, taus):
    """Cumulative trapezoid along axis 0 of values sampled on a sorted grid."""
    widths = np.diff(taus).reshape((-1,) + (1,) * (vals.ndim - 1))
    increments = 0.5 * (vals[1:] + vals[:-1]) * widths
    return np.concatenate([np.zeros((1,) + vals.shape[1:]), np.cumsum(increments, axis=0)])


def _sym_lambda_max(A, ts):
    """lambda_max(A(t) + A(t)') at each of the times ``ts``."""
    a = A.eval_array(ts)
    return np.linalg.eigvalsh(a + np.swapaxes(a, -1, -2)).max(axis=-1)


def lambda_max_check(A, window, grid_points=129):
    """Certificate from the symmetrized-eigenvalue envelope of A.

    If sup_t lambda_max(A(t) + A(t)') = -2 lam* < 0 the certificate is
    (gamma=1, lam*).  Otherwise the window-averaged integral of the envelope
    is tried: a negative mean decay -2 lam gives lam, and gamma absorbs the
    worst transient excess over that rate across all sampled ordered pairs.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise PreconditionError("stability window must have positive length")
    grid_points = int(grid_points)
    grid = _window_grid(A, lo, hi, grid_points)
    sup_val = float(_sym_lambda_max(A, grid).max())
    if sup_val < 0.0:
        return StabilityCertificate(
            gamma=1.0, lam=-0.5 * sup_val, route="lambda_max",
            checked_window=(lo, hi), grid_points=grid_points,
            details={"criterion": "pointwise", "sup_lambda_max": sup_val})
    # Pointwise bound fails somewhere; integrate the envelope instead.
    fine = _window_grid(A, lo, hi, max(513, 4 * grid_points))
    prefix = _prefix_integral(_sym_lambda_max(A, fine), fine)
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


def eigen_bound_check(A, window, grid_points=129):
    """Certificate from uniformly stable pointwise spectra.

    Requires continuously differentiable coefficients (discontinuous step
    entries are rejected).  With mu = -sup_t max Re eig(A(t)) > 0 the
    asserted rate is lam = mu/2; the constant gamma is measured on a pair
    grid of actual propagators and inflated by a 5% safety margin, with the
    coefficient and derivative sups recorded alongside.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise PreconditionError("stability window must have positive length")
    if not A.is_continuous:
        raise SmoothnessError(
            "eigen_bound_check requires continuously differentiable "
            "coefficients; step entries are not differentiable")
    # At a kink the derivative is the right-hand one (step entries are out).
    grid = _window_grid(A, lo, hi, grid_points)
    a = A.eval_array(grid)
    max_re = np.linalg.eigvals(a).real.max()
    mu = -max_re
    if mu <= 0.0:
        return StabilityFailure(
            route="eigen_bound",
            reason=f"sup of Re eig(A(t)) is {max_re:.6g} >= 0 on the window",
            checked_window=(lo, hi), sup_lambda_max=float(max_re),
            hint="no exponential decay rate is available for this family")
    alpha = np.linalg.norm(a, 2, axis=(-2, -1)).max()
    beta = np.linalg.norm(A.deriv(grid), 2, axis=(-2, -1)).max()
    lam = 0.5 * mu
    anchors = np.linspace(lo, hi, 17)
    steps = [ode_transition(A, anchors[k], anchors[k + 1],
                            steps=max(48.0, np.ceil(24 * alpha * (anchors[k + 1] - anchors[k]))))
             for k in range(len(anchors) - 1)]
    # Propagator from each anchor to every later one, as the ordered product
    # steps[k] @ (... @ steps[i]), one anti-diagonal k - i = d at a time.
    mats = np.array([step.value for step in steps])
    prods, gaps = [mats], [anchors[1:] - anchors[:-1]]
    for d in range(1, len(mats)):
        prods.append(mats[d:] @ prods[-1][:-1])
        gaps.append(anchors[d + 1:] - anchors[:-d - 1])
    excess = (np.linalg.norm(np.concatenate(prods), 2, axis=(-2, -1))
              * np.exp(lam * np.concatenate(gaps)))
    emp = max(1.0, excess.max())
    return StabilityCertificate(
        gamma=float(1.05 * emp), lam=float(lam), route="eigen_bound",
        checked_window=(lo, hi), grid_points=grid_points,
        details={"mu": float(mu), "alpha": float(alpha), "beta": float(beta),
                 "empirical_sup": float(emp), "margin": 1.05})


def commutative_route_check(A, window, grid_points=33, tol=1e-8):
    """Certificate through exponentials of window-averaged coefficients.

    When the family commutes across the window, Psi(x, s) equals the matrix
    exponential of M(s, x) = int_s^x A, so ||Psi|| <= cond(V) e^{max Re eig M}
    for any eigenbasis V of M.  The check samples anchor points and a
    geometric ladder of separations, requiring the averaged matrices to be
    reliably diagonalizable and their spectra to decay at a uniform rate.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise PreconditionError("stability window must have positive length")
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
        j = np.clip(np.searchsorted(fine, v), 1, len(fine) - 1)
        w = ((v - fine[j - 1]) / (fine[j] - fine[j - 1]))[:, None, None]
        return (1.0 - w) * prefix[j - 1] + w * prefix[j]

    starts = np.repeat(anchors, len(seps))
    ends = np.minimum(starts + np.tile(seps, len(anchors)), hi)
    keep = ends - starts >= 1e-12 * width
    starts, ends = starts[keep], ends[keep]
    pairs = len(starts)
    w, V = np.linalg.eig(prefix_at(ends) - prefix_at(starts))
    # eig returns a complex stack if any matrix has complex eigenvalues; the
    # others get the real eigenbasis a call on them alone would return.
    real = (w.imag == 0.0).all(axis=-1)
    conds = np.empty(pairs)
    for sel, basis in ((real, V.real), (~real, V)):
        if sel.any():
            conds[sel] = np.linalg.cond(basis[sel])
    worst_rate = (w.real.max(axis=-1) / (ends - starts)).max()
    sup_cond = max(1.0, conds.max())
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


def auto_certificate(A, window):
    """The first passing certificate of the lambda_max, eigen and commutative routes.

    A route that does not apply to the family (``SmoothnessError``) is
    skipped.  When no route passes, the lambda_max failure is returned for
    its reason.
    """
    first = lambda_max_check(A, window)
    if first.passed:
        return first
    for check in (eigen_bound_check, commutative_route_check):
        try:
            cert = check(A, window)
        except SmoothnessError:
            continue
        if cert.passed:
            return cert
    return first


# ---------------------------------------------------------------------------
# Controllability and observable (companion) form
# ---------------------------------------------------------------------------


def _reject_step_entries(m, what):
    if not (m.A.is_continuous and m.C.is_continuous):
        raise SmoothnessError(
            f"{what} requires differentiable coefficients; "
            "step entries are discontinuous")


def _controllability_terms(p):
    """Symbolic columns K_0..K_{p-1} of the controllability recursion.

    Each column is a sum of terms coeff * A^(o1) ... A^(ok) C^(c), encoded
    as {(a_orders, c_order): coeff}, built from K_0 = C and
    K_{i+1} = -A K_i + dK_i/dt.
    """
    cols = [{((), 0): 1.0}]
    for _ in range(p - 1):
        prev = cols[-1]
        nxt = {}
        for (aord, cord), coeff in prev.items():
            key = ((0,) + aord, cord)
            nxt[key] = nxt.get(key, 0.0) - coeff
            for j in range(len(aord)):
                dkey = (aord[:j] + (aord[j] + 1,) + aord[j + 1:], cord)
                nxt[dkey] = nxt.get(dkey, 0.0) + coeff
            dkey = (aord, cord + 1)
            nxt[dkey] = nxt.get(dkey, 0.0) + coeff
        cols.append({k: v for k, v in nxt.items() if v != 0.0})
    return cols


def controllability_matrix(m, t):
    """Instantaneous controllability matrix [K_0(t) ... K_{p-1}(t)].

    The columns follow the recursion K_0 = C, K_{i+1} = -A K_i + K_i',
    evaluated through exact derivative algebra on the coefficient families
    (families without the required derivatives raise SmoothnessError).
    """
    _reject_step_entries(m, "controllability_matrix")
    p = m.p
    t = float(t)
    a_cache, c_cache = {}, {}

    def a_of(order):
        if order not in a_cache:
            a_cache[order] = m.A.eval(t) if order == 0 else m.A.deriv(t, order)
        return a_cache[order]

    def c_of(order):
        if order not in c_cache:
            mat = m.C.eval(t) if order == 0 else m.C.deriv(t, order)
            c_cache[order] = mat.reshape(p)
        return c_cache[order]

    cols = []
    for terms in _controllability_terms(p):
        col = np.zeros(p)
        for (aord, cord), coeff in terms.items():
            v = c_of(cord)
            for o in reversed(aord):
                v = a_of(o) @ v
            col += coeff * v
        cols.append(col)
    return np.column_stack(cols)


@dataclass
class ControllabilityReport:
    """Ranks and conditioning of controllability matrices along a grid."""

    t_grid: np.ndarray
    ranks: list
    min_singular: list
    full_rank: bool


def instantaneous_controllability(m, t_grid):
    """Check full rank of the controllability matrix at each grid time.

    Rank uses an SVD threshold of p * sigma_max * 1e-10, so "full rank"
    means the smallest singular value is resolvably nonzero at double
    precision rather than merely unequal to zero.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    ranks, mins = [], []
    for t in t_grid:
        W = controllability_matrix(m, t)
        svals = np.linalg.svd(W, compute_uv=False)
        thresh = m.p * svals[0] * 1e-10 if svals[0] > 0 else 0.0
        ranks.append(int((svals > thresh).sum()))
        mins.append(float(svals[-1]))
    return ControllabilityReport(t_grid=t_grid, ranks=ranks, min_singular=mins,
                                 full_rank=all(r == m.p for r in ranks))


def _jet_of(mf, t, order):
    return [mf.eval(t)] + [mf.deriv(t, n) for n in range(1, order + 1)]


def _jet_inverse(w_jet, order):
    z0 = np.linalg.inv(w_jet[0])
    zs = [z0]
    for mth in range(1, order + 1):
        acc = np.zeros_like(z0)
        for k in range(1, mth + 1):
            acc = acc + comb(mth, k) * (w_jet[k] @ zs[mth - k])
        zs.append(-z0 @ acc)
    return zs


def _tau_rows_jets(m, t):
    """Rows of T and dT/dt via derivative jets of the coefficient families."""
    p = m.p
    top = 2 * p
    a_jet = _jet_of(m.A, t, top)
    k_jets = [_jet_of(m.C, t, top)]
    for i in range(1, p):
        prev = k_jets[-1]
        avail = top - i
        cur = []
        for mth in range(avail + 1):
            s = prev[mth + 1].copy()
            for k in range(mth + 1):
                s -= comb(mth, k) * (a_jet[k] @ prev[mth - k])
            cur.append(s)
        k_jets.append(cur)
    w_order = p
    w_jet = [np.column_stack([k_jets[i][mth].reshape(p) for i in range(p)])
             for mth in range(w_order + 1)]
    z_jet = _jet_inverse(w_jet, w_order)
    sign = (-1.0) ** (p - 1)
    tau = [sign * z[-1:, :] for z in z_jet]  # e_p' W^{-1} and its derivatives
    rows, drows = [tau[0]], [tau[1]]
    for _ in range(p - 1):
        avail = len(tau) - 2
        nxt = []
        for mth in range(avail + 1):
            s = tau[mth + 1].copy()
            for k in range(mth + 1):
                s += comb(mth, k) * (tau[mth - k] @ a_jet[k])
            nxt.append(s)
        tau = nxt
        rows.append(tau[0])
        drows.append(tau[1])
    return np.vstack(rows), np.vstack(drows)


def _tau_rows_numeric(m, t):
    """Rows of T and dT/dt via nested central differences (non-analytic case)."""
    p = m.p
    ep = np.zeros(p)
    ep[-1] = 1.0
    sign = (-1.0) ** (p - 1)

    def tau_row(i, tt):
        if i == 1:
            W = controllability_matrix(m, tt)
            return sign * np.linalg.solve(W.T, ep)
        h = 1e-5 * max(1.0, abs(tt))
        dprev = (tau_row(i - 1, tt + h) - tau_row(i - 1, tt - h)) / (2.0 * h)
        return tau_row(i - 1, tt) @ m.A.eval(tt) + dprev

    h = 1e-5 * max(1.0, abs(t))
    rows = np.vstack([tau_row(i, t) for i in range(1, p + 1)])
    drows = np.vstack([(tau_row(i, t + h) - tau_row(i, t - h)) / (2.0 * h)
                       for i in range(1, p + 1)])
    return rows, drows


@dataclass
class CarmaTransformResult:
    """Change of basis carrying a state-space model to companion form."""

    t: float
    T: np.ndarray
    T_dot: np.ndarray
    carma_A: np.ndarray
    ar: np.ndarray
    observation: np.ndarray
    noise: np.ndarray
    residual_noise: float
    residual_companion: float
    method: str


def carma_transform(m, t):
    """Transform a state-space model to companion (CARMA) coordinates at t.

    Builds T row by row: tau_1' = (-1)^{p-1} e_p' W_p(t)^{-1} from the
    controllability matrix, then tau_{i+1}' = tau_i' A + dtau_i'/dt.  In the
    new basis Z = T X the noise loading T C equals e_p and the drift
    (T A + T') T^{-1} is companion; both are verified numerically, the first
    to 1e-8 and the second to 1e-6 before the exact companion projection.
    The observation vector becomes T^{-T} B.
    """
    _reject_step_entries(m, "carma_transform")
    p = m.p
    t = float(t)
    analytic = m.A.analytic and m.C.analytic
    try:
        if analytic:
            T, T_dot = _tau_rows_jets(m, t)
            method = "jets"
        else:
            T, T_dot = _tau_rows_numeric(m, t)
            method = "finite-difference"
    except np.linalg.LinAlgError:
        raise PreconditionError(
            "controllability matrix is singular at t; the model is not "
            "instantaneously controllable there") from None
    c_vec = m.C.eval(t).reshape(p)
    noise = T @ c_vec
    ep = np.zeros(p)
    ep[-1] = 1.0
    residual_noise = float(np.abs(noise - ep).max())
    if residual_noise > 1e-8:
        raise PostconditionError(
            f"transformed noise loading deviates from e_p by {residual_noise:.3e}; "
            "the model is too close to uncontrollable at this time")
    drift = (T @ m.A.eval(t) + T_dot) @ np.linalg.inv(T)
    companion_top = np.eye(p, k=1)[: p - 1]
    residual_companion = 0.0
    if p > 1:
        residual_companion = float(np.abs(drift[: p - 1] - companion_top).max())
    if residual_companion >= 1e-6:
        raise PostconditionError(
            f"transformed drift deviates from companion form by {residual_companion:.3e}")
    carma_A = np.eye(p, k=1)
    carma_A[p - 1] = drift[p - 1]
    ar = np.array([-drift[p - 1, p - 1 - k] for k in range(p)])
    observation = np.linalg.solve(T.T, m.B.eval(t).reshape(p))
    return CarmaTransformResult(
        t=t, T=T, T_dot=T_dot, carma_A=carma_A, ar=ar,
        observation=observation, noise=noise,
        residual_noise=residual_noise, residual_companion=residual_companion,
        method=method)


# ---------------------------------------------------------------------------
# Frozen-time transfer functions and the structural-break example
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """Outcome of comparing two frozen-time transfer functions."""

    equivalent: bool
    max_rel_error: float
    n_used: int
    n_skipped: int
    note: str = ""


def _frozen_transfer(m, t, z):
    A0 = m.A.eval(t)
    b = m.B.eval(t).reshape(m.p)
    c = m.C.eval(t).reshape(m.p)
    return b @ np.linalg.solve(z * np.eye(m.p) - A0, c)


def transfer_equivalence(m1, m2, t, z_samples=None):
    """Compare B'(zI - A)^{-1}C of two models frozen at time t.

    Sample points within 1e-6 of either frozen spectrum are skipped (the
    resolvent is not meaningfully comparable there).  The models are
    declared equivalent when the relative gap stays below 1e-8 on the
    remaining points.
    """
    t = float(t)
    e1 = np.linalg.eigvals(m1.A.eval(t))
    e2 = np.linalg.eigvals(m2.A.eval(t))
    if z_samples is None:
        rad = 1.0 + 2.0 * max(1.0, np.abs(e1).max(), np.abs(e2).max())
        z_samples = rad * np.exp(2j * np.pi * np.arange(24) / 24)
    z_samples = np.asarray(z_samples, dtype=complex).ravel()
    spectra = np.concatenate([e1, e2])
    max_rel = 0.0
    used = skipped = 0
    for z in z_samples:
        if np.abs(z - spectra).min() < 1e-6:
            skipped += 1
            continue
        h1 = _frozen_transfer(m1, t, z)
        h2 = _frozen_transfer(m2, t, z)
        denom = max(abs(h1), abs(h2), 1e-300)
        max_rel = max(max_rel, abs(h1 - h2) / denom)
        used += 1
    note = f"{skipped} sample(s) skipped near frozen spectra" if skipped else ""
    if used == 0:
        return EquivalenceReport(equivalent=False, max_rel_error=np.inf,
                                 n_used=0, n_skipped=skipped,
                                 note="all samples fell on the frozen spectra")
    return EquivalenceReport(equivalent=bool(max_rel < 1e-8),
                             max_rel_error=float(max_rel),
                             n_used=used, n_skipped=skipped, note=note)


# Worked two-state example: a diagonal state-space model and its companion
# form, produced by carma_transform of (A, B, C) below.  Both generate the
# same output process, but their internal states live in different bases.
BREAK_STATE_A = np.diag([-2.0, -3.0])
BREAK_STATE_OBS = np.array([1.0, 1.0])
BREAK_STATE_NOISE = np.array([1.0, 1.0])
BREAK_CARMA_A = np.array([[0.0, 1.0], [-6.0, -5.0]])
BREAK_CARMA_OBS = np.array([5.0, 2.0])
BREAK_CARMA_NOISE = np.array([0.0, 1.0])


def structural_break_gap(t_offset, x):
    """Forecast mismatch from carrying a raw state across a basis switch.

    Suppose the model switches from the diagonal representation to its
    companion form at time 0 but the state x is carried over untransformed.
    The deterministic forecasts of the output at horizon t_offset then
    differ by obs_carma' e^{A_carma tau} x - obs' e^{A tau} x, which this
    returns; it vanishes only if x is first mapped through the change of
    basis.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    tau = float(t_offset)
    direct = BREAK_STATE_OBS @ matrix_exp(BREAK_STATE_A * tau) @ x
    switched = BREAK_CARMA_OBS @ matrix_exp(BREAK_CARMA_A * tau) @ x
    return float(switched - direct)
