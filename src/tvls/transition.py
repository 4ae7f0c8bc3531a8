"""Transition matrices of the linear matrix differential equation.

For a (possibly time-varying) coefficient matrix A, the transition matrix
Psi(s, s0) solves

    d/ds Psi(s, s0) = A(s) Psi(s, s0),      Psi(s0, s0) = I.

Three routes are provided: an iterated-integral series whose terms are
accumulated by nested Simpson quadrature on a shared grid, a classical
fixed-step fourth-order Runge-Kutta integrator, and an exact matrix
exponential of the integrated coefficient for families whose values
commute.  Interior breakpoints of the coefficient (step or piecewise
families) split the integration so each smooth piece is treated exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, PreconditionError
from .model import sup_norm
from .quadrature import _check_grid_budget, _partition, cumulative_simpson

__all__ = [
    "TransitionMatrix",
    "CommutativityReport",
    "peano_baker",
    "ode_transition",
    "commutative_transition",
    "check_commutativity",
    "matrix_exp",
]


@dataclass
class TransitionMatrix:
    """Computed transition matrix plus provenance of the computation."""

    value: np.ndarray
    method: str
    error_estimate: float
    terms_or_steps: int


@dataclass
class CommutativityReport:
    """Result of sampling commutators of a matrix family over a window."""

    passes: bool
    max_violation: float
    interval: tuple
    grid_points: int
    tol: float


# ---------------------------------------------------------------------------
# Matrix exponential

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _squarings(norm):
    return max(0, int(math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0)


def _pade_exp(D, squarings):
    """Pade-13 exponential of a stack of matrices sharing one squaring count."""
    A = D / (2.0**squarings)
    b = _PADE13
    ident = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return R


def matrix_exp(D):
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade step.

    ``D`` may be one square matrix or a stack of shape (..., p, p).  Stacked
    matrices are grouped by their squaring count, so each one gets the same
    arithmetic as a call on it alone.
    """
    D = np.asarray(D)
    if D.ndim < 2 or D.shape[-1] != D.shape[-2]:
        raise PreconditionError("matrix_exp expects a square matrix or a stack of them")
    n = D.shape[-1]
    stack = D.reshape((math.prod(D.shape[:-2]), n, n))
    norms = np.abs(stack).sum(axis=-2).max(axis=-1) if n else np.zeros(len(stack))
    squarings = np.array([_squarings(float(x)) for x in norms], dtype=int)
    out = np.empty(stack.shape, dtype=np.result_type(stack, 1.0))
    for s in np.unique(squarings):
        sel = squarings == s
        out[sel] = _pade_exp(stack[sel], int(s))
    return out.reshape(D.shape)


# ---------------------------------------------------------------------------
# Shared grid construction

def _norm_estimate(A, s0, s):
    if s == s0:
        return 1.0
    return max(1.0, sup_norm(A, s0, s))


def _simpson_steps(max_h):
    """Step count of a quadrature piece: even, at least 2, steps at most ``max_h``."""
    return lambda width: 2 * math.ceil(width / max_h / 2)


def _identity_result(A, method):
    p = A.shape[0]
    return TransitionMatrix(np.eye(p), method, 0.0, 0)


# ---------------------------------------------------------------------------
# Iterated-integral series

def peano_baker(A, s0, s, tol=1e-12, max_terms=64):
    """Transition matrix by the iterated-integral series.

    Terms I_0 = identity, I_{n+1}(s) = int_{s0}^{s} A(tau) I_n(tau) dtau
    are evaluated on a shared Simpson grid (panel width well under the
    0.05 / max(1, sup ||A||) stiffness cap, since the half-panel cumulative
    rule is one degree weaker than full-panel Simpson) and summed until the
    newest term's Frobenius norm at the endpoint drops below ``tol``.
    """
    if s < s0:
        raise PreconditionError("peano_baker requires s >= s0")
    if not tol > 0:
        raise PreconditionError(f"peano_baker needs a positive tol, got {tol!r}")
    if s == s0:
        return _identity_result(A, "peano_baker")
    p = A.shape[0]
    max_h = 0.02 / _norm_estimate(A, s0, s)
    _check_grid_budget((s - s0) / max_h, "quadrature nodes")
    pieces = _partition(A, s0, s, _simpson_steps(max_h))
    node_vals = [A.eval_array(np.r_[first, nodes[1:]]) for nodes, first in pieces]
    steps = [nodes[1] - nodes[0] for nodes, _ in pieces]

    terms = [np.broadcast_to(np.eye(p), v.shape).copy() for v in node_vals]
    total = np.eye(p)
    term_norms = []
    for n in range(1, max_terms + 1):
        carry = np.zeros((p, p))
        nxt = []
        for vals, term, h in zip(node_vals, terms, steps):
            integ = cumulative_simpson(np.matmul(vals, term), h) + carry
            carry = integ[-1]
            nxt.append(integ)
        terms = nxt
        total = total + carry
        norm = float(np.linalg.norm(carry))
        term_norms.append(norm)
        if norm < tol:
            return TransitionMatrix(total, "peano_baker", norm, n)
    raise DivergenceError(
        f"iterated-integral series did not converge in {max_terms} terms "
        f"(last term norm {term_norms[-1]:.3e})", term_norms)


# ---------------------------------------------------------------------------
# Runge-Kutta integration

def _rk4_panels(a_stage, h):
    """Classical RK4 propagators of many panels at once.

    ``a_stage`` holds the coefficient at the 2 n_sub + 1 stage points of each
    panel, shape (n_panels, 2 n_sub + 1, p, p): node, midpoint, node, ...
    ``h`` is the step width, a scalar or one value per panel.  Returns the
    (n_panels, p, p) transition matrices over the panels, each advanced from
    the identity by n_sub steps.
    """
    n_panels, n_nodes, p, _ = a_stage.shape
    h = np.asarray(h, dtype=float)
    if h.ndim:
        h = h[:, None, None]
    phi = np.broadcast_to(np.eye(p), (n_panels, p, p))
    for k in range((n_nodes - 1) // 2):
        a0, am, a1 = a_stage[:, 2 * k], a_stage[:, 2 * k + 1], a_stage[:, 2 * k + 2]
        k1 = a0 @ phi
        k2 = am @ (phi + 0.5 * h * k1)
        k3 = am @ (phi + 0.5 * h * k2)
        k4 = a1 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def _ordered_products(*runs):
    """The ordered product run[-1] @ ... @ run[0] of each stack of matrices.

    The runs are padded with identities to one power-of-two length and
    neighbours are multiplied pairwise, so the products take log2 of that
    length stacked matmuls rather than one Python iteration per matrix.
    """
    p = runs[0].shape[-1]
    width = 1 << (max(map(len, runs)) - 1).bit_length()
    mats = np.empty((len(runs), width, p, p))
    mats[...] = np.eye(p)
    for padded, run in zip(mats, runs):
        padded[:len(run)] = run
    while mats.shape[1] > 1:
        mats = mats[:, 1::2] @ mats[:, 0::2]
    return mats[:, 0]


def _rk4_run(A, s0, s, *counts, scale=1.0):
    """RK4 transitions of ``scale * A`` over [s0, s], one for each step count.

    Each run is the partition of [s0, s] at the breakpoints of A, every piece
    taking a rounded share of the run's steps, and its transition is the
    ordered product of its step matrices.  The stage points of all runs are
    evaluated and advanced together; a piece that starts on a breakpoint
    takes its right limit there.  Returns the transitions and the step count
    of the first run.
    """
    runs = [_partition(A, s0, s, lambda width, n=n: max(1, round(n * width / (s - s0))))
            for n in counts]
    pieces = [piece for run in runs for piece in run]
    starts = np.concatenate([edges[:-1] for edges, _ in pieces])
    ends = np.concatenate([edges[1:] for edges, _ in pieces])
    h = ends - starts
    pts = np.stack([starts, starts + h / 2, ends], axis=1)  # node, midpoint, node
    head = 0
    for edges, first in pieces:
        pts[head, 0] = first
        head += len(edges) - 1
    step_mats = _rk4_panels(A.eval_array(pts), scale * h)
    head, split = 0, []
    for run in runs:
        used = sum(len(edges) - 1 for edges, _ in run)
        split.append(step_mats[head:head + used])
        head += used
    return _ordered_products(*split), len(split[0])


def ode_transition(A, s0, s, steps=256):
    """Transition matrix by classical fixed-step fourth-order Runge-Kutta.

    The error estimate compares against a run at half the step count
    (embedded halving; twice the count for a single step).  Interior
    breakpoints split the integration so piecewise-constant coefficients
    are integrated exactly on each side.
    """
    _check_grid_budget(steps, "ode_transition steps")
    steps = int(steps)
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    if s < s0:
        raise PreconditionError("ode_transition requires s >= s0")
    if s == s0:
        return _identity_result(A, "ode")
    (psi, coarse), used = _rk4_run(A, s0, s, steps, steps // 2 if steps >= 2 else 2)
    err = float(np.linalg.norm(psi - coarse))
    return TransitionMatrix(psi, "ode", err, used)


# ---------------------------------------------------------------------------
# Commutative route

def check_commutativity(A, interval, grid_points=33, tol=1e-8):
    """Sample commutators [A(t_i), A(t_j)] and [A(t_i), int A] on a grid.

    Passing means the family can safely use the exact exponential-of-
    integral transition route.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise PreconditionError("interval must satisfy lo <= hi")
    grid_points = max(3, int(grid_points))
    ts = np.linspace(lo, hi, grid_points)
    vals = A.eval_array(ts)
    prod = np.einsum("aij,bjk->abik", vals, vals)
    comm = prod - prod.transpose(1, 0, 2, 3)
    max_violation = float(np.sqrt((comm**2).sum(axis=(2, 3))).max())
    if grid_points >= 3 and hi > lo:
        cum = cumulative_simpson(vals, ts[1] - ts[0])
        comm2 = np.matmul(vals, cum) - np.matmul(cum, vals)
        max_violation = max(max_violation, float(np.sqrt((comm2**2).sum(axis=(1, 2))).max()))
    return CommutativityReport(max_violation <= tol, max_violation,
                               (lo, hi), grid_points, tol)


def _resolve_route(A, interval):
    """The route ``"auto"`` takes for the transition of A on ``interval``.

    Continuous scalar families commute, and so does any family whose
    commutators vanish (to 1e-10) on a 17-point probe: both take the exact
    exponential-of-integral route, ``"comm"``.  Every other family takes the
    Runge-Kutta route, ``"ode"``.
    """
    if A.shape[0] == 1 and A.is_continuous:
        return "comm"
    if check_commutativity(A, interval, 17, 1e-10).passes:
        return "comm"
    return "ode"


def commutative_transition(A, s0, s, tol=1e-8):
    """Exact transition matrix exp(int_{s0}^{s} A) for commuting families.

    Commutativity is re-verified with ``check_commutativity`` before use;
    the integral is evaluated by composite Simpson and the error estimate
    compares exponentials at two quadrature resolutions.
    """
    if s < s0:
        raise PreconditionError("commutative_transition requires s >= s0")
    if s == s0:
        return _identity_result(A, "commutative_exp")
    report = check_commutativity(A, (s0, s), tol=tol)
    if not report.passes:
        raise PreconditionError(
            f"matrix family does not commute (violation {report.max_violation:.3e} "
            f"> {tol:g}); use the series or Runge-Kutta route")

    def integral(max_h):
        pieces = _partition(A, s0, s, _simpson_steps(max_h))
        total = sum(cumulative_simpson(A.eval_array(np.r_[first, nodes[1:]]), nodes[1] - nodes[0])[-1]
                    for nodes, first in pieces)
        return total, sum(len(nodes) for nodes, _ in pieces)

    max_h = 0.05 / _norm_estimate(A, s0, s)
    _check_grid_budget((s - s0) / (max_h / 2.0), "quadrature nodes")
    coarse, _ = integral(max_h)
    fine, n_nodes = integral(max_h / 2.0)
    value = matrix_exp(fine)
    err = float(np.linalg.norm(value - matrix_exp(coarse)))
    return TransitionMatrix(value, "commutative_exp", err, n_nodes)
