"""Coefficient functions and model containers.

Scalar coefficient functions come from a small set of parametric families
(constant, affine, sinusoidal, logistic, piecewise polynomial, step) that
are closed under negation, carry analytic derivatives where they exist,
and serialize to JSON.  Matrices of such functions define linear
state-space models

    dX(t) = A(t) X(t) dt + C(t) L(dt),      Y(t) = B(t)' X(t),

and CARMA(p, q) models, which reduce to state-space form through the
standard companion construction.

The step family is deliberately quarantined: it exists to express
structural-break examples, is accepted by simulation and transition
operations, and is rejected wherever continuity or differentiability is
part of an operation's contract.
"""

import math

import numpy as np

from .errors import PreconditionError, SmoothnessError
from .levy import LevyModel
from .quadrature import _window_grid

__all__ = [
    "ScalarFunction",
    "Constant",
    "Affine",
    "Sinusoidal",
    "Logistic",
    "PiecewisePolynomial",
    "Step",
    "Callback",
    "scalar_from_json",
    "MatrixFunction",
    "StateSpaceModel",
    "CarmaModel",
    "companion_from_carma",
    "model_from_json",
    "sup_norm",
]


class ScalarFunction:
    """Base class for scalar coefficient functions of time.

    Subclasses provide ``value(t)`` (vectorized over ndarrays),
    ``nth_derivative(t, n)``, ``negated()`` and JSON serialization.

    Attributes
    ----------
    family : str
        Family tag used in serialized form.
    is_continuous : bool
        False only for the step family.
    analytic : bool
        True when derivatives of every order exist at every t (constant,
        affine, sinusoidal, logistic).
    breakpoints : tuple of float
        Points where the function or its derivatives may jump.
    """

    family = None
    is_continuous = True
    analytic = False
    breakpoints = ()

    def value(self, t):
        raise NotImplementedError

    def nth_derivative(self, t, n):
        raise NotImplementedError

    def derivative(self, t):
        return self.nth_derivative(t, 1)

    def negated(self):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def __call__(self, t):
        return self.value(t)


def _as_float(x, what):
    try:
        val = float(x)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what} must be a number, got {x!r}") from None
    if not math.isfinite(val):
        raise PreconditionError(f"{what} must be finite, got {val!r}")
    return val


class Constant(ScalarFunction):
    family = "constant"
    analytic = True

    def __init__(self, c):
        self.c = _as_float(c, "constant: params[0]")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.c)
        return out if out.ndim else float(out)

    def nth_derivative(self, t, n):
        if n == 0:
            return self.value(t)
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        return out if out.ndim else 0.0

    def negated(self):
        return Constant(-self.c)

    def to_json(self):
        return {"family": "constant", "params": [self.c]}


class Affine(ScalarFunction):
    """a + b t."""

    family = "affine"
    analytic = True

    def __init__(self, a, b):
        self.a = _as_float(a, "affine: params[0]")
        self.b = _as_float(b, "affine: params[1]")

    def value(self, t):
        return self.a + self.b * np.asarray(t, dtype=float)

    def nth_derivative(self, t, n):
        if n == 0:
            return self.value(t)
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.b) if n == 1 else np.zeros(t.shape)
        return out if out.ndim else float(out)

    def negated(self):
        return Affine(-self.a, -self.b)

    def to_json(self):
        return {"family": "affine", "params": [self.a, self.b]}


class Sinusoidal(ScalarFunction):
    """a0 + a1 sin(omega t + phi)."""

    family = "sinusoidal"
    analytic = True

    def __init__(self, a0, a1, omega, phi):
        self.a0 = _as_float(a0, "sinusoidal: params[0]")
        self.a1 = _as_float(a1, "sinusoidal: params[1]")
        self.omega = _as_float(omega, "sinusoidal: params[2]")
        self.phi = _as_float(phi, "sinusoidal: params[3]")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self.a0 + self.a1 * np.sin(self.omega * t + self.phi)

    def nth_derivative(self, t, n):
        if n == 0:
            return self.value(t)
        t = np.asarray(t, dtype=float)
        return self.a1 * self.omega**n * np.sin(self.omega * t + self.phi + n * np.pi / 2.0)

    def negated(self):
        return Sinusoidal(-self.a0, -self.a1, self.omega, self.phi)

    def to_json(self):
        return {"family": "sinusoidal", "params": [self.a0, self.a1, self.omega, self.phi]}


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Logistic(ScalarFunction):
    """a0 + a1 / (1 + exp(-rate (t - center)))."""

    family = "logistic"
    analytic = True

    # Derivatives of the sigmoid s satisfy s^(n) = rate^n P_n(s) with
    # P_1(u) = u - u^2 and P_{n+1} = P_n' * (u - u^2); ascending coeffs.
    _poly_cache = {1: np.array([0.0, 1.0, -1.0])}

    def __init__(self, a0, a1, rate, center):
        self.a0 = _as_float(a0, "logistic: params[0]")
        self.a1 = _as_float(a1, "logistic: params[1]")
        self.rate = _as_float(rate, "logistic: params[2]")
        self.center = _as_float(center, "logistic: params[3]")

    @classmethod
    def _poly(cls, n):
        if n not in cls._poly_cache:
            prev = cls._poly(n - 1)
            dprev = prev[1:] * np.arange(1, len(prev))
            cls._poly_cache[n] = np.convolve(dprev, np.array([0.0, 1.0, -1.0]))
        return cls._poly_cache[n]

    def value(self, t):
        t = np.asarray(t, dtype=float)
        s = _sigmoid(self.rate * (t - self.center))
        out = self.a0 + self.a1 * s
        return out if out.ndim else float(out)

    def nth_derivative(self, t, n):
        if n == 0:
            return self.value(t)
        t = np.asarray(t, dtype=float)
        s = _sigmoid(self.rate * (t - self.center))
        out = self.a1 * self.rate**n * np.polynomial.polynomial.polyval(s, self._poly(n))
        return out if np.ndim(out) else float(out)

    def negated(self):
        return Logistic(-self.a0, -self.a1, self.rate, self.center)

    def to_json(self):
        return {"family": "logistic", "params": [self.a0, self.a1, self.rate, self.center]}


class PiecewisePolynomial(ScalarFunction):
    """Polynomial segments between breakpoints, continuous across them.

    ``coefficients[i]`` are ascending powers of t on segment i; segment
    boundaries are half-open so a breakpoint belongs to the segment on its
    right, whose value there agrees with the left segment's to the 1e-9
    continuity check.  Derivatives at a breakpoint are therefore the
    right-hand ones.
    """

    family = "piecewise_polynomial"
    analytic = False

    def __init__(self, breakpoints, coefficients):
        bps = [_as_float(b, "piecewise_polynomial: breakpoints") for b in breakpoints]
        if sorted(bps) != bps or len(set(bps)) != len(bps):
            raise PreconditionError("piecewise_polynomial: breakpoints must be strictly increasing")
        coeffs = [np.asarray([_as_float(c, "piecewise_polynomial: coefficients") for c in seg], dtype=float)
                  for seg in coefficients]
        if len(coeffs) != len(bps) + 1:
            raise PreconditionError(
                "piecewise_polynomial: need one more coefficient list than breakpoints")
        if any(len(seg) == 0 for seg in coeffs):
            raise PreconditionError("piecewise_polynomial: empty coefficient list")
        self.breakpoints = tuple(bps)
        self.coefficients = tuple(tuple(seg) for seg in coeffs)
        self._segs = coeffs
        for i, b in enumerate(self.breakpoints):
            left = np.polynomial.polynomial.polyval(b, coeffs[i])
            right = np.polynomial.polynomial.polyval(b, coeffs[i + 1])
            if abs(left - right) > 1e-9 * (1.0 + abs(left)):
                raise PreconditionError(
                    f"piecewise_polynomial: discontinuous at breakpoint {b} "
                    f"({left} vs {right}); use the step family for jumps")

    def _eval(self, t, order):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        # side='right' puts t == breakpoint in the right segment, realizing
        # the right-hand derivative rule; values agree by continuity.
        idx = np.searchsorted(np.asarray(self.breakpoints), tt, side="right")
        out = np.empty_like(tt)
        for i, seg in enumerate(self._segs):
            mask = idx == i
            if not mask.any():
                continue
            c = seg
            for _ in range(order):
                c = c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)
            out[mask] = np.polynomial.polynomial.polyval(tt[mask], c)
        return float(out[0]) if scalar else out

    def value(self, t):
        return self._eval(t, 0)

    def nth_derivative(self, t, n):
        return self._eval(t, n)

    def negated(self):
        return PiecewisePolynomial(self.breakpoints, [[-c for c in seg] for seg in self.coefficients])

    def to_json(self):
        return {
            "family": "piecewise_polynomial",
            "breakpoints": list(self.breakpoints),
            "coefficients": [list(seg) for seg in self.coefficients],
        }


class Step(ScalarFunction):
    """left for t <= t_break, right for t > t_break.

    Exists to express structural breaks; rejected by every operation whose
    contract requires continuity.
    """

    family = "step"
    is_continuous = False
    analytic = False

    def __init__(self, t_break, left, right):
        self.t_break = _as_float(t_break, "step: params[0]")
        self.left = _as_float(left, "step: params[1]")
        self.right = _as_float(right, "step: params[2]")
        self.breakpoints = (self.t_break,)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t <= self.t_break, self.left, self.right)
        return float(out) if out.ndim == 0 else out

    def nth_derivative(self, t, n):
        if n == 0:
            return self.value(t)
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr == self.t_break):
            raise SmoothnessError(f"step function is not differentiable at its break {self.t_break}")
        out = np.zeros(t_arr.shape)
        return out if out.ndim else 0.0

    def negated(self):
        return Step(self.t_break, -self.left, -self.right)

    def to_json(self):
        return {"family": "step", "params": [self.t_break, self.left, self.right]}


class Callback(ScalarFunction):
    """In-process wrapper around an arbitrary callable (not serializable).

    The callable is assumed continuous; the first derivative is estimated
    by central differences, higher orders are rejected.
    """

    family = "callback"
    analytic = False

    def __init__(self, fn):
        if not callable(fn):
            raise PreconditionError("callback: expected a callable")
        self.fn = fn

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return float(self.fn(float(t)))
        return np.array([float(self.fn(float(x))) for x in t.ravel()]).reshape(t.shape)

    def nth_derivative(self, t, n):
        if n == 0:
            return self.value(t)
        if n > 1:
            raise SmoothnessError("callback functions support first derivatives only")
        t = np.asarray(t, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        out = (self.value(t + h) - self.value(t - h)) / (2.0 * h)
        return out if np.ndim(out) else float(out)

    def negated(self):
        base = self.fn
        return Callback(lambda t: -base(t))

    def to_json(self):
        raise PreconditionError("callback functions are not serializable")


_FAMILY_ARITY = {
    "constant": (Constant, 1),
    "affine": (Affine, 2),
    "sinusoidal": (Sinusoidal, 4),
    "logistic": (Logistic, 4),
    "step": (Step, 3),
}


def scalar_from_json(obj):
    """Rebuild a ScalarFunction from its serialized form."""
    if isinstance(obj, (int, float)):
        return Constant(obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise PreconditionError(f"coefficient function: expected a family object, got {obj!r}")
    family = obj["family"]
    if family == "piecewise_polynomial":
        if "breakpoints" not in obj or "coefficients" not in obj:
            raise PreconditionError("piecewise_polynomial: needs 'breakpoints' and 'coefficients'")
        return PiecewisePolynomial(obj["breakpoints"], obj["coefficients"])
    if family not in _FAMILY_ARITY:
        raise PreconditionError(f"coefficient function: unknown family {family!r}")
    cls, arity = _FAMILY_ARITY[family]
    params = obj.get("params")
    if not isinstance(params, (list, tuple)) or len(params) != arity:
        raise PreconditionError(f"{family}: 'params' must hold exactly {arity} numbers")
    return cls(*params)


def _coerce_scalar(entry, what):
    if isinstance(entry, ScalarFunction):
        return entry
    if isinstance(entry, (int, float, np.floating, np.integer)):
        return Constant(float(entry))
    raise PreconditionError(f"{what}: expected a ScalarFunction or number, got {type(entry).__name__}")


class MatrixFunction:
    """Matrix of scalar coefficient functions."""

    def __init__(self, entries, what="matrix"):
        if not entries or not all(isinstance(r, (list, tuple)) and len(r) == len(entries[0])
                                  for r in entries):
            raise PreconditionError(f"{what}: entries must be a rectangular nested list")
        self.entries = [[_coerce_scalar(e, what) for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0])
        # Every grid partition reads these, so they are worked out once.
        self.breakpoints = tuple(sorted({b for row in self.entries for e in row
                                         for b in e.breakpoints}))

    @property
    def shape(self):
        return (self.rows, self.cols)

    @classmethod
    def constant(cls, arr, what="matrix"):
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        return cls([[Constant(v) for v in row] for row in arr], what=what)

    @classmethod
    def column(cls, entries, what="vector"):
        return cls([[e] for e in entries], what=what)

    def eval(self, t):
        out = np.empty((self.rows, self.cols))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[i, j] = e.value(t)
        return out

    def eval_array(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape + (self.rows, self.cols))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[..., i, j] = e.value(ts)
        return out

    def eval_vec(self, t):
        if self.cols != 1:
            raise PreconditionError("eval_vec requires a column matrix")
        return self.eval(t)[:, 0]

    def deriv(self, t, order=1):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (self.rows, self.cols))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[..., i, j] = e.nth_derivative(t, order)
        return out

    @property
    def is_continuous(self):
        return all(e.is_continuous for row in self.entries for e in row)

    @property
    def analytic(self):
        return all(e.analytic for row in self.entries for e in row)

    @property
    def is_constant(self):
        return all(isinstance(e, Constant) for row in self.entries for e in row)

    def reparametrized(self, offset, rate):
        """View of this matrix as a function of s via t = offset + rate s."""
        return _ShiftedMatrixFunction(self, offset, rate)

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.entries]

    @classmethod
    def from_json(cls, obj, what="matrix"):
        if not isinstance(obj, list):
            raise PreconditionError(f"{what}: expected a nested list")
        rows = [r if isinstance(r, list) else [r] for r in obj]
        return cls([[scalar_from_json(e) for e in row] for row in rows], what=what)


class _ShiftedMatrixFunction:
    """A(offset + rate * s) viewed as a matrix function of s."""

    def __init__(self, base, offset, rate):
        self.base = base
        self.offset = float(offset)
        self.rate = float(rate)

    @property
    def shape(self):
        return self.base.shape

    @property
    def rows(self):
        return self.base.rows

    @property
    def cols(self):
        return self.base.cols

    def _map(self, s):
        return self.offset + self.rate * np.asarray(s, dtype=float)

    def eval(self, s):
        return self.base.eval(self._map(s))

    def eval_array(self, ss):
        return self.base.eval_array(self._map(ss))

    def deriv(self, s, order=1):
        return self.base.deriv(self._map(s), order) * self.rate**order

    @property
    def breakpoints(self):
        if self.rate == 0.0:
            return ()
        return tuple(sorted(self._preimage(b) for b in self.base.breakpoints))

    def _preimage(self, b):
        """The view's breakpoint for the base breakpoint ``b``.

        That is s = (b - offset) / rate, unless its image offset + rate s
        rounds past b, where a step takes its right value.  Then it is the
        float nearest s on the other side whose image does not exceed b.
        Either way the view takes the base's left value at its breakpoint
        and the right value just past it.
        """
        sign = math.copysign(1.0, self.rate)

        def image(x):  # non-decreasing in x
            return self.offset + self.rate * (sign * x)

        lo = hi = sign * (b - self.offset) / self.rate
        step = float(np.spacing(abs(lo)))
        while image(lo) > b:
            lo, step = lo - step, 2.0 * step
        while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
            lo, hi = (mid, hi) if image(mid) <= b else (lo, mid)
        return sign * lo

    @property
    def is_continuous(self):
        return self.base.is_continuous

    @property
    def analytic(self):
        return self.base.analytic

    @property
    def is_constant(self):
        return self.base.is_constant

    def reparametrized(self, offset, rate):
        return _ShiftedMatrixFunction(self.base, self.offset + self.rate * offset, self.rate * rate)


def sup_norm(matrix, lo, hi, samples=33):
    """Max Frobenius norm of a matrix function over a sampled window: a
    uniform grid plus every interior breakpoint and its right limit."""
    vals = matrix.eval_array(_window_grid(matrix, lo, hi, samples))
    return float(np.sqrt((vals**2).sum(axis=(1, 2))).max())


class StateSpaceModel:
    """Linear state-space model dX = A(t) X dt + C(t) L(dt), Y = B(t)' X."""

    def __init__(self, p, A, B, C, levy):
        p = int(p)
        if p < 1:
            raise PreconditionError("p must be a positive integer")
        if not isinstance(A, MatrixFunction):
            A = MatrixFunction(A, what="A")
        if not isinstance(B, MatrixFunction):
            B = MatrixFunction.column([_coerce_scalar(e, "B") for e in B], what="B")
        if not isinstance(C, MatrixFunction):
            C = MatrixFunction.column([_coerce_scalar(e, "C") for e in C], what="C")
        if A.shape != (p, p):
            raise PreconditionError(f"A must be {p}x{p}, got {A.shape[0]}x{A.shape[1]}")
        if B.shape != (p, 1):
            raise PreconditionError(f"B must have length {p}, got {B.rows * B.cols}")
        if C.shape != (p, 1):
            raise PreconditionError(f"C must have length {p}, got {C.rows * C.cols}")
        if not isinstance(levy, LevyModel):
            levy = LevyModel.from_json(levy)
        self.p = p
        self.A = A
        self.B = B
        self.C = C
        self.levy = levy

    def to_json(self):
        return {
            "p": self.p,
            "A": self.A.to_json(),
            "B": [row[0].to_json() for row in self.B.entries],
            "C": [row[0].to_json() for row in self.C.entries],
            "levy": self.levy.to_json(),
        }


class CarmaModel:
    """CARMA(p, q) model with autoregressive and moving-average coefficients.

    ``ar`` holds a_1 .. a_p (leading to the polynomial z^p + a_1 z^{p-1} +
    ... + a_p) and ``ma`` holds b_0 .. b_q with q < p.
    """

    def __init__(self, p, q, ar, ma, levy):
        p, q = int(p), int(q)
        if p < 1:
            raise PreconditionError("p must be a positive integer")
        if not (0 <= q < p):
            raise PreconditionError(f"q must satisfy 0 <= q < p, got q={q}, p={p}")
        ar = [_coerce_scalar(e, "ar") for e in ar]
        ma = [_coerce_scalar(e, "ma") for e in ma]
        if len(ar) != p:
            raise PreconditionError(f"ar must hold exactly p={p} coefficients, got {len(ar)}")
        if len(ma) != q + 1:
            raise PreconditionError(f"ma must hold exactly q+1={q + 1} coefficients, got {len(ma)}")
        if not isinstance(levy, LevyModel):
            levy = LevyModel.from_json(levy)
        self.p = p
        self.q = q
        self.ar = ar
        self.ma = ma
        self.levy = levy

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "ar": [f.to_json() for f in self.ar],
            "ma": [f.to_json() for f in self.ma],
            "levy": self.levy.to_json(),
        }


def companion_from_carma(carma):
    """Companion state-space realization of a CARMA(p, q) model.

    The state matrix has ones on the superdiagonal and -a_p .. -a_1 in the
    last row; the observation vector is the zero-padded MA coefficients;
    the noise enters only the last state coordinate.  The frozen-time
    transfer function B'(zI - A)^{-1} C equals the MA/AR polynomial ratio.
    """
    p = carma.p
    rows = []
    for i in range(p - 1):
        rows.append([Constant(1.0) if j == i + 1 else Constant(0.0) for j in range(p)])
    rows.append([carma.ar[p - 1 - j].negated() for j in range(p)])
    B = list(carma.ma) + [Constant(0.0)] * (p - 1 - carma.q)
    C = [Constant(0.0)] * (p - 1) + [Constant(1.0)]
    return StateSpaceModel(p, MatrixFunction(rows, what="A"),
                           MatrixFunction.column(B, what="B"),
                           MatrixFunction.column(C, what="C"), carma.levy)


def model_from_json(obj):
    """Load a state-space or CARMA model from its JSON object form.

    CARMA objects are detected by the presence of an ``ar`` field and are
    returned as :class:`CarmaModel`; use :func:`companion_from_carma` to
    reduce them to state-space form.
    """
    if not isinstance(obj, dict):
        raise PreconditionError("model: expected a JSON object")
    if "p" not in obj:
        raise PreconditionError("model: missing field 'p'")
    if "levy" not in obj:
        raise PreconditionError("model: missing field 'levy'")
    levy = LevyModel.from_json(obj["levy"])
    if "ar" in obj or "ma" in obj:
        for field in ("q", "ar", "ma"):
            if field not in obj:
                raise PreconditionError(f"model: missing field {field!r}")
        return CarmaModel(obj["p"], obj["q"],
                          [scalar_from_json(e) for e in obj["ar"]],
                          [scalar_from_json(e) for e in obj["ma"]], levy)
    for field in ("A", "B", "C"):
        if field not in obj:
            raise PreconditionError(f"model: missing field {field!r}")
    A = MatrixFunction.from_json(obj["A"], what="A")
    B = [scalar_from_json(e) for e in obj["B"]]
    C = [scalar_from_json(e) for e in obj["C"]]
    return StateSpaceModel(obj["p"], A, B, C, levy)
