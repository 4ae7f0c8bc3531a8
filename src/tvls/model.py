"""Coefficient functions and model containers.

Scalar coefficient functions come from a small set of parametric families
(constant, affine, sinusoidal, logistic, piecewise polynomial, step) that
are closed under negation, carry closed-form derivatives where they exist,
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

from .errors import PreconditionError, SmoothnessError, _as_float, _is_number
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

    A family is a subclass that defines ``value(t)`` (vectorized over
    ndarrays) and ``_derivative(t, n)`` for n >= 1.  A parametric family
    also declares ``params`` and ``linear`` and lists its class in
    ``_FAMILIES``; its constructor, ``negated``, ``to_json`` and JSON
    loading then follow from the declaration.  The piecewise polynomial and
    callback families override the constructor, ``negated`` and ``to_json``.

    Attributes
    ----------
    family : str
        Family tag used in serialized form.
    params : tuple of str
        Parameter names, in constructor and serialized order; each is
        stored as a finite float attribute of that name.
    linear : tuple of str
        The parameters that negation flips; it keeps the others.
    is_continuous : bool
        False only for the step family.
    breakpoints : tuple of float
        Points where the function or its derivatives may jump.
    """

    family = None
    params = ()
    linear = ()
    is_continuous = True
    breakpoints = ()

    def __init__(self, *values):
        if len(values) != len(self.params):
            raise PreconditionError(
                f"{self.family}: params must hold exactly {len(self.params)} numbers "
                f"({', '.join(self.params)}), got {len(values)}")
        for i, (name, val) in enumerate(zip(self.params, values)):
            setattr(self, name, _as_float(val, f"{self.family}: params[{i}]"))

    def value(self, t):
        raise NotImplementedError

    def _derivative(self, t, n):
        raise NotImplementedError

    def nth_derivative(self, t, n):
        """The n-th derivative at t; the value itself for n == 0."""
        return self.value(t) if n == 0 else self._derivative(t, n)

    def derivative(self, t):
        return self.nth_derivative(t, 1)

    def negated(self):
        return type(self)(*(-getattr(self, name) if name in self.linear else getattr(self, name)
                            for name in self.params))

    def to_json(self):
        return {"family": self.family, "params": [getattr(self, name) for name in self.params]}

    def __call__(self, t):
        return self.value(t)


def _as_list(xs, what):
    """``xs`` as a list; a PreconditionError naming ``what`` unless it is a sequence."""
    if isinstance(xs, (str, dict)) or not np.iterable(xs):
        raise PreconditionError(f"{what} must be a list, got {xs!r}")
    return list(xs)


def _as_int(x, what, lo):
    """``x`` as an int of at least ``lo``; a PreconditionError naming ``what`` otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < lo:
        raise PreconditionError(f"{what} must be an integer >= {lo}, got {x!r}")
    return int(x)


class Constant(ScalarFunction):
    family = "constant"
    params = linear = ("c",)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.c)
        return out if out.ndim else float(out)

    def _derivative(self, t, n):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        return out if out.ndim else 0.0


class Affine(ScalarFunction):
    """a + b t."""

    family = "affine"
    params = linear = ("a", "b")

    def value(self, t):
        return self.a + self.b * np.asarray(t, dtype=float)

    def _derivative(self, t, n):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.b) if n == 1 else np.zeros(t.shape)
        return out if out.ndim else float(out)


class Sinusoidal(ScalarFunction):
    """a0 + a1 sin(omega t + phi)."""

    family = "sinusoidal"
    params = ("a0", "a1", "omega", "phi")
    linear = ("a0", "a1")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self.a0 + self.a1 * np.sin(self.omega * t + self.phi)

    def _derivative(self, t, n):
        t = np.asarray(t, dtype=float)
        return self.a1 * self.omega**n * np.sin(self.omega * t + self.phi + n * np.pi / 2.0)


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
    params = ("a0", "a1", "rate", "center")
    linear = ("a0", "a1")

    # Derivatives of the sigmoid s satisfy s^(n) = rate^n P_n(s) with
    # P_1(u) = u - u^2 and P_{n+1} = P_n' * (u - u^2); ascending coeffs.
    _poly_cache = {1: np.array([0.0, 1.0, -1.0])}

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

    def _derivative(self, t, n):
        t = np.asarray(t, dtype=float)
        s = _sigmoid(self.rate * (t - self.center))
        out = self.a1 * self.rate**n * np.polynomial.polynomial.polyval(s, self._poly(n))
        return out if np.ndim(out) else float(out)


class PiecewisePolynomial(ScalarFunction):
    """Polynomial segments between breakpoints, continuous across them.

    ``coefficients[i]`` are ascending powers of t on segment i; segment
    boundaries are half-open so a breakpoint belongs to the segment on its
    right, whose value there agrees with the left segment's to the 1e-9
    continuity check.  Derivatives at a breakpoint are therefore the
    right-hand ones.
    """

    family = "piecewise_polynomial"

    def __init__(self, breakpoints, coefficients):
        what = "piecewise_polynomial: breakpoints"
        bps = [_as_float(b, what) for b in _as_list(breakpoints, what)]
        if sorted(bps) != bps or len(set(bps)) != len(bps):
            raise PreconditionError("piecewise_polynomial: breakpoints must be strictly increasing")
        what = "piecewise_polynomial: coefficients"
        coeffs = [np.asarray([_as_float(c, what) for c in _as_list(seg, what)], dtype=float)
                  for seg in _as_list(coefficients, what)]
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

    def _derivative(self, t, order):
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
        return self._derivative(t, 0)

    def negated(self):
        return PiecewisePolynomial(self.breakpoints, [[-c for c in seg] for seg in self.coefficients])

    def to_json(self):
        return {"family": self.family, "breakpoints": list(self.breakpoints),
                "coefficients": [list(seg) for seg in self.coefficients]}


class Step(ScalarFunction):
    """left for t <= t_break, right for t > t_break.

    Exists to express structural breaks; rejected by every operation whose
    contract requires continuity.
    """

    family = "step"
    params = ("t_break", "left", "right")
    linear = ("left", "right")
    is_continuous = False

    @property
    def breakpoints(self):
        return (self.t_break,)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t <= self.t_break, self.left, self.right)
        return float(out) if out.ndim == 0 else out

    def _derivative(self, t, n):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr == self.t_break):
            raise SmoothnessError(f"step function is not differentiable at its break {self.t_break}")
        out = np.zeros(t_arr.shape)
        return out if out.ndim else 0.0


class Callback(ScalarFunction):
    """In-process wrapper around an arbitrary callable (not serializable).

    The callable is assumed continuous; the first derivative is estimated
    by central differences, higher orders are rejected.
    """

    family = "callback"

    def __init__(self, fn):
        if not callable(fn):
            raise PreconditionError("callback: expected a callable")
        self.fn = fn

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return float(self.fn(float(t)))
        return np.array([float(self.fn(float(x))) for x in t.ravel()]).reshape(t.shape)

    def _derivative(self, t, n):
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


# The families serialized as {"family": tag, "params": [...]}.
_FAMILIES = {cls.family: cls for cls in (Constant, Affine, Sinusoidal, Logistic, Step)}


def scalar_from_json(obj):
    """Rebuild a ScalarFunction from its serialized form."""
    if _is_number(obj):
        return Constant(obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise PreconditionError(f"coefficient function: expected a family object, got {obj!r}")
    family = obj["family"]
    if family == "piecewise_polynomial":
        if "breakpoints" not in obj or "coefficients" not in obj:
            raise PreconditionError("piecewise_polynomial: needs 'breakpoints' and 'coefficients'")
        return PiecewisePolynomial(obj["breakpoints"], obj["coefficients"])
    if not isinstance(family, str) or family not in _FAMILIES:
        raise PreconditionError(f"coefficient function: unknown family {family!r}")
    params = obj.get("params")
    if not isinstance(params, list):
        raise PreconditionError(f"{family}: 'params' must be a list of numbers, got {params!r}")
    return _FAMILIES[family](*params)


def _coerce_scalar(entry, what):
    if isinstance(entry, ScalarFunction):
        return entry
    if _is_number(entry):
        return Constant(entry)
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
        return cls([[e] for e in _as_list(entries, what)], what=what)

    def _entrywise(self, t, order):
        """Every entry's ``order``-th derivative (its value for 0) at each t."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (self.rows, self.cols))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[..., i, j] = e.nth_derivative(t, order)
        return out

    def eval(self, t):
        return self._entrywise(t, 0)

    def eval_array(self, ts):
        return self._entrywise(ts, 0)

    def eval_vec(self, t):
        if self.cols != 1:
            raise PreconditionError("eval_vec requires a column matrix")
        return self.eval(t)[:, 0]

    def deriv(self, t, order=1):
        return self._entrywise(t, order)

    @property
    def is_continuous(self):
        return all(e.is_continuous for row in self.entries for e in row)

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


class _ShiftedMatrixFunction(MatrixFunction):
    """A(offset + rate * s) viewed as a matrix function of s; shares A's entries."""

    def __init__(self, base, offset, rate):
        self.base = base
        self.entries, self.rows, self.cols = base.entries, base.rows, base.cols
        self.offset = float(offset)
        self.rate = float(rate)

    def _entrywise(self, s, order):
        t = self.offset + self.rate * np.asarray(s, dtype=float)
        return super()._entrywise(t, order) * self.rate**order

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

    def reparametrized(self, offset, rate):
        return _ShiftedMatrixFunction(self.base, self.offset + self.rate * offset, self.rate * rate)

    def to_json(self):
        raise PreconditionError("a reparametrized view is not serializable; serialize its base")


def sup_norm(matrix, lo, hi, samples=33):
    """Max Frobenius norm of a matrix function over a sampled window: a
    uniform grid plus every interior breakpoint and its right limit."""
    vals = matrix.eval_array(_window_grid(matrix, lo, hi, samples))
    return float(np.sqrt((vals**2).sum(axis=(1, 2))).max())


class StateSpaceModel:
    """Linear state-space model dX = A(t) X dt + C(t) L(dt), Y = B(t)' X."""

    def __init__(self, p, A, B, C, levy):
        p = _as_int(p, "p", 1)
        if not isinstance(A, MatrixFunction):
            A = MatrixFunction(A, what="A")
        if not isinstance(B, MatrixFunction):
            B = MatrixFunction.column(B, what="B")
        if not isinstance(C, MatrixFunction):
            C = MatrixFunction.column(C, what="C")
        if A.shape != (p, p):
            raise PreconditionError(f"A must be {p}x{p}, got {A.shape[0]}x{A.shape[1]}")
        if B.shape != (p, 1):
            raise PreconditionError(f"B must have length {p}, got {B.rows * B.cols}")
        if C.shape != (p, 1):
            raise PreconditionError(f"C must have length {p}, got {C.rows * C.cols}")
        if not isinstance(levy, LevyModel):
            levy = LevyModel.from_json(levy)
        self.p, self.A, self.B, self.C, self.levy = p, A, B, C, levy

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
        p, q = _as_int(p, "p", 1), _as_int(q, "q", 0)
        if q >= p:
            raise PreconditionError(f"q must satisfy 0 <= q < p, got q={q}, p={p}")
        ar = [_coerce_scalar(e, "ar") for e in _as_list(ar, "ar")]
        ma = [_coerce_scalar(e, "ma") for e in _as_list(ma, "ma")]
        if len(ar) != p:
            raise PreconditionError(f"ar must hold exactly p={p} coefficients, got {len(ar)}")
        if len(ma) != q + 1:
            raise PreconditionError(f"ma must hold exactly q+1={q + 1} coefficients, got {len(ma)}")
        if not isinstance(levy, LevyModel):
            levy = LevyModel.from_json(levy)
        self.p, self.q, self.ar, self.ma, self.levy = p, q, ar, ma, levy

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
    return StateSpaceModel(p, rows, B, C, carma.levy)


def model_from_json(obj):
    """Load a state-space or CARMA model from its JSON object form.

    CARMA objects are detected by the presence of an ``ar`` field and are
    returned as :class:`CarmaModel`; use :func:`companion_from_carma` to
    reduce them to state-space form.
    """
    if not isinstance(obj, dict):
        raise PreconditionError("model: expected a JSON object")
    carma = "ar" in obj or "ma" in obj
    for field in ("p", "levy", *(("q", "ar", "ma") if carma else ("A", "B", "C"))):
        if field not in obj:
            raise PreconditionError(f"model: missing field {field!r}")
    levy = LevyModel.from_json(obj["levy"])

    def vector(field):
        return [scalar_from_json(e) for e in _as_list(obj[field], field)]

    if carma:
        return CarmaModel(obj["p"], obj["q"], vector("ar"), vector("ma"), levy)
    return StateSpaceModel(obj["p"], MatrixFunction.from_json(obj["A"], what="A"),
                           vector("B"), vector("C"), levy)
