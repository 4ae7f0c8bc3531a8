"""Zero-mean two-sided Levy driving noise.

The noise family is Brownian motion plus an independent compound-Poisson
stream with centered Gaussian jumps.  Every model in this family has mean
zero by construction, finite second moment ``sigma_l`` (the variance of
the unit-time increment), and a characteristic exponent that the module
evaluates by direct quadrature against the jump density.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ZeroVarianceError
from .quadrature import composite_simpson

__all__ = [
    "LevyModel",
    "characteristic_exponent",
    "sample_increments",
    "refine_increments",
]

# Counter stride reserved per grid interval; draws within one interval
# consume far fewer Philox states than this.
_INTERVAL_STRIDE = 1 << 68


@dataclass(frozen=True)
class LevyModel:
    """Brownian variance plus compound-Poisson jumps with N(0, jump_std^2) sizes.

    Attributes
    ----------
    brownian_variance : float
        Variance per unit time of the continuous Gaussian part.
    jump_intensity : float
        Expected number of jumps per unit time.
    jump_std : float
        Standard deviation of a single Gaussian jump.
    sigma_l : float
        Derived total variance of the unit-time increment.
    """

    brownian_variance: float
    jump_intensity: float = 0.0
    jump_std: float = 0.0
    sigma_l: float = None  # derived; do not pass

    def __post_init__(self):
        for name in ("brownian_variance", "jump_intensity", "jump_std"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise PreconditionError(f"{name} must be finite and >= 0, got {val!r}")
        object.__setattr__(
            self,
            "sigma_l",
            float(self.brownian_variance + self.jump_intensity * self.jump_std**2),
        )

    def to_json(self):
        return {
            "brownian_variance": self.brownian_variance,
            "jump_intensity": self.jump_intensity,
            "jump_std": self.jump_std,
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise PreconditionError("levy: expected an object with noise parameters")
        extra = set(obj) - {"brownian_variance", "jump_intensity", "jump_std"}
        if extra:
            raise PreconditionError(f"levy: unknown field {sorted(extra)[0]!r}")
        if "brownian_variance" not in obj:
            raise PreconditionError("levy: missing field 'brownian_variance'")
        return cls(
            float(obj["brownian_variance"]),
            float(obj.get("jump_intensity", 0.0)),
            float(obj.get("jump_std", 0.0)),
        )


def characteristic_exponent(model, z):
    """log E[exp(i z L(1))] evaluated by quadrature against the jump density.

    The compensated-jump integrand exp(izx) - 1 - izx 1_{|x|<=1} is
    integrated over at least eight jump standard deviations, split at the
    compensation cutoffs +-1 where the integrand's derivative jumps.  The
    centering drift that keeps E[L(1)] = 0 is computed the same way (it
    vanishes analytically for symmetric jumps, and numerically up to
    quadrature error).
    """
    z = float(z)
    psi = -0.5 * model.brownian_variance * z * z + 0.0j
    rate, std = model.jump_intensity, model.jump_std
    if rate == 0.0 or std == 0.0:
        return psi

    def density(x):
        return np.exp(-0.5 * (x / std) ** 2) / (std * np.sqrt(2.0 * np.pi))

    def compensated(x):
        return (np.exp(1j * z * x) - 1.0 - 1j * z * x * (np.abs(x) <= 1.0)) * density(x)

    radius = max(8.0 * std, 1.0 + std)
    edges = sorted({-radius, radius} | ({-1.0, 1.0} if radius > 1.0 else set()))
    jump_part = 0.0 + 0.0j
    drift = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = hi - lo
        panels = max(64, int(np.ceil(width / (std / 16.0))), int(np.ceil(width * abs(z) * 4.0)))
        jump_part += composite_simpson(compensated, lo, hi, panels)
        if lo >= 1.0 or hi <= -1.0:
            drift -= composite_simpson(lambda x: x * density(x), lo, hi, panels)
    gamma = rate * drift
    return psi + 1j * gamma * z + rate * jump_part


def _interval_rng(seed, k):
    """Deterministic generator for grid interval ``k`` under ``seed``.

    Counter-based: each interval owns a disjoint slice of the Philox
    counter space, so draws are reproducible regardless of evaluation
    order and refinement can replay an interval's stream.
    """
    bg = np.random.Philox(key=int(seed) % (1 << 128)).advance(k * _INTERVAL_STRIDE)
    return np.random.Generator(bg)


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise PreconditionError("times must be a 1-d grid with at least two points")
    if not np.all(np.diff(times) > 0):
        raise PreconditionError("times must be strictly increasing")
    return times


def _draw_interval(rng, model, h):
    """One interval's draws: (gaussian z, jump count, individual jumps)."""
    z = rng.standard_normal()
    n = int(rng.poisson(model.jump_intensity * h)) if model.jump_intensity > 0 else 0
    jumps = rng.standard_normal(n) * model.jump_std if n else np.empty(0)
    return z, n, jumps


def sample_increments(model, times, seed):
    """Exact-in-distribution increments of L over consecutive grid intervals.

    Returns an array of length ``len(times) - 1``.  Interval ``k`` draws
    from its own counter-based stream keyed by (seed, k).
    """
    times = _check_times(times)
    if model.sigma_l == 0.0:
        raise ZeroVarianceError("driving noise has zero variance")
    sigma = model.brownian_variance
    out = np.empty(times.size - 1)
    for k in range(times.size - 1):
        h = times[k + 1] - times[k]
        z, _, jumps = _draw_interval(_interval_rng(seed, k), model, h)
        out[k] = np.sqrt(sigma * h) * z + jumps.sum()
    return out


def refine_increments(model, times, seed, factor):
    """Split each interval of ``times`` into ``factor`` equal parts, coupled.

    Replays each interval's stream from :func:`sample_increments` and then
    draws the conditional refinement: a Gaussian bridge for the continuous
    part and uniform placement of the already-drawn jumps.  Summing the
    refined increments over one coarse interval reproduces the coarse
    draw exactly (up to float roundoff).

    Returns ``(refined_times, refined_increments)``.
    """
    times = _check_times(times)
    factor = int(factor)
    if factor < 1:
        raise PreconditionError("factor must be >= 1")
    if model.sigma_l == 0.0:
        raise ZeroVarianceError("driving noise has zero variance")
    sigma = model.brownian_variance
    fine_times = []
    out = np.empty((times.size - 1) * factor)
    for k in range(times.size - 1):
        a, b = times[k], times[k + 1]
        h = b - a
        rng = _interval_rng(seed, k)
        z, n, jumps = _draw_interval(rng, model, h)
        positions = rng.random(n) if n else np.empty(0)
        e = rng.standard_normal(factor) * np.sqrt(sigma * h / factor)
        total_gauss = np.sqrt(sigma * h) * z
        sub = total_gauss / factor + (e - e.mean())
        if n:
            buckets = np.minimum((positions * factor).astype(int), factor - 1)
            sub = sub + np.bincount(buckets, weights=jumps, minlength=factor)
        out[k * factor:(k + 1) * factor] = sub
        fine_times.append(a + (b - a) * np.arange(factor) / factor)
    fine_times.append([times[-1]])
    return np.concatenate(fine_times), out
