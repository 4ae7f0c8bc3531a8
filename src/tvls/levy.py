"""Zero-mean two-sided Levy driving noise.

The noise family is Brownian motion plus an independent compound-Poisson
stream with centered Gaussian jumps.  Every model in this family has mean
zero by construction and finite second moment ``sigma_l`` (the variance
of the unit-time increment).  Paths are driven by ``simulate_paths``, which
draws each step's increment of this noise.
"""

import math
from dataclasses import dataclass

from .errors import PreconditionError, _as_float

__all__ = ["LevyModel"]


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
            val = _as_float(getattr(self, name), f"levy: {name}")
            if val < 0:
                raise PreconditionError(f"levy: {name} must be >= 0, got {val!r}")
            object.__setattr__(self, name, val)
        try:
            sigma_l = float(self.brownian_variance + self.jump_intensity * self.jump_std**2)
        except OverflowError:
            sigma_l = math.inf
        if not math.isfinite(sigma_l):
            raise PreconditionError(
                "levy: total variance brownian_variance + jump_intensity * jump_std**2 "
                "overflows a float")
        object.__setattr__(self, "sigma_l", sigma_l)

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
        return cls(obj["brownian_variance"], obj.get("jump_intensity", 0.0), obj.get("jump_std", 0.0))
