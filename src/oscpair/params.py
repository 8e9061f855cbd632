"""Physical parameters of the two-oscillator + thermal-bath model, and the Bose
factor N(ω) that turns the temperature into occupations."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DomainError, ValidationError


def bose_factor(omega, beta):
    """Bose-Einstein occupation N(ω) = 1/(e^{βω} − 1), the package's one copy.

    Evaluated as e^{−βω}/(−expm1(−βω)), which cannot overflow: a very cold
    bath gives N = 0 (up to underflow) without a warning, and small βω keep
    full relative accuracy. Strictly decreasing in both ω and β; accepts
    scalars or arrays.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("bose_factor requires omega > 0")
    if not beta > 0.0:
        raise DomainError(f"bose_factor requires beta > 0, got {beta}")
    x = beta * omega
    out = np.exp(-x) / -np.expm1(-x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ModelParams:
    """All constants of the model, ħ = 1, frequencies/rates angular.

    Two resonant modes A, B at ``omega0`` exchange excitations with strength
    ``g``; only A couples to a bath of ``M`` equally spaced modes below
    ``omega_c`` with power-law spectral density κ(ω) = κ(ω0)(ω/ω0)^α Θ(ωc−ω).
    The bath temperature may be given either as ``beta`` (inverse temperature)
    or as ``n_omega0``, the Bose occupation N(ω0); ``beta`` is what is stored.

    ``delta_t`` is the coarse-grain interval of the smoothed Redfield family
    (0 → plain Redfield, ∞ → full secular / global); the interval at the
    complete-positivity threshold is the ``cp_redfield`` scheme.
    ``mixture_rate`` is the rate 𝒢 of the local/global convex mixture and
    defaults to 0.4·κ(ω0).
    """

    omega0: float = 1.0
    g: float = 0.3
    kappa0: float = 0.04
    omega_c: float = 3.0
    alpha: float = 1.0
    beta: float | None = None
    M: int = 400
    delta_t: float = 0.0
    mixture_rate: float | None = None
    n_omega0: InitVar[float | None] = None

    def __post_init__(self, n_omega0):
        if (self.beta is None) == (n_omega0 is None):
            raise ValidationError("specify the temperature via exactly one of beta / n_omega0")
        # beta = inf (zero temperature) and delta_t = inf (secular limit) are meaningful
        for name in ("omega0", "g", "kappa0", "omega_c", "alpha", "mixture_rate"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if n_omega0 is not None:
            if n_omega0 <= 0.0:
                raise ValidationError(f"n_omega0 must be > 0, got {n_omega0}")
            object.__setattr__(self, "beta", math.log1p(1.0 / n_omega0) / self.omega0)
        if not self.omega0 > 0.0:
            raise ValidationError(f"omega0 must be > 0, got {self.omega0}")
        if self.g < 0.0:
            raise ValidationError(f"g must be >= 0, got {self.g}")
        if not self.omega_minus > 0.0:
            raise ValidationError(
                f"omega0 - g = {self.omega_minus} must be > 0 (non-positive eigenfrequency)")
        if not self.kappa0 > 0.0:
            raise ValidationError(f"kappa0 must be > 0, got {self.kappa0}")
        if not self.omega_c > self.omega_plus:
            raise ValidationError(
                f"omega_c = {self.omega_c} must exceed omega0 + g = {self.omega_plus} "
                "(both eigenfrequencies must lie inside the bath band)")
        if self.alpha < 0.0:
            raise ValidationError(f"alpha must be >= 0, got {self.alpha}")
        if not self.beta > 0.0:
            raise ValidationError(f"beta must be > 0, got {self.beta}")
        if not (isinstance(self.M, int) and self.M >= 1):
            raise ValidationError(f"M must be a positive integer, got {self.M!r}")
        if not self.delta_t >= 0.0:
            raise ValidationError(f"delta_t must be >= 0, got {self.delta_t}")
        if self.mixture_rate is None:
            object.__setattr__(self, "mixture_rate", 0.4 * self.kappa0)
        elif not self.mixture_rate > 0.0:
            raise ValidationError(f"mixture_rate must be > 0, got {self.mixture_rate}")

    @property
    def omega_plus(self) -> float:
        return self.omega0 + self.g

    @property
    def omega_minus(self) -> float:
        return self.omega0 - self.g

    @property
    def n_occupation_omega0(self) -> float:
        """N(ω0) = 1/(e^{βω0}−1); round-trips with the n_omega0 constructor."""
        return bose_factor(self.omega0, self.beta)

    @property
    def recurrence_time(self) -> float:
        """T_rec = 2πM/ωc, when the discretized bath correlations repeat."""
        return 2.0 * math.pi * self.M / self.omega_c
