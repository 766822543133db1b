"""Three-factor Gaussian model: parameters, factor state, short rate and spread.

The model drives an OIS short rate r and an additive Libor spread s with
three independent mean-reverting Gaussian factors:

    r_t = psi1 + psi2^2
    s_t = kappa * psi1 + psi3^2

so the Libor-curve short rate is R_t = r_t + s_t = (1+kappa)*psi1 + psi2^2 + psi3^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonPositiveCoefficient

__all__ = [
    "ModelParams",
    "FactorState",
    "ValidationReport",
    "short_rate",
    "spread",
    "validate",
]


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients: mean reversions b_i, volatilities sigma_i, correlation
    intensity kappa and initial factor values psi0.

    b_i must be finite and strictly positive, sigma_i finite and >= 0
    (NonPositiveCoefficient otherwise); kappa and psi0 must be finite
    (ValueError otherwise).  A zero volatility builds a deterministic model
    for simulation; validate() rejects it for pricing.
    """

    b1: float
    b2: float
    b3: float
    sigma1: float
    sigma2: float
    sigma3: float
    kappa: float = 0.0
    psi0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "psi0", tuple(float(x) for x in self.psi0))
        for name in ("b1", "b2", "b3"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0.0):
                raise NonPositiveCoefficient(name)
        for name in ("sigma1", "sigma2", "sigma3"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0.0):
                raise NonPositiveCoefficient(name)
        if not all(math.isfinite(x) for x in (self.kappa, *self.psi0)):
            raise ValueError(f"kappa and psi0 must be finite, got {self.kappa}, {self.psi0}")

    def b(self, i: int) -> float:
        return (self.b1, self.b2, self.b3)[i - 1]

    def sigma(self, i: int) -> float:
        return (self.sigma1, self.sigma2, self.sigma3)[i - 1]

    @property
    def caplet_condition(self) -> bool:
        """True when b3 >= sigma3 / sqrt(2), which guarantees the caplet
        pricer's finiteness condition for every maturity."""
        return self.b3 >= self.sigma3 / math.sqrt(2.0)


@dataclass(frozen=True)
class FactorState:
    """Factor values psi at an absolute time t (year fractions from epoch)."""

    t: float
    psi: tuple[float, float, float]

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValueError(f"state time must be finite and >= 0, got {self.t}")
        object.__setattr__(self, "psi", tuple(float(x) for x in self.psi))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of parameter validation: the accepted params plus warnings."""

    params: ModelParams
    warnings: tuple[str, ...] = field(default=())

    @property
    def caplet_condition(self) -> bool:
        return self.params.caplet_condition


def short_rate(state: FactorState, params: ModelParams) -> float:
    """OIS short rate r = psi1 + psi2^2. May be negative via the linear term."""
    p1, p2, _ = state.psi
    return p1 + p2 * p2


def spread(state: FactorState, params: ModelParams) -> float:
    """Libor-OIS short rate spread s = kappa*psi1 + psi3^2."""
    p1, _, p3 = state.psi
    return params.kappa * p1 + p3 * p3


def validate(params: ModelParams) -> ValidationReport:
    """Check sigma_i > 0 for pricing (ModelParams already guarantees finite
    b_i > 0); raise NonPositiveCoefficient otherwise.

    The caplet finiteness condition is reported as a warning, not an error:
    linear products and many option maturities remain priceable without it.
    """
    for name in ("sigma1", "sigma2", "sigma3"):
        if not getattr(params, name) > 0.0:
            raise NonPositiveCoefficient(name)
    warnings = []
    if not params.caplet_condition:
        warnings.append(
            "b3 < sigma3/sqrt(2): caplet finiteness is not guaranteed for all maturities"
        )
    return ValidationReport(params=params, warnings=tuple(warnings))
