"""Two-curve (OIS + Libor) pricing engine on a three-factor Gaussian
exponentially quadratic short-rate model.

Closed-form bonds and forward rates, semi-closed FRA/swap/caplet/swaption
pricers, and a Monte Carlo oracle that validates every analytic formula.
"""

from .errors import (
    BiasDominates,
    CapletConditionViolated,
    DegenerateSpreadFactor,
    ExpectationSingularity,
    InvalidTimeOrder,
    MixedCase,
    MomentExplosion,
    NonPositiveCoefficient,
    QuadratureFailure,
    RootNotBracketed,
    TwoCurveError,
)
from .model import FactorState, ModelParams, short_rate, spread, validate
from .curves import BondQuote, inst_forward, libor_bond, libor_bond_via_ois, ois_bond
from .measures import (
    ForwardMoments,
    GaussianLaw,
    forward_moments,
    gaussian_exp_quadratic,
    q_conditional_law,
)
from .linear import (
    ExpectationCoeffs,
    FraSpec,
    SwapSpec,
    adjustment,
    expectation_coeffs,
    fair_fra_rate,
    fair_swap_rate,
    fra_price,
    residual,
    swap_annuity,
    swap_price,
    swap_price_via_fras,
    v_multi,
    v_single,
)
from .optional import (
    CapletSpec,
    QuadratureConfig,
    SwaptionSpec,
    caplet_price,
    floorlet_price,
    swaption_price,
)
from .oracle import (
    McConfig,
    McEstimate,
    mc_bond,
    mc_forward_expectation,
    mc_price,
)

__version__ = "0.1.0"

__all__ = [
    "TwoCurveError", "NonPositiveCoefficient", "InvalidTimeOrder",
    "QuadratureFailure", "MomentExplosion", "ExpectationSingularity",
    "MixedCase", "CapletConditionViolated", "DegenerateSpreadFactor",
    "RootNotBracketed", "BiasDominates",
    "ModelParams", "FactorState", "short_rate", "spread", "validate",
    "BondQuote", "ois_bond", "libor_bond", "libor_bond_via_ois", "inst_forward",
    "ForwardMoments", "GaussianLaw", "forward_moments", "q_conditional_law",
    "gaussian_exp_quadratic",
    "FraSpec", "SwapSpec", "ExpectationCoeffs", "v_single", "v_multi",
    "adjustment", "residual", "fra_price", "fair_fra_rate",
    "expectation_coeffs", "swap_price", "swap_price_via_fras",
    "fair_swap_rate", "swap_annuity",
    "CapletSpec", "SwaptionSpec", "QuadratureConfig", "caplet_price",
    "floorlet_price", "swaption_price",
    "McConfig", "McEstimate", "mc_bond", "mc_forward_expectation", "mc_price",
]
