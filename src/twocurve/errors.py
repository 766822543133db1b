"""Exception types shared across the pricing engine."""


class TwoCurveError(Exception):
    """Base class for all engine errors."""


class NonPositiveCoefficient(TwoCurveError):
    """A mean-reversion speed or volatility is not strictly positive."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"coefficient {name!r} must be strictly positive")


class InvalidTimeOrder(TwoCurveError):
    """Evaluation requested with t > T, or with a non-finite t or T."""

    def __init__(self, t: float, T: float):
        self.t, self.T = t, T
        super().__init__(f"require finite t <= T, got t={t}, T={T}")


class QuadratureFailure(TwoCurveError):
    """Numerical integration did not reach the requested tolerance.

    history lists the (nodes per axis, estimate) pairs of the refinement
    ladder n, 4n/3, 2n, ...
    """

    def __init__(self, message: str, history=()):
        self.history = list(history)
        super().__init__(message)


class MomentExplosion(TwoCurveError):
    """E[exp(c Z^2)] is infinite: 1 - 2*c*variance <= 0."""


class ExpectationSingularity(TwoCurveError):
    """A quadratic-exponential expectation blows up inside the horizon."""


class MixedCase(TwoCurveError):
    """Swaption periods straddle both monotonicity cases; refusing to price."""


class CapletConditionViolated(TwoCurveError):
    """The finiteness condition 1 - 2*beta3*C33 > 0 fails for the caplet."""


class DegenerateSpreadFactor(TwoCurveError):
    """The spread-factor coefficient vanishes; the 3-factor pricer does not apply."""


class RootNotBracketed(TwoCurveError):
    """The exercise-boundary Newton iteration did not converge within its
    step budget."""


class BiasDominates(TwoCurveError):
    """Monte Carlo time-discretization bias is not negligible versus the standard error."""
