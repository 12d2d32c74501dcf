"""Exception types shared across the package."""


class LambdaSpectraError(Exception):
    """Base class for all package errors."""


class SingularSystem(LambdaSpectraError):
    """Steady-state Liouvillian (with trace constraint) is rank deficient.

    Signals a degenerate rate configuration, e.g. no decay channel at all,
    for which the steady state is not unique.
    """


class DegenerateRates(LambdaSpectraError):
    """A closed-form expression is evaluated at a parameter point where its
    shared denominator vanishes (drive and ground-state decay both absent)."""


class NoSignChange(LambdaSpectraError):
    """The symmetric lineshape amplitude has no positive root in the
    bracketing interval (e.g. ground-state decoherence too large)."""


class QuadratureDivergence(LambdaSpectraError):
    """Velocity-average refinement check failed: doubling the node count
    moved the result by more than the tolerance, i.e. the integrand has
    structure the quadrature cannot resolve."""


class ZeroBackground(LambdaSpectraError):
    """Reference transmission underflowed; the cell is opaque and the
    normalized spectrum is undefined."""


class DegenerateSpectrum(LambdaSpectraError):
    """Input spectrum carries no usable resonance information (flat within
    numerical noise)."""


class ParseError(LambdaSpectraError):
    """Malformed CSV input; the message names the offending row/column."""


class SchemaMismatch(LambdaSpectraError):
    """CSV header does not match the documented schema."""


class ConfigError(LambdaSpectraError):
    """Scan configuration is invalid; the message names the section/field."""
