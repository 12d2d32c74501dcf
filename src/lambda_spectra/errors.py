"""Exception types shared across the package."""


class LambdaSpectraError(Exception):
    """Base class for all package errors."""


class SingularSystem(LambdaSpectraError):
    """Steady-state Liouvillian (with trace constraint) is rank deficient,
    or too ill-conditioned for the solve to bound the state's error.

    Signals a degenerate rate configuration, e.g. no decay channel at all,
    for which the steady state is not unique.
    """


class DegenerateRates(LambdaSpectraError):
    """A closed-form expression is evaluated at a parameter point where its
    shared denominator vanishes (drive and ground-state decay both absent)."""


class NonPhysicalValue(LambdaSpectraError, ValueError):
    """A rate, Rabi frequency or medium value is negative or not finite."""

    def __init__(self, name: str, value: float):
        super().__init__(f"{name} must be finite and >= 0, got {value}")
        self.name = name


class NoSignChange(LambdaSpectraError):
    """The symmetric lineshape amplitude has no positive root in the
    bracketing interval (e.g. ground-state decoherence too large)."""


class ZeroBackground(LambdaSpectraError):
    """Reference transmission underflowed; the cell is opaque and the
    normalized spectrum is undefined."""


class DegenerateSpectrum(LambdaSpectraError):
    """Input spectrum carries no usable resonance information (flat within
    numerical noise, or too few points to fit)."""


class ParseError(LambdaSpectraError):
    """Malformed CSV input; the message names the offending row/column."""


class SchemaMismatch(LambdaSpectraError):
    """CSV header does not match the documented schema."""


class ConfigError(LambdaSpectraError):
    """Scan configuration is invalid; the message names the section/field."""
