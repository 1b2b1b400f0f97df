"""The exceptions that cli.ERRORS maps to an error kind and an exit code.

They live here, apart from the numerics that raise them, so that the command
line can name every one without importing the modules that raise them.
"""


class ConfigError(ValueError):
    """The config, a flag or an input file is invalid."""


class CheckFailed(RuntimeError):
    """A diagnostic, lemma or selftest check failed."""


class GridResolutionError(ValueError):
    """Grid cannot represent the certification field to tolerance."""


class UnresolvedFieldError(ValueError):
    """Too much spectral mass sits in the top half of the frequency range."""


class GroundStateError(RuntimeError):
    """Q failed its certificate, or the collocation cross-check missed its equation."""


class ResolutionLossError(RuntimeError):
    """Spectral tail grew past the guard; smaller dt or a larger grid is needed."""


class NumericalFailure(RuntimeError):
    """An iteration or root-finder did not converge within its step budget."""
