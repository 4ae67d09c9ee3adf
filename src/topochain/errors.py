"""Exception hierarchy.

Every error raised by this package derives from TopochainError.  The CLI maps
the three branches of the hierarchy onto distinct exit codes, so new errors
should subclass the appropriate branch rather than the root.
"""

from __future__ import annotations


class TopochainError(Exception):
    """Root of the package exception hierarchy."""


class ConfigError(TopochainError):
    """Invalid configuration or parameters. CLI exit code 2."""


class NumericError(TopochainError):
    """A numerical computation failed or left its validity envelope. Exit code 3."""


class OutputError(TopochainError):
    """Filesystem / serialization failure. CLI exit code 4."""


# --- configuration ---------------------------------------------------------

class InvalidParams(ConfigError):
    """CircuitParams invariant violated (element values, n_cells, boundary)."""


class UnknownKey(ConfigError):
    """Config file contains a key the schema does not define."""


class MissingKey(ConfigError):
    """Config file lacks a required key; message names the dotted key path."""


# --- numerics --------------------------------------------------------------

class ZeroFrequency(NumericError):
    """|omega| below the representable floor; hoppings undefined at omega=0."""


class DegenerateEta(NumericError):
    """Frequency sits on (or numerically at) a dissipative pole 1 + i*omega*R*C = 0."""


class RootResidualTooLarge(NumericError):
    """A polynomial root failed the back-substitution residual gate."""


class TrackingAmbiguous(NumericError):
    """Two physical roots are too close to continue branches unambiguously."""


class OriginCrossing(NumericError):
    """Winding curve passes through the origin; the invariant is undefined."""


class GapUnknown(NumericError):
    """State classification requested with a non-positive bulk gap."""


class ConvergenceFailure(NumericError):
    """Dense eigensolver did not converge."""


class OutOfRange(NumericError):
    """Index or parameter outside its documented domain."""


class SingularKCL(NumericError):
    """Node-voltage system unexpectedly singular (should not happen for R > 0)."""


class LosslessUnsupported(NumericError):
    """Transient integration requires R1, R2 > 0."""


class StepRejected(NumericError):
    """Local truncation error estimate exceeded tolerance at the current dt."""


class FitDiverged(NumericError):
    """Damped-oscillation least squares did not converge."""


class InsufficientSignal(NumericError):
    """Series too short or too quiet to fit."""


class WindowOutOfRange(NumericError):
    """Requested analysis window lies outside the simulated trace."""
