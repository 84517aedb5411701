"""Exception types shared across the package.

Every error raised by the public API derives from PiezobeamError, so callers
(notably the CLI) can map failures onto exit codes without string matching.
"""


class PiezobeamError(Exception):
    """Base class for all package errors."""


# --- model definition -------------------------------------------------------

class InvalidParameter(PiezobeamError):
    """A model parameter fails a validity check; key names it."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


class NonPositiveParameter(InvalidParameter):
    """A material or geometry parameter that must be positive is not."""


class InvalidGeometry(InvalidParameter):
    """Beam/patch geometry is inconsistent (e.g. patch outside the beam)."""


class MissingPatchMaterial(PiezobeamError):
    """A patch variant was requested without patch material parameters."""


class IllegalRegime(PiezobeamError):
    """Variant, regime and voltage data do not fit together."""


class FieldShapeMismatch(PiezobeamError):
    """Nodal field arrays do not match the degree-of-freedom layout."""


class OutOfDomain(PiezobeamError):
    """A pointwise evaluation was requested outside the beam domain."""


# --- meshing / assembly -----------------------------------------------------

class TooFewElements(PiezobeamError):
    """Element count below the minimum for the requested variant."""


class MeshSpecMismatch(PiezobeamError):
    """Mesh was built for a different geometry than the one supplied."""


class UnknownBc(PiezobeamError):
    """Unsupported mechanical boundary condition identifier."""


class SingularElectricBlock(PiezobeamError):
    """Charge-charge stiffness block is singular after grounding."""


# --- linear algebra / time stepping ----------------------------------------

class NotPositiveDefinite(PiezobeamError):
    """Matrix handed to the SPD solver is not positive definite."""


class SingularStepMatrix(PiezobeamError):
    """Implicit midpoint step matrix M + (dt^2/4) K is not factorizable."""


class EnergyImbalance(PiezobeamError):
    """A run's energy change misses the injected work by more than round-off."""


class ConvergenceFailure(PiezobeamError):
    """Eigenvalue solve did not converge, or found no gap at the zero modes."""


class InsufficientMeshes(PiezobeamError):
    """A convergence study needs at least three mesh resolutions."""


# --- configuration ----------------------------------------------------------

class ConfigError(PiezobeamError):
    """Configuration file could not be parsed or validated.

    Carries a list of (line_number, message) pairs; line_number may be 0
    when the error is not tied to a specific line.
    """

    def __init__(self, issues):
        if isinstance(issues, str):
            issues = [(0, issues)]
        self.issues = list(issues)
        text = "; ".join(
            f"line {ln}: {msg}" if ln else msg for ln, msg in self.issues
        )
        super().__init__(text)


class ParseError(ConfigError):
    """Syntactically malformed configuration text."""


class UnknownKey(ConfigError):
    """Configuration contains a key or section this package does not define."""


class UnitViolation(ConfigError):
    """Configuration value fails a physical validity check."""
