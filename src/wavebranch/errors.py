"""Exception types shared across the package.

Every numerical failure mode raised by a module maps to one of these, so the
CLI can translate any of them into a diagnostic message and exit code 1.
"""


class WavebranchError(Exception):
    """Base class for all package errors."""


class DomainError(WavebranchError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularIntegrandError(WavebranchError):
    """A depth/profile quadrature was requested at or below theta0."""


class BelowCriticalError(WavebranchError):
    """A Bernoulli constant at or below R_c was passed where R > R_c is required."""


class NoRootError(WavebranchError):
    """A requested stream root does not exist (e.g. subcritical with R >= R_0)."""


class UnboundedSearchError(WavebranchError):
    """No interior minimum of the Bernoulli function was found within the scan window."""


class SurfaceStagnationError(WavebranchError):
    """The uniform stream has vanishing surface velocity (theta^2 <= 2*Omega(1))."""


class StagnationBreachError(WavebranchError):
    """A strip field violates h_p > 0 (loss of unidirectionality)."""


class NonConvergenceError(WavebranchError):
    """An iterative solver exhausted its iteration budget."""


class QuadratureError(WavebranchError):
    """Adaptive quadrature reached its subdivision depth cap unresolved."""


class StalledError(WavebranchError):
    """Newton damping underflowed without making progress."""


class NumericalError(WavebranchError):
    """An eigenvalue or linear-algebra backend failed to converge."""


class DegenerateTangentError(WavebranchError):
    """Two branch points are too close to define a secant direction."""


class BranchStallError(WavebranchError):
    """Continuation failed repeatedly at the minimal step size.

    Carries the last accepted point so the caller can checkpoint it.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class IllPosedProjectorError(WavebranchError):
    """Eigen-normalization <v, z> is numerically degenerate."""


class OutsideChartError(WavebranchError):
    """The complement equation did not converge: (s, lambda) left the local chart."""


class ResolutionError(WavebranchError):
    """No zero curve was found although the crossing order is odd (lattice too coarse)."""


class NoSecondaryBranchError(WavebranchError):
    """All reduced-map zeros at the current resolution lie on the trivial branch."""


class PreconditionError(WavebranchError):
    """An operation was called on inputs violating its documented precondition."""


class CheckpointFormatError(WavebranchError):
    """A checkpoint file is malformed or fails its round-trip contract."""
