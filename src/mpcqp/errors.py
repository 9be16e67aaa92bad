"""Exception types shared across the package.

Numerical failures inside a solver run are reported through status codes in
the solve statistics, never as exceptions; the exceptions below signal misuse
(bad dimensions, malformed data, unparsable files) or factorization-level
failures that the solver catches and turns into a retry or a status code.
"""


class MpcQpError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MpcQpError, ValueError):
    """Operands are not conformal."""


class InvalidDim(MpcQpError, ValueError):
    """A dimension record violates its invariants; carries the field when known."""

    def __init__(self, msg, field=None):
        super().__init__(msg)
        self.field = field


class UnknownField(MpcQpError, KeyError):
    """Field name not in the setter/getter catalog."""


class IndexOutOfRange(MpcQpError, IndexError):
    """Stage or node index outside the problem horizon."""


class InvalidConfig(MpcQpError, ValueError):
    """Benchmark or solver configuration rejected."""


class InvalidBlockSize(MpcQpError, ValueError):
    """Partial condensing block size out of range."""


class LinalgError(MpcQpError, RuntimeError):
    """Base class for dense kernel failures."""


class NotPositiveDefinite(LinalgError):
    """A Cholesky pivot fell at or below the configured threshold."""


class SingularFactor(LinalgError):
    """Triangular solve hit an exactly zero diagonal entry."""


class RankDeficient(LinalgError):
    """QR-based triangularization produced a negligible diagonal entry."""


class NonPositiveIterate(MpcQpError, ValueError):
    """Inequality multipliers or slacks are not strictly positive where required."""


class SingularSlackBlock(MpcQpError, RuntimeError):
    """Augmented soft-constraint diagonal is not positive during elimination."""


class FactorizationFailed(MpcQpError, RuntimeError):
    """KKT factorization failed; carries the stage/node index when applicable."""

    def __init__(self, msg, stage=None):
        super().__init__(msg)
        self.stage = stage


class CondenseError(MpcQpError, ValueError):
    """Condensing preconditions violated (e.g. free initial state with keep_x0=False)."""


class ClosedLoopFailed(MpcQpError, RuntimeError):
    """A closed-loop controller solve did not succeed; carries the step index."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


class ParseError(MpcQpError, ValueError):
    """QP/report file could not be parsed; carries a 1-based line number."""

    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


class VersionMismatch(ParseError):
    """File declares an unsupported format version."""
