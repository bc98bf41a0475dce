"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can map
failures to exit codes and JSON error records without string matching.
"""


class CopcleanError(Exception):
    code = "ERROR"


class BadParamError(CopcleanError, ValueError):
    code = "BAD_PARAM"


class VertexRangeError(CopcleanError, ValueError):
    code = "VERTEX_OUT_OF_RANGE"


class IllegalMoveError(CopcleanError, ValueError):
    code = "ILLEGAL_MOVE"


class UnsupportedSizeError(CopcleanError, ValueError):
    code = "UNSUPPORTED_SIZE"


class Graph6Error(CopcleanError, ValueError):
    """Malformed graph6 input; ``code`` is INVALID_CHAR or TRUNCATED."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class TooLargeError(CopcleanError, RuntimeError):
    """A search exceeded its state budget.

    ``partial`` holds whatever certified partial result the solver had
    (e.g. a lower bound on the clean count); never a silently truncated
    answer.
    """

    code = "TOO_LARGE"

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)


class ConvergenceError(CopcleanError, RuntimeError):
    code = "NO_CONVERGENCE"

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)
