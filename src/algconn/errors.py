"""Exception types shared across the package."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph."""


class CompleteGraphError(ValueError):
    """Raised when a bound or chain is undefined for complete graphs."""


class Graph6Error(ValueError):
    """Malformed graph6 input; the message carries the byte/line position."""

    def __init__(self, message, offset=None, line=None):
        self.reason = message
        self.offset = offset
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class NumericalError(RuntimeError):
    """The eigensolver failed to meet its accuracy contract."""


class CounterexampleError(RuntimeError):
    """A numeric check contradicted one of the verified inequalities.

    The CLI maps this to exit code 1; the offending graph is named in the
    message whenever one exists.
    """
