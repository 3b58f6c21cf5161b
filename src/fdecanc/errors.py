"""Exception types shared across the package."""


class FdecancError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(FdecancError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateResponseError(FdecancError):
    """A response contains zero values where phase/delay is required."""


class InsufficientGridError(FdecancError):
    """The frequency grid is too small for the requested operation."""


class SingularNetworkError(FdecancError):
    """The two-port cascade is singular (C entry vanishes) at some frequency."""

    def __init__(self, freq_hz):
        self.freq_hz = freq_hz
        super().__init__(f"two-port cascade is singular at {freq_hz:.6g} Hz")


class ChannelFormatError(FdecancError):
    """A channel file is malformed; ``line`` is 1-based when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SolverFailureError(FdecancError):
    """Every optimization restart failed to produce a finite objective."""


class LatticeTooLargeError(FdecancError):
    """The exhaustive-search lattice exceeds the hard size cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"lattice has {size} configurations, exceeding cap {cap}")


class UndefinedGainError(FdecancError):
    """A throughput gain or SINR is undefined: the gain over a zero or an
    infinite half-duplex baseline rate, or the SINR of an infinite gamma
    under infinite interference."""
