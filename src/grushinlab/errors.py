"""Exception hierarchy shared across the package.

A failure is its class and its message.  The command line front end maps
each class onto an exit code and prints the message, which says what
failed; no error carries anything more.  :class:`UsageError` is the one
bad-input class: a configuration, flag, argument or array outside its
domain raises it, and the command line exits with code 2.
"""


class GrushinError(Exception):
    """Base class for all package-specific errors."""


class UsageError(GrushinError, ValueError):
    """A precondition on user-supplied configuration, arguments or arrays
    is violated (e.g. a launch point with x0 <= 0, or a wavefunction with
    non-finite samples)."""


class NumericError(GrushinError, RuntimeError):
    """A numerical routine failed (an ODE solve that stopped, a grid that
    resolves nothing, a non-finite output, an outer wall the wave packet
    reached); the message says which, e.g. the launch angle of a geodesic
    half or a fan's reference orbit."""


class InconclusiveClassification(GrushinError):
    """The endpoint classification routes disagree; no verdict is issued."""
