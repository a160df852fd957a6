"""Exception hierarchy shared across the package.

The command line front end maps these onto exit codes, so raising the
right class matters more than the message wording.  :class:`UsageError`
is the one bad-input class: a configuration, flag or argument outside its
domain raises it, and the command line exits with code 2.
"""


class GrushinError(Exception):
    """Base class for all package-specific errors."""


class UsageError(GrushinError, ValueError):
    """A precondition on user-supplied configuration or arguments is
    violated (e.g. a launch point with x0 <= 0)."""


class DataError(GrushinError, ValueError):
    """Input arrays contain non-finite or otherwise unusable samples."""


class NumericError(GrushinError, RuntimeError):
    """A numerical routine failed (linear solve breakdown, etc.)."""


class IntegrationError(NumericError):
    """ODE integration failed; carries the last good state reached."""

    def __init__(self, message, last_time=None, last_state=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


class InconclusiveClassification(GrushinError):
    """The endpoint classification routes disagree; no verdict is issued."""


class ProtocolError(GrushinError, RuntimeError):
    """A fixed experiment protocol detected self-inconsistency (e.g. the
    outer wall of a truncated grid was reached by the wave packet)."""
