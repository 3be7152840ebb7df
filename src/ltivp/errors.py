"""Error types shared across the package."""


class NotStrictlyProper(ValueError):
    """Raised when a rational function with a polynomial part reaches
    partial-fraction expansion.  A nonempty polynomial part corresponds to an
    impulsive time-domain component, which the signal class cannot hold."""


class NotObservable(ValueError):
    """Raised when an output-derivative stack does not determine the state
    uniquely because the observability matrix is singular to working
    precision."""


class ProblemFileError(ValueError):
    """Raised on malformed problem files; the message names the offending
    field."""
