"""Error types shared across the package."""


class NotObservable(ValueError):
    """Raised when an output-derivative stack does not determine the state
    uniquely because the observability matrix is singular to working
    precision."""


class ProblemFileError(ValueError):
    """Raised on malformed problem files; the message names the offending
    field."""
