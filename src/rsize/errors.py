"""The one error a caller can fix by changing the request."""


class RequestError(ValueError):
    """An unusable request: malformed input, a violated hypothesis, or a size past a cap.

    Raised where a value can come from the request itself -- flags, files,
    the environment, and the arguments of public functions.  Checks on
    objects the package builds (verdicts, colorings, witnesses) raise plain
    ValueError, so a broken one reads as a fault rather than as bad input.
    """
