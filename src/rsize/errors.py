"""The one error a caller can fix by changing the request."""


class RequestError(ValueError):
    """An unusable request: malformed input, a violated hypothesis, or a size past a cap.

    Raised where a value can come from the request itself -- flags, files,
    the environment, and the arguments of public functions.  Checks on
    objects the package builds (verdicts, colorings, witnesses) raise plain
    ValueError, so a broken one reads as a fault rather than as bad input.
    """


def _check_nt(n: int, t: int, n_min: int = 2) -> None:
    """Refuse a clique order below `n_min` or a stripe count below 1."""
    if n < n_min:
        raise RequestError(f"need n >= {n_min}, got n={n}")
    if t < 1:
        raise RequestError(f"need t >= 1, got t={t}")
