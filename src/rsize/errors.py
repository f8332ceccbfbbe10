"""The one error a caller can fix by changing the request."""


class RequestError(ValueError):
    """An unusable request: malformed input, a violated hypothesis, or a size past a cap.

    Raised where a value can come from the request itself -- flags, files,
    the environment, and the arguments of public functions.  Checks on
    objects the package builds (verdicts, colorings, witnesses) raise plain
    ValueError, so a broken one reads as a fault rather than as bad input.
    """


def _check_nt(n: int, t: int, n_min: int = 2) -> None:
    """Refuse an `n` or `t` that is not a plain int, an `n` below `n_min`, or a `t` below 1."""
    for name, value in (("n", n), ("t", t)):
        # bool is an int subclass: True would pass as 1
        if type(value) is not int:
            raise RequestError(f"{name} must be an integer, got {name}={value!r}")
    if n < n_min:
        raise RequestError(f"need n >= {n_min}, got n={n}")
    if t < 1:
        raise RequestError(f"need t >= 1, got t={t}")
