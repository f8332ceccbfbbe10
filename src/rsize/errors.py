"""Every exception type rsize raises, and the integer checks on requests.

The types live here, apart from the code that raises them, so a caller
can catch any of them without importing the search layers: the command
line loads `graphs`, `arrowing` and `decolor` only for the subcommands
that run them.  Those modules import their exceptions from here, so
`rsize.graphs.Graph6Error is rsize.errors.Graph6Error`, and likewise for
the others.
"""

# each type with the exit code the command line gives it
__all__ = [
    "RequestError",  # 2
    "CapacityError",  # 2
    "Graph6Error",  # 2, with the byte offset
    "HypergraphFormatError",  # 2, with the line number
    "HypothesisError",  # 2
    "UndecidedError",  # 3
    "CertificationError",  # 4
]


class RequestError(ValueError):
    """An unusable request: malformed input, a violated hypothesis, or a size past a cap.

    Raised where a value can come from the request itself -- flags, files,
    the environment, and the arguments of public functions.  Checks on
    objects the package builds (verdicts, colorings, witnesses) raise plain
    ValueError, so a broken one reads as a fault rather than as bad input.
    """


class CapacityError(RequestError):
    """Instance exceeds the fixed small-scale caps."""


class Graph6Error(RequestError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class HypergraphFormatError(RequestError):
    """Malformed hypergraph text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class HypothesisError(RequestError):
    """The input graph has too many edges for the requested guarantee."""


class UndecidedError(RuntimeError):
    """The host exceeds the search budget: no verdict is offered."""


class CertificationError(RuntimeError):
    """A certificate rsize built failed its independent re-check: a defect, not an input error."""


def _check_int(name: str, value: object, least: int) -> None:
    """Refuse a `value` that is not a plain int, or is below `least`."""
    # bool is an int subclass: True would pass as 1
    if type(value) is not int:
        raise RequestError(f"{name} must be an integer, got {name}={value!r}")
    if value < least:
        raise RequestError(f"need {name} >= {least}, got {name}={value}")


def _check_nt(n: int, t: int, n_min: int = 2) -> None:
    """Refuse an `n` or `t` that is not a plain int, an `n` below `n_min`, or a `t` below 1."""
    _check_int("n", n, n_min)
    _check_int("t", t, 1)
