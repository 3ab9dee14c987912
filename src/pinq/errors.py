"""Exception types shared across the package."""


class PinqError(Exception):
    """Base class for all package-specific errors."""


class ParseError(PinqError):
    """Malformed input; carries the offending line number, or None when no
    one line is at fault (a command-line argument, a missing header, a JSON
    schema), and then the message has no line prefix."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class ResourceLimitError(PinqError):
    """Requested matrix or state exceeds the configured qubit ceiling."""


class UnsupportedTermError(PinqError):
    """A Hamiltonian term falls outside the set a reduction accepts."""


class PreconditionError(PinqError):
    """An operation's input contract is violated (bad bounds, impure state, ...)."""


class ConvergenceError(PinqError):
    """Iterative eigensolver failed to converge within its iteration budget."""


class SurvivalUnderflowError(PinqError):
    """Post-selected trajectory lost essentially all norm; result is meaningless."""


class PathConstructionError(PinqError):
    """A requested ground-space path could not be realized within tolerance."""
