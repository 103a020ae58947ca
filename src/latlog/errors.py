"""Exception hierarchy shared across the package."""


class LatlogError(Exception):
    """Base class for every error this package raises deliberately.

    `kind` names the error in a JSON report, and `exit_code` is the
    command line's exit status for it; subclasses inherit both.
    """

    kind, exit_code = "internal", 4


class ParseError(LatlogError):
    """Malformed surface syntax or an ill-formed program."""

    kind, exit_code = "parse", 3

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{where}")


class UnsupportedModeError(ParseError):
    """Table mode whose meaning depends on clause order (first/last/sum)."""

    kind = "unsupported-mode"


class RangeRestrictionError(ParseError):
    """A variable is not bound by the time it is needed."""

    kind = "range-restriction"


class ArityError(ParseError):
    """A predicate is used with inconsistent arities."""

    kind = "arity"


class LatticeError(LatlogError):
    """Base class for errors in lattice construction or use."""

    kind, exit_code = "lattice", 4


class JoinUndefinedError(LatticeError):
    kind = "join-undefined"

    def __init__(self, relation, x, y):
        self.relation = relation
        self.x = x
        self.y = y
        super().__init__(f"join {relation} is undefined on ({x}, {y})")


class LatticeLawViolationError(LatticeError):
    """A user-supplied join or order relation breaks a semilattice law."""

    kind = "lattice-law"


class DomainError(LatticeError):
    """A term falls outside the value domain of its lattice."""

    kind = "domain"


class ArithmeticTypeError(LatlogError):
    """An arithmetic builtin was applied to a non-integer operand."""

    kind, exit_code = "arithmetic-type", 3


class InternalInconsistencyError(LatlogError):
    """Two internally-equivalent computations disagreed; an implementation bug."""
