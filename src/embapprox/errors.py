"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class EmbapproxError(Exception):
    """Base class for all package errors."""


class ParseError(EmbapproxError):
    """Instance file is syntactically malformed."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class DanglingIdError(ParseError):
    """Instance file references a vertex or edge that was never declared."""


class InvariantError(EmbapproxError):
    """A structural invariant of a graph or map is violated.

    `invariant` names the violated invariant so callers and tests can match on
    it without string-scraping the message.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


class PreconditionError(EmbapproxError):
    """An operation was called outside its stated precondition."""


class DerivePreconditionError(PreconditionError):
    """The derivative is undefined: some arc pair has transversally crossing images.

    Carries the offending pair so callers can distinguish a genuine
    transversal self-intersection (vertex-disjoint arcs) from the
    non-disjoint case that must be escalated.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class OracleBudgetExceeded(EmbapproxError):
    """The lift search hit its --max-lifts budget before reaching a verdict."""

    def __init__(self, lifts_examined: int):
        super().__init__(f"inconclusive after {lifts_examined} lifts")
        self.lifts_examined = lifts_examined
