"""Shared error types for the verification pipeline."""


class DomainError(Exception):
    """Base of the package's errors: a sweep records one on its curve."""


class OracleError(DomainError, RuntimeError):
    """Hard failure of the exact graded oracle.

    Raised for cutoff violations, unstable truncation windows, graded
    containment violations, and disagreement between independent routes.
    These are never swallowed: a computation that cannot certify its own
    truncation must not return a number.
    """


class FormulaNotApplicable(DomainError, ValueError):
    """A closed-form length formula was invoked outside its hypotheses."""
