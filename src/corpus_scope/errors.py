"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from CorpusScopeError so callers can
catch one base class. The CLI maps subclasses onto exit codes: input and
configuration problems exit 2, an empty comparison subset exits 3, and any
other stage failure exits 1.
"""

from __future__ import annotations


class CorpusScopeError(Exception):
    """Base class for all toolkit errors."""


class InputError(CorpusScopeError):
    """An input path is missing, unreadable, or not decodable."""


class SchemaError(InputError):
    """A record stream is structurally unusable (e.g. missing header columns)."""


class ConfigError(CorpusScopeError):
    """A configuration value or file is invalid."""


class EmptyCorpusError(CorpusScopeError):
    """An operation that needs at least one document received none."""


class EmptyResultError(CorpusScopeError):
    """A filter or partition produced an empty subset where one is required."""


class InsufficientDataError(CorpusScopeError):
    """Too few points to fit the requested model."""


class ExtrapolationError(CorpusScopeError):
    """A forecast year lies outside the trusted window around the fitted range."""


class DegenerateMarginError(CorpusScopeError):
    """A contingency table has a zero row or column margin."""


class ConvergenceError(CorpusScopeError):
    """An iterative solver exhausted its iteration budget before converging."""


class SimplexError(CorpusScopeError):
    """A probability vector is off the simplex beyond tolerance."""


class DomainError(CorpusScopeError):
    """A numeric parameter lies outside its mathematical domain."""


class NotFoundError(CorpusScopeError):
    """A requested identifier does not exist in the fitted model."""


class StageError(CorpusScopeError):
    """A pipeline stage failed; carries the stage name and partial report."""

    def __init__(self, stage: str, cause: Exception, report=None):
        # a bare MemoryError has no message
        super().__init__(f"stage '{stage}' failed: {str(cause) or type(cause).__name__}")
        self.stage = stage
        self.cause = cause
        self.report = report
