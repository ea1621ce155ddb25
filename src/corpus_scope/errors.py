"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from CorpusScopeError so callers can
catch one base class, and each class carries the CLI's exit code for it:
2 for an input or configuration error, 3 for an empty filter result, and 1
for anything else, a stage's failure taking its cause's code.
"""

from __future__ import annotations


class CorpusScopeError(Exception):
    """Base class for all toolkit errors, raised itself when no narrower one
    fits, as when an iterative solver exhausts its budget unconverged."""

    exit_code = 1


class InputError(CorpusScopeError):
    """The input is unusable: a path is missing or unreadable, its bytes do
    not decode, its records lack a required column or its format is
    unknown, or it holds no document or no token to work on."""

    exit_code = 2


class ConfigError(CorpusScopeError):
    """A configuration value or file is invalid, or an argument lies outside
    its domain (a parameter, a probability vector, a forecast year, an id
    the fitted model lacks, a table with an empty margin)."""

    exit_code = 2


class EmptyResultError(CorpusScopeError):
    """A filter or partition produced an empty subset where one is required."""

    exit_code = 3


class InsufficientDataError(CorpusScopeError):
    """Too few points to fit the requested model."""


class StageError(CorpusScopeError):
    """A pipeline stage failed; carries the stage name, its cause's exit
    code (1 for a MemoryError or OSError) and the partial report."""

    def __init__(self, stage: str, cause: Exception, report):
        # a bare MemoryError has no message
        super().__init__(f"stage '{stage}' failed: {str(cause) or type(cause).__name__}")
        self.stage = stage
        self.cause = cause
        self.report = report
        self.exit_code = getattr(cause, "exit_code", 1)
