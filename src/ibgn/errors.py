"""Exception types raised across the package.

Everything derives from :class:`IbgnError` so callers (and the CLI) can catch
library failures with a single except clause.  Errors that signal bad input
values also subclass ``ValueError``.
"""

from __future__ import annotations


class IbgnError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInterval(IbgnError, ValueError):
    """An interval has start >= end (zero or negative extent)."""


class OrderViolation(IbgnError, ValueError):
    """An interval pair or sequence is not in canonical order."""


class EmptyRelationSet(IbgnError, ValueError):
    """A relation-set operand that must be non-empty is empty."""


class EmptyConstraint(IbgnError, RuntimeError):
    """A derived interval-relation constraint came out empty."""


class Unrealizable(IbgnError, RuntimeError):
    """A network's relations admit no placement of its intervals on a timeline."""


class ConfigInvalid(IbgnError, ValueError):
    """A training configuration fails validation."""


class DomainError(IbgnError, ValueError):
    """A numeric argument lies outside a function's domain."""


class EmptyCorpus(IbgnError, ValueError):
    """An operation that needs at least one instance received none."""


class ParseError(IbgnError, ValueError):
    """A dataset file could not be parsed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InsufficientClassInstances(IbgnError, ValueError):
    """A class has too few instances for the requested fold count."""


class NoModels(IbgnError, ValueError):
    """Prediction was requested with an empty model collection."""


class BundleInvalid(IbgnError, ValueError):
    """A model bundle file has an unsupported schema version or the wrong shape."""


class UnknownClass(IbgnError, KeyError):
    """A class name is absent from a model bundle."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it
