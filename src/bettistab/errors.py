"""Exception types for domain-level failures.

Library code raises subclasses of BettiStabError for anything a caller could
plausibly trigger with bad input; plain exceptions indicate bugs.
"""


_EXCERPT = 40


def excerpt(value) -> str:
    """How an error message shows an input value: its repr, or, when that is
    longer than 40 characters, the repr's first 40 characters and the length
    of the string, or of the repr for any other value, so that a message
    stays short whatever the input holds."""
    shown = repr(value)
    if len(shown) <= _EXCERPT:
        return shown
    if isinstance(value, str):
        return f"{shown[:_EXCERPT]}... ({len(value)} characters)"
    return f"{shown[:_EXCERPT]}... (repr of {len(shown)} characters)"


class BettiStabError(Exception):
    """Base class for all domain errors raised by this package."""


class InputError(BettiStabError):
    """Malformed input: parse failures, bad arguments, invalid data files."""


class NotEquigeneratedError(BettiStabError):
    """An operation requiring equal generator degrees got a mixed ideal."""


class ConeError(BettiStabError):
    """A diagram is not a nonnegative combination of pure diagrams."""


class StabilityError(BettiStabError):
    """Template matching, window detection, or reference comparison failed."""
