"""Exception hierarchy shared by all rayspace modules.

The CLI maps these onto exit-code classes: parse problems (bad input text
or an invalid graph description) exit 2, violated preconditions exit 3,
resource caps exit 4.  A bare ``RayspaceError`` marks a failed internal
invariant; the CLI reports it, like any other unexpected exception, as an
internal error with exit 5.
"""

from __future__ import annotations


class RayspaceError(Exception):
    """Base class for every error raised by this package."""


class ParseError(RayspaceError):
    """Malformed input text (graph file, set literal, region literal, wedge expression).

    ``position`` is a human-readable location such as ``"line 3"`` or
    ``"atom 2"`` when one is known.
    """

    def __init__(self, message: str, position: str | None = None):
        self.position = position
        if position:
            message = f"{message} (at {position})"
        super().__init__(message)


class InvalidGraphError(RayspaceError):
    """Graph description violates a structural invariant (disconnected, duplicate id, ...)."""


class PreconditionError(RayspaceError):
    """An operation was called outside its stated domain (bad point, bad t, bound violated)."""


class CapExceededError(RayspaceError):
    """A brute-force enumeration or a wedge model exceeded its hard size cap."""
