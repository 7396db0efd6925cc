"""Exception types shared across the package."""

from __future__ import annotations

import contextlib
import threading
import time

__all__ = [
    "CadError",
    "ParseError",
    "JsonSchemaError",
    "NotWellOrientedError",
    "OrderingCapError",
    "DesignationCapError",
    "ComputeTimeout",
]


class CadError(Exception):
    """Base class for computation failures."""


class ParseError(CadError):
    """Input text could not be parsed; carries a human-readable position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{where}")


class JsonSchemaError(ParseError):
    """Native JSON problem file violates the schema; carries a JSON pointer."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NotWellOrientedError(CadError):
    """A projection polynomial vanished identically over a positive-dimensional cell."""


class OrderingCapError(CadError):
    """Admissible-ordering enumeration would exceed the hard cap."""


class DesignationCapError(CadError):
    """Equational-constraint designation enumeration would exceed the cap."""


class ComputeTimeout(CadError):
    """Cooperative deadline expired inside a long-running computation."""


class Deadline:
    """Cooperative time budget checked at safe points in heavy loops."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = expires_at

    @classmethod
    def after_ms(cls, ms: float) -> Deadline:
        """``ms`` milliseconds from now; a nan budget would never expire, so it is refused."""
        if not ms >= 0:
            raise ValueError(f"a time budget must be a non-negative number of ms, got {ms!r}")
        return cls(time.monotonic() + ms / 1000.0)

    def check(self) -> None:
        if time.monotonic() > self.expires_at:
            raise ComputeTimeout("computation exceeded its time budget")


_ACTIVE = threading.local()


def checkpoint() -> None:
    """Honor the innermost scoped deadline, if any (cheap no-op otherwise)."""
    d = getattr(_ACTIVE, "deadline", None)
    if d is not None:
        d.check()


@contextlib.contextmanager
def scoped_deadline(deadline: Deadline | None):
    """Make a deadline visible to checkpoint() for the current thread."""
    if deadline is None:
        yield
        return
    previous = getattr(_ACTIVE, "deadline", None)
    _ACTIVE.deadline = deadline
    try:
        yield
    finally:
        _ACTIVE.deadline = previous
