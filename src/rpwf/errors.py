"""Shared validation helpers: the exception type and read-only array fields."""

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition.

    ``field`` names the offending parameter so front ends (e.g. the CLI)
    can point at the flag that caused the rejection.  It pickles, so an
    error raised in a worker process reaches the caller intact.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message

    def __reduce__(self):
        return type(self), (self.field, self.reason)


def freeze_arrays(obj, *names: str, dtype=float) -> list[np.ndarray]:
    """Set each named field of a frozen dataclass to a read-only ``dtype`` copy of itself; returns the copies."""
    arrays = [np.array(getattr(obj, name), dtype=dtype) for name in names]
    for name, a in zip(names, arrays):
        a.setflags(write=False)
        object.__setattr__(obj, name, a)
    return arrays
