"""Shared exception type for invariant violations on user-supplied data,
and the cut repr that quotes such data in a message."""
from __future__ import annotations


class ValidationError(ValueError):
    """Input data violates a documented invariant.

    Carries the full list of problems so callers (in particular the ``check``
    command) can report every violation, each naming the offending id.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _shown(value, limit: int = 80, quote=repr) -> str:
    """quote(value), by default its repr, cut to at most limit characters."""
    text = quote(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
