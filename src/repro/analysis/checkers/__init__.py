"""Checker registry for ``repro lint``.

Each checker module exposes ``CHECKER_ID`` and ``check(project) ->
list[Finding]``. Order here is presentation order; findings are re-sorted
globally before reporting, so it carries no semantics.
"""

from __future__ import annotations

from . import cache_key, determinism, slots

#: id -> check function, in registration order.
CHECKERS = {
    determinism.CHECKER_ID: determinism.check,
    cache_key.CHECKER_ID: cache_key.check,
    slots.CHECKER_ID: slots.check,
}

__all__ = ["CHECKERS", "cache_key", "determinism", "slots"]
