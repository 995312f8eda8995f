"""Pytest configuration: keeps the tests directory importable for helpers.

Every package module is loaded before collection.  Hypothesis draws examples
partly from the literal constants of the modules loaded at the time, so a
property test then sees the same examples whichever test files are selected.
"""

import incontext.cli  # noqa: F401
