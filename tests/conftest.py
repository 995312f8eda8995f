"""Pytest configuration: keeps the tests directory importable for helpers.

Every package module is loaded before collection.  Hypothesis draws examples
partly from the literal constants of the modules loaded at the time, so a
property test then sees the same examples whichever test files are selected.

Hypothesis reports a failing example through ``hypothesis.extra._patching``,
which imports libcst; libcst raises a DeprecationWarning on import, which
``filterwarnings = ["error"]`` would turn into an internal error that ends the
session.  It is imported here once, with that warning ignored.
"""

import warnings

import incontext.cli  # noqa: F401

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
