"""The committed mutation list stays applicable: every snippet occurs exactly
once in its file, and every test it names exists.  Running the mutants
themselves is ``python tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_and_its_tests_exist(mutant):
    text = (SRC / "incontext" / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text()
        for kind, name in zip(["class"] * (len(names) - 1) + ["def"], names):
            assert re.search(rf"^\s*{kind} {name}\b", source, re.MULTILINE), node
