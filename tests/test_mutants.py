"""The table of the standing mutation suite (`mutants.py`) follows the
code: every snippet occurs exactly once in its file, and every test named
beside a mutant is defined, so a refactor that moves either fails here
within seconds instead of only when the suite runs."""

import os

import pytest

from mutants import HERE, MUTANTS, ROOT


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_snippet_occurs_once_and_its_tests_exist(name):
    path, snippet, _, tests = MUTANTS[name]
    with open(os.path.join(ROOT, "src", "chowfans", path)) as f:
        assert f.read().count(snippet) == 1
    for test in tests:
        filename, _, function = test.partition("::")
        with open(os.path.join(HERE, filename)) as f:
            assert not function or "def %s(" % function in f.read(), test
