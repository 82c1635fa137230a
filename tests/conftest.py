"""The verify table's quick rows at seed 1, each run once per session and
shared by the tests that read a row's verdict."""

import functools

import pytest

from srswor import suite


@pytest.fixture(scope="session")
def quick_seed1():
    """The records of a quick row at seed 1, by row name; a row runs when a
    test first asks for it."""
    rows = {name: (scale[0], check) for name, scale, check in suite._checks() if scale[0]}
    return functools.cache(lambda name: suite.run_row(name, rows[name][1], rows[name][0], 1, 0.001))


@pytest.fixture
def quick_law(quick_seed1):
    """Asserts that a quick row passed at seed 1: all its records, or the
    one named label of a row that reports several."""
    def check(name, label=None):
        records = [r for r in quick_seed1(name) if label in (None, r.name)]
        assert records and all(r.passed for r in records), records
    return check
