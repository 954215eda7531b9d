"""Each worked example from the selftest table, as its own pytest case."""

import pytest

from mindec.selftest import trivial_cases

_CASES = trivial_cases()


def test_table_is_populated():
    names = [name for name, _ in _CASES]
    assert len(names) == len(set(names)), "duplicate case names"
    assert len(names) >= 72


@pytest.mark.parametrize("name,fn", _CASES, ids=[name for name, _ in _CASES])
def test_worked_example(name, fn):
    fn()
