"""Shared test setup.

``mindec.decompose.system_of`` keeps the last covariant system built
in a one-entry memo keyed by the minimal polynomial.  Clearing it
before every test makes each test see a cold build, whatever ran
before it, so a count of factorizations or builds, or a sabotaged
build, measures that test alone.
"""

import pytest

from mindec import decompose


@pytest.fixture(autouse=True)
def _cold_covariant_memo():
    decompose._system_of_min_poly.cache_clear()
