"""Shared fixtures."""

import pytest

from quatbraid.image_group import conjugation_action


@pytest.fixture(autouse=True)
def fresh_conjugation_tables():
    # conjugation_action caches its tables per (i, n); a test that corrupts the
    # T tables it reads must build them afresh, and must not leave them behind
    conjugation_action.cache_clear()
    yield
    conjugation_action.cache_clear()
