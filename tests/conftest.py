from __future__ import annotations

import pytest

from ars import is_nonempty
from ars.oracle import enumerate_class
from ars.partition import clear_kept_classes

from helpers import cover_profile, equal_weight_pairs


@pytest.fixture
def cold_classes():
    """Every layer's kept class emptied before the test and after it, so
    what the test keeps, patched or not, reaches no other test."""
    clear_kept_classes()
    yield
    clear_kept_classes()


@pytest.fixture(scope="session")
def small_pairs():
    """All ordered equal-weight partition pairs with m,n <= 4, weight <= 8."""
    return equal_weight_pairs()


@pytest.fixture(scope="session")
def small_classes(small_pairs):
    """pair -> tuple of every class member, for the nonempty pairs."""
    return {
        (r, s): tuple(enumerate_class(r, s))
        for r, s in small_pairs
        if is_nonempty(r, s)
    }


@pytest.fixture(scope="session")
def small_profiles(small_classes):
    """pair -> per-matrix prefix-cover profiles (see helpers.cover_profile)."""
    return {
        pair: tuple(cover_profile(a) for a in mats)
        for pair, mats in small_classes.items()
    }
