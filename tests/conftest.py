import os

import pytest

from nsg import NumericalSemigroup


def pytest_collection_modifyitems(config, items):
    """Skip tests marked ``stretch`` unless NSG_STRETCH=1."""
    if os.environ.get("NSG_STRETCH") == "1":
        return
    skip = pytest.mark.skip(reason="long sweep; run with NSG_STRETCH=1")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def s469():
    return NumericalSemigroup(4, 6, 9)


@pytest.fixture(scope="session")
def s357():
    return NumericalSemigroup(3, 5, 7)


@pytest.fixture(scope="session")
def s456():
    return NumericalSemigroup(4, 5, 6)


@pytest.fixture(scope="session")
def five_gen():
    return NumericalSemigroup(10, 15, 16, 17, 19)


@pytest.fixture(scope="session")
def glued():
    return NumericalSemigroup(8, 12, 18, 25)


@pytest.fixture(scope="session")
def naturals():
    return NumericalSemigroup(1)
