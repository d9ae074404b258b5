import pytest

from idealspin.fields import construct_field
from idealspin.units import build_domain


@pytest.fixture(scope="session")
def shanks1():
    return construct_field("shanks_cubic", 1)


@pytest.fixture(scope="session")
def dom1(shanks1):
    return build_domain(shanks1)


@pytest.fixture(scope="session")
def quad5():
    return construct_field("real_quadratic", 5)


@pytest.fixture(scope="session")
def dom5(quad5):
    return build_domain(quad5)


@pytest.fixture(scope="session")
def shanks4():
    return construct_field("shanks_cubic", 4)


@pytest.fixture(scope="session")
def dom4(shanks4):
    return build_domain(shanks4)
