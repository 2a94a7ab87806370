from __future__ import annotations

import pytest

from twoqfa.machines import build_m1, build_m2, build_m3


@pytest.fixture(scope="session")
def m1():
    return build_m1()


@pytest.fixture(scope="session")
def m2_2():
    return build_m2(2)


@pytest.fixture(scope="session")
def m2_5():
    return build_m2(5)


@pytest.fixture(scope="session")
def m2_10():
    return build_m2(10)


@pytest.fixture(scope="session")
def m3_2():
    return build_m3(2)


@pytest.fixture(scope="session")
def m3_5():
    return build_m3(5)


@pytest.fixture(scope="session")
def m3_10():
    return build_m3(10)


@pytest.fixture(scope="session")
def m2_20():
    return build_m2(20)


@pytest.fixture(scope="session")
def m3_20():
    return build_m3(20)


@pytest.fixture(scope="session")
def m2_50():
    return build_m2(50)


@pytest.fixture(scope="session")
def m3_50():
    return build_m3(50)


@pytest.fixture(scope="session")
def m2_100():
    return build_m2(100)


@pytest.fixture(scope="session")
def m3_100():
    return build_m3(100)
