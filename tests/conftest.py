from __future__ import annotations

import pytest

from twoqfa.machine import TwoWayQfaSpec
from twoqfa.machines import build_m1, build_m2, build_m3, qft_matrix


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


@pytest.fixture(scope="session")
def fourier5():
    """Five states whose every matrix is the dense 5-point Fourier matrix, so it runs on the matmul."""
    return TwoWayQfaSpec(
        states=("s0", "s1", "s2", "acc", "rej"),
        input_alphabet=("a",),
        initial_state="s0",
        accept_states=frozenset({"acc"}),
        reject_states=frozenset({"rej"}),
        symbol_unitaries={s: qft_matrix(5) for s in ("#", "a", "$")},
        head_fn={"s0": 1, "s1": -1, "s2": 0, "acc": 0, "rej": 0},
    )
