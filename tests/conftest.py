import pathlib

import pytest

from pcx import debranges, zerodata

DATA = pathlib.Path(__file__).resolve().parents[1] / "data" / "zeta_zeros_1e4.txt"


@pytest.fixture(scope="session")
def E():
    return debranges.build_E()


@pytest.fixture(scope="session")
def zeros_path():
    if not DATA.exists():
        pytest.fail(f"shipped dataset missing: {DATA}")
    return DATA


@pytest.fixture(scope="session")
def dataset(zeros_path):
    return zerodata.load_zeros(zeros_path)


@pytest.fixture(autouse=True)
def _empty_F_plan():
    """Every test starts with empirical_F's plan memo empty, so that none
    depends on the windows an earlier test left in it."""
    zerodata._memo = ()
