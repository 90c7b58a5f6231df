import sys
from pathlib import Path

import pytest

# allow running the suite from a checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracles import eratosthenes_flags  # noqa: E402


@pytest.fixture(scope="session")
def table_10k():
    return eratosthenes_flags(10**4)


@pytest.fixture(scope="session")
def table_100k():
    return eratosthenes_flags(10**5)


@pytest.fixture(scope="session")
def table_1m():
    return eratosthenes_flags(10**6)
