import pytest

from gorenstein.census import CensusBounds, enumerate_census


@pytest.fixture(scope="session")
def census_small():
    """Census at (4, 6, 3): 18 graphs, cheap enough for quadratic tests."""
    return list(enumerate_census(CensusBounds(4, 6, 3)))


@pytest.fixture(scope="session")
def census_full():
    """Census at the acceptance bounds (5, 8, 4): 106 graphs."""
    return list(enumerate_census(CensusBounds(5, 8, 4)))


@pytest.fixture(scope="session")
def census_default():
    """Census at the CLI's default bounds (6, 10, 5): 983 graphs."""
    return list(enumerate_census(CensusBounds(6, 10, 5)))


@pytest.fixture(scope="session")
def census_frontier():
    """Census at (7, 10, 4): 1,232 graphs, the largest census tier-1 enumerates."""
    graphs = list(enumerate_census(CensusBounds(7, 10, 4)))
    assert len(graphs) == 1232
    return graphs
