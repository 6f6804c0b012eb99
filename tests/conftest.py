import pytest

from helpers import cyclic_instance
from randomfacet import (
    cube_encoding,
    edge_names,
    errata_instance,
    random_instance,
    validate_instance,
)


@pytest.fixture(scope="session")
def errata():
    return validate_instance(errata_instance())


@pytest.fixture(scope="session")
def enc(errata):
    return cube_encoding(errata)


@pytest.fixture(scope="session")
def names(errata):
    return edge_names(errata)


# shapes cycle so the pools cover single-vertex fans and small chains;
# the first pool stays at five edges or fewer so factorial enumeration
# over its facet sets is instant
_SMALL_SHAPES = [(1, 2), (2, 2), (1, 3), (1, 5), (2, 2)]
_MEDIUM_SHAPES = [(2, 2), (3, 2), (2, 3), (4, 2)]


@pytest.fixture(scope="session")
def small_pool():
    return [
        random_instance(*_SMALL_SHAPES[i % len(_SMALL_SHAPES)], cost_bound=9, seed=i)
        for i in range(50)
    ]


@pytest.fixture(scope="session")
def medium_pool():
    return [
        random_instance(*_MEDIUM_SHAPES[i % len(_MEDIUM_SHAPES)], cost_bound=9, seed=1000 + i)
        for i in range(200)
    ]


# back edges, self-loops and costs 0..3, so zero-cost cycles and ties
# are common; up to nine edges, so every subset can be walked
_CYCLIC_SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2), (1, 4), (3, 3), (4, 2)]


@pytest.fixture(scope="session")
def cyclic_pool():
    return [
        cyclic_instance(*_CYCLIC_SHAPES[i % len(_CYCLIC_SHAPES)], cost_bound=3, seed=2000 + i)
        for i in range(70)
    ]
