import pytest

from heatseries.graphs import (
    FiniteGraph,
    complete_graph,
    cycle_graph,
    integer_segment,
    path_graph,
    random_weighted_graph,
)


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def p10():
    return path_graph(10)


@pytest.fixture(scope="session")
def c100():
    return cycle_graph(100)


@pytest.fixture(scope="session")
def random50():
    return random_weighted_graph(50, seed=20240811)


@pytest.fixture(scope="session")
def zseg100():
    # 201-vertex window of the integer line, root 0
    return integer_segment(100)


def tree_radial_reduction(degree, length):
    """Weighted half-line carrying the radial part of the k-regular tree.

    Sphere sizes become the vertex measure and inter-sphere edge counts the
    weights, so iterates of radial data (e.g. a delta at the base vertex)
    coincide with the tree's values at the matching distance.
    """
    mu = {0: 1}
    for d in range(1, length + 1):
        mu[d] = degree * (degree - 1) ** (d - 1)
    edges = [(d, d + 1, degree * (degree - 1) ** d) for d in range(length)]
    return FiniteGraph(mu, edges, 0)
