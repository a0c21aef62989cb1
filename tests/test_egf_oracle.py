"""The counting DP held to an independent exact oracle, Ardila's exponential
formula (``egf_oracle``): on full classical arrangements up to 30
coordinates, far past brute-force point counts; on every distinct component
of the A6, B5, C5 and D5 ideals; on every component of the benchmark's
``classical-random`` pool; and on a seeded sample of components of 4 to 9
blocks from uniform A9, A10, B8 and D8 ideals, where the DP's pointing
prunes the most moves.  The oracle itself is first held to brute-force
point counts on small tuple sets."""

import pytest

from conftest import (
    classical_random_pool,
    component_tuples,
    full_tuples,
    multi_block_components,
)
from egf_oracle import coboundary, exchangeable_blocks, point_count
from idealtutte.exactpoly import BivariatePolynomial
from idealtutte.ffmethod import CountingModel, count_points_bruteforce
from idealtutte.ideals import enumerate_ideals
from idealtutte.rootsystems import root_poset, root_system_type


def _assert_dp_matches_oracle(m, tuples):
    """Returns the model."""
    want = BivariatePolynomial(coboundary(m, tuples), ("q", "t"))
    model = CountingModel(m, tuples)
    assert model.coboundary() == want, (m, tuples)
    return model


@pytest.mark.parametrize("m, tuples", [
    (1, []),
    (2, [(1, -2)]),
    (3, [(1, 0), (1, 2), (2, -3)]),
    (4, [(1, 2), (1, 3), (2, 4), (3, 4)]),
    (4, full_tuples("D", 4)),
    (4, full_tuples("B", 4)),
    (5, full_tuples("A", 5)),
    (5, [(1, 2), (1, -2), (1, 3), (2, 3), (3, 0), (4, 5), (4, -5), (1, 4)]),
])
def test_oracle_matches_brute_force_counts(m, tuples):
    n = point_count(m, tuples)
    for p in (3, 5, 7):
        profile = [0] * (len(tuples) + 1)
        for (dq, dt), c in n.items():
            profile[dt] += c * p ** dq
        assert profile == list(count_points_bruteforce(tuples, m, p).counts)


def test_oracle_blocks_are_the_exchangeable_coordinates():
    assert exchangeable_blocks(5, full_tuples("C", 5)) == [[1, 2, 3, 4, 5]]
    # 1 and 2 are tied to 3 alike, 4 and 5 to each other and nothing else
    assert exchangeable_blocks(5, [(1, 3), (2, 3), (4, 5)]) == [[1, 2], [3], [4, 5]]
    assert exchangeable_blocks(3, [(1, 2), (2, -3)]) == [[1], [2], [3]]


FULL = (
    [("A", n) for n in [*range(1, 13), 16, 20, 26, 30]]
    + [(f, n) for f in "BC" for n in [*range(2, 11), 16, 24, 30]]
    + [("D", n) for n in [*range(4, 11), 16, 24, 30]]
)


@pytest.mark.parametrize("family, n", FULL)
def test_full_arrangements_match_the_oracle(family, n):
    _assert_dp_matches_oracle(n, full_tuples(family, n))


def test_small_rank_components_match_the_oracle():
    distinct = set()
    for family, rank in [("A", 6), ("B", 5), ("C", 5), ("D", 5)]:
        poset = root_poset(root_system_type(family, rank))
        distinct.update(component_tuples(enumerate_ideals(poset)))
    assert len(distinct) == 607
    for m, tuples in sorted(distinct):
        _assert_dp_matches_oracle(m, tuples)


def test_benchmark_pool_components_match_the_oracle():
    ideals = classical_random_pool()
    components = component_tuples(ideals)
    assert len(ideals) == 44 and len(components) == 57
    # the (state, move) pairs the DP expands repeat exactly run to run
    expanded = sum(_assert_dp_matches_oracle(m, tuples).moves_expanded for m, tuples in components)
    assert expanded == 31910


def test_multi_block_components_match_the_oracle():
    components = multi_block_components()
    assert len(components) == 24
    for m, tuples in components:
        _assert_dp_matches_oracle(m, tuples)
