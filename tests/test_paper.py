"""The paper's classical route held to production, on every ideal of the small
classical types.

The route: Algorithm P's blocks in the counting model, its coboundary counts
at odd primes, then Lagrange interpolation.  Production instead runs one
dynamic program over the automorphism blocks.  Algorithm P has no answer for
a type-D ideal whose complement is not an open diagram set; the refusals are
pinned here along with how often its blocks equal the automorphism blocks.
"""

import pytest

from idealtutte.errors import ConstraintError
from idealtutte.exactpoly import lagrange_interpolate
from idealtutte.ffmethod import CountingModel, coboundary_polynomial
from idealtutte.ideals import automorphism_blocks, complement, enumerate_ideals
from idealtutte.paper import partition_in_accordance
from idealtutte.rootsystems import root_poset, root_system_type

# every odd prime reduces the classical families correctly (test_crit3_minor_sets)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19)

# (ideals Algorithm P refuses, all ideals) per type-D rank
D_REFUSALS = {4: (15, 50), 5: (56, 182), 6: (210, 672)}

# (ideals whose Algorithm P blocks equal the automorphism blocks, all ideals)
SAME_PARTITION = {("A", 7): (1105, 1430), ("B", 6): (655, 924), ("C", 6): (738, 924)}


def _types(ranks):
    return [(family, rank) for family, rs in ranks for rank in rs]


def _algorithm_p(family, rank):
    """(ideal, complement, partition in accordance or None) for every ideal,
    None where Algorithm P refuses it."""
    for ideal in enumerate_ideals(root_poset(root_system_type(family, rank))):
        comp = complement(ideal)
        try:
            bp = partition_in_accordance(comp)
        except ConstraintError as exc:
            assert "not an open diagram set" in str(exc), (ideal, exc)
            bp = None
        yield ideal, comp, bp


def _check_refusals(family, rank, refused, total):
    if family == "D":
        assert (refused, total) == D_REFUSALS[rank]
    else:
        assert refused == 0


@pytest.mark.parametrize(
    "family, rank",
    _types((("A", range(2, 6)), ("B", range(2, 6)), ("C", range(2, 6)), ("D", range(4, 6)))),
    ids=str,
)
def test_paper_pipeline_equals_production(family, rank):
    refused = total = 0
    for ideal, comp, bp in _algorithm_p(family, rank):
        total += 1
        if bp is None:
            refused += 1
            continue
        model = CountingModel(ideal.rst.n_param, bp.hyperplanes, blocks=bp.blocks)
        primes = ODD_PRIMES[: model.rank + 1]
        cb = lagrange_interpolate([(p, model.coboundary_at_prime(p)) for p in primes])
        assert cb == coboundary_polynomial(ideal), ideal
    _check_refusals(family, rank, refused, total)


@pytest.mark.parametrize(
    "family, rank",
    _types((("A", range(2, 8)), ("B", range(2, 7)), ("C", range(2, 7)), ("D", range(4, 7)))),
    ids=str,
)
def test_algorithm_p_blocks_refine_the_automorphism_blocks(family, rank):
    refused = total = same = 0
    for ideal, comp, bp in _algorithm_p(family, rank):
        total += 1
        if bp is None:
            refused += 1
            continue
        classes = automorphism_blocks(ideal.rst.n_param, comp.tuple_set())
        owner = {x: k for k, cls in enumerate(classes) for x in cls}
        for blk in bp.blocks:
            assert len({owner[x] for x in blk}) == 1, (ideal, blk, classes)
        same += {frozenset(b) for b in bp.blocks} == {frozenset(c) for c in classes}
    _check_refusals(family, rank, refused, total)
    if (family, rank) in SAME_PARTITION:
        assert (same, total) == SAME_PARTITION[(family, rank)]
