import pytest

from conftest import packaged_schema
from idealtutte.errors import ConstraintError, UnsupportedTypeError
from idealtutte.rootsystems import (
    FAMILIES,
    RootSystemType,
    hyperplane_tuple,
    linear_order_key,
    root_poset,
    root_system_type,
    simple_reflections,
    simple_system_ambient2,
    sort_key,
)

COUNTS = [
    ("A", 3, 6),
    ("A", 12, 78),
    ("B", 2, 4),
    ("B", 6, 36),
    ("C", 3, 9),
    ("C", 6, 36),
    ("D", 4, 12),
    ("D", 6, 30),
    ("G2", 2, 6),
    ("F4", 4, 24),
    ("E6", 6, 36),
]


@pytest.mark.parametrize("family,rank,count", COUNTS)
def test_positive_root_counts(family, rank, count):
    roots = root_poset(root_system_type(family, rank)).roots
    assert len(roots) == count
    assert len({r.simple_coords for r in roots}) == count
    assert all(min(r.simple_coords) >= 0 and r.height >= 1 for r in roots)


DOMINANCE = (
    [("A", r) for r in range(1, 16)]
    + [(f, r) for f in "BC" for r in range(2, 13)]
    + [("D", r) for r in range(4, 13)]
    + [("G2", 2), ("F4", 4), ("E6", 6)]
)


@pytest.mark.parametrize(
    "family,rank,count",
    [(f, r, root_system_type(f, r).positive_root_count()) for f, r in DOMINANCE],
)
def test_simple_to_ambient_consistency(family, rank, count):
    # the doubled coordinates are summed along the covers as the roots are found
    rst = root_system_type(family, rank)
    simples = simple_system_ambient2(rst)
    assert len(root_poset(rst)) == count
    for r in root_poset(rst).roots:
        amb = [0] * rst.ambient_dim
        for c, s in zip(r.simple_coords, simples):
            for k in range(rst.ambient_dim):
                amb[k] += c * s[k]
        assert tuple(amb) == r.ambient2


def root_leq(u, v):
    """Dominance test: v - u has nonnegative coefficients over the simple system."""
    return all(a <= b for a, b in zip(u.simple_coords, v.simple_coords))


def highest_root(poset):
    """The root above every positive root: the poset's maximum."""
    full = (1 << len(poset.roots)) - 1
    return next(root for root, down in zip(poset.roots, poset.down_masks) if down == full)


def test_rank_constraints():
    with pytest.raises(ConstraintError):
        root_system_type("A", 0)
    with pytest.raises(ConstraintError):
        root_system_type("B", 1)
    with pytest.raises(ConstraintError):
        root_system_type("D", 3)
    with pytest.raises(UnsupportedTypeError):
        root_system_type("E7", 7)
    with pytest.raises(UnsupportedTypeError):
        root_system_type("E8", 8)
    # without a rank, E7 and E8 are still reported unsupported, not rank-less
    with pytest.raises(UnsupportedTypeError, match="E7 is not supported"):
        root_system_type("E7")
    with pytest.raises(UnsupportedTypeError, match="E8 is not supported"):
        root_system_type("e8")
    with pytest.raises(ConstraintError, match="requires an explicit rank"):
        root_system_type("B")
    # a rank that is not an integer is refused, not truncated; an integral
    # float, as a JSON spec may carry, names its integer
    for family, rank in (("A", 2.5), ("D", 4.9), ("A", True), ("B", "3")):
        with pytest.raises(ConstraintError, match=f"rank {rank!r} of family {family} is not"):
            root_system_type(family, rank)
    with pytest.raises(ConstraintError, match="rank 2.5 of family A is not an integer"):
        RootSystemType("A", 2.5)
    assert root_system_type("B", 3.0) == RootSystemType("B", 3)
    assert type(root_system_type("B", 3.0).rank) is int


def test_leq_reflexive_and_dominance(a3_poset):
    p = a3_poset
    for u in p.roots:
        assert root_leq(u, u)
    top = highest_root(p)
    for u in p.roots:
        assert root_leq(u, top)
    # e1-e2 vs e2-e3 in A3: incomparable
    i = p.index_of((1, 0, 0))
    j = p.index_of((0, 1, 0))
    assert not p.leq(i, j) and not p.leq(j, i)


def test_poset_is_partial_order(g2_poset):
    p = g2_poset
    m = len(p)
    for i in range(m):
        assert p.leq(i, i)
        for j in range(m):
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in range(m):
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in COUNTS])
def test_unique_maximal_element(family, rank):
    p = root_poset(root_system_type(family, rank))
    top = highest_root(p)
    assert all(root_leq(u, top) for u in p.roots)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6)])
def test_covers_are_graded_by_height(family, rank):
    p = root_poset(root_system_type(family, rank))
    for u, v in p.covers:
        assert v.height == u.height + 1


def test_a2_covers_count():
    p = root_poset(root_system_type("A", 2))
    assert len(p.covers) == 2


def test_g2_covers_chain_shape(g2_poset):
    covers = g2_poset.covers
    assert len(covers) == 5
    # above the two simple roots the diagram is a chain up to the highest root
    above = [(u.simple_coords, v.simple_coords) for u, v in covers if u.height >= 2]
    assert above == [((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (3, 2))]


def test_chain_poset_cover_count():
    # B2's roots have heights 1, 1, 2, 3: both simple roots lie below the one
    # root of height 2, which lies below the highest root
    p = root_poset(root_system_type("B", 2))
    assert len(p.covers) == 3


@pytest.mark.parametrize("family,rank", DOMINANCE)
def test_masks_and_covers_are_the_dominance_order(family, rank):
    p = root_poset(root_system_type(family, rank))
    m = len(p)
    up = [sum(1 << v.index for v in p.roots if root_leq(u, v)) for u in p.roots]
    down = [sum(1 << u.index for u in p.roots if root_leq(u, v)) for v in p.roots]
    assert p.up_masks == up
    assert p.down_masks == down
    # the transitive reduction: i < j with nothing strictly between, in (i, j) order
    reduction = [
        (p.roots[i], p.roots[j])
        for i in range(m)
        for j in range(m)
        if i != j and up[i] >> j & 1 and up[i] & down[j] == (1 << i) | (1 << j)
    ]
    assert list(p.covers) == reduction


def test_linear_order_words():
    g2 = root_poset(root_system_type("G2"))
    assert linear_order_key(g2.roots[g2.index_of((3, 1))]) == "1112"
    f4 = root_poset(root_system_type("F4"))
    assert linear_order_key(f4.roots[f4.index_of((1, 1, 1, 1))]) == "1234"
    e6 = root_poset(root_system_type("E6"))
    assert linear_order_key(e6.roots[e6.index_of((1, 1, 1, 2, 1, 0))]) == "123445"


@pytest.mark.parametrize("family", ["G2", "F4", "E6"])
def test_linear_order_is_total_and_canonical(family):
    p = root_poset(root_system_type(family))
    keys = [sort_key(r.simple_coords) for r in p.roots]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def test_classical_canonical_order_is_tuple_lex():
    p = root_poset(root_system_type("B", 2))
    tuples = [hyperplane_tuple(p.rst, r.ambient2) for r in p.roots]
    assert tuples == sorted(tuples)
    assert tuples == [(1, -2), (1, 0), (1, 2), (2, 0)]


def test_e6_root_content():
    # 20 integer-coordinate positives, 16 spinor-like positives
    p = root_poset(root_system_type("E6"))
    integer_like = [r for r in p.roots if all(c % 2 == 0 for c in r.ambient2)]
    assert len(integer_like) == 20
    assert len(p.roots) - len(integer_like) == 16


REFLECTED = (
    [("A", r) for r in range(1, 9)]
    + [(f, r) for f in "BC" for r in range(2, 7)]
    + [("D", r) for r in range(4, 7)]
    + [("G2", 2), ("F4", 4), ("E6", 6)]
)


@pytest.mark.parametrize("family,rank", REFLECTED)
def test_simple_reflections_are_the_ambient_reflections(family, rank):
    # s_i(beta) = beta - (2 beta.alpha_i / alpha_i.alpha_i) alpha_i, taken in
    # doubled standard coordinates and sign-normalized, not in simple ones
    rst = root_system_type(family, rank)
    poset = root_poset(rst)
    m = len(poset)
    by_ambient = {root.ambient2: root.index for root in poset.roots}
    perms = simple_reflections(poset)
    assert len(perms) == rank
    for perm, alpha in zip(perms, simple_system_ambient2(rst)):
        assert sorted(perm) == list(range(m))
        assert all(perm[perm[j]] == j for j in range(m))
        assert perm[by_ambient[alpha]] == by_ambient[alpha]
        norm = sum(a * a for a in alpha)
        for root in poset.roots:
            pairing2 = 2 * sum(b * a for b, a in zip(root.ambient2, alpha))
            assert pairing2 % norm == 0
            image = tuple(b - pairing2 // norm * a for b, a in zip(root.ambient2, alpha))
            if image not in by_ambient:
                image = tuple(-c for c in image)
            assert perm[root.index] == by_ambient[image]


def test_families_match_the_ideal_spec_schema():
    schema = packaged_schema("ideal-spec.schema.json")
    assert schema["properties"]["type"]["enum"] == list(FAMILIES)
