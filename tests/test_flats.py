"""The lattice-of-flats engine against Crapo's basis activities: every G2 and
F4 ideal, the worked E6 ideal, E6 full and a fixed sample of E6 ideals; against
the counting DP on every ideal of the classical systems auto reads off their
lattices; auto's routing table, plus a Hypothesis property on random integer
configurations, the build's certificates and the closure's swap network."""

import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import IDEAL_E, exceptional_ideal, load_poly, src_env
from flat_reference import build_lattice
from idealtutte import flats
from idealtutte.crapo import VectorConfig, tutte_crapo
from idealtutte.errors import ConstraintError, GuardExceeded, InconsistencyError
from idealtutte.exactpoly import coboundary_to_tutte, tutte_to_coboundary
from idealtutte.ideals import arrangement_of, enumerate_ideals, ideal_from_mask, iter_ideals
from idealtutte.rootsystems import root_poset, root_system_type, simple_reflections
from idealtutte.specialize import (
    coboundary_of_ideal,
    resolve_engine,
    tutte_of_ideal,
)


def _ideals(family):
    return enumerate_ideals(root_poset(root_system_type(family)))


def _e6_cases():
    e6 = _ideals("E6")
    full = ideal_from_mask(e6[0].poset, 0)
    return [exceptional_ideal("E6", IDEAL_E), full, *random.Random(14).sample(e6, 40)]


def _assert_engines_agree(ideal):
    want = tutte_of_ideal(ideal, engine="crapo")
    assert tutte_of_ideal(ideal, engine="flats") == want
    rank = arrangement_of(ideal).rank
    assert coboundary_of_ideal(ideal, engine="flats") == tutte_to_coboundary(want, rank)


@pytest.mark.parametrize("family, count", [("G2", 8), ("F4", 105)])
def test_flats_equal_crapo_on_every_ideal(family, count):
    ideals = _ideals(family)
    assert len(ideals) == count
    for ideal in ideals:
        _assert_engines_agree(ideal)


def test_flats_equal_crapo_on_e6():
    cases = _e6_cases()
    assert len(set(cases)) == 42
    for ideal in cases:
        _assert_engines_agree(ideal)
    assert tutte_of_ideal(cases[0]) == load_poly("tutte_ie.txt", ("x", "y"))


@pytest.mark.parametrize(
    "family, per_rank",
    [
        ("G2", [1, 6, 1]),
        ("F4", [1, 24, 122, 120, 1]),
        ("E6", [1, 36, 390, 1530, 2001, 639, 1]),
    ],
)
def test_lattice_sizes(family, per_rank):
    lattice = flats.flat_lattice(root_system_type(family))
    assert len(lattice) == sum(per_rank)
    assert [lattice.ranks.count(k) for k in range(len(per_rank))] == per_rank


# every system auto reads off its lattice: the exceptional ones and the
# classical ones of at most specialize.AUTO_MAX_CLASSICAL_ROOTS = 25 roots
AUTO_FLATS = "G2 F4 E6 A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 C2 C3 C4 C5 D4 D5".split()
CLASSICAL_UP_TO_RANK_8 = [
    root_system_type(family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for rank in range(low, 9)
]


def test_auto_routing_table():
    # auto's engine on every supported system up to rank 8, and flats named
    # on any of them; every classical lattice auto builds has at most 1000
    # flats, the cost the root-count cut bounds
    systems = [root_system_type(f) for f in ("G2", "F4", "E6")] + CLASSICAL_UP_TO_RANK_8
    for rst in systems:
        want = "flats" if str(rst) in AUTO_FLATS else "ffmethod"
        assert resolve_engine("auto", rst) == want, rst
        assert resolve_engine("flats", rst) == "flats"
        if rst.is_classical and want == "flats":
            assert len(flats.flat_lattice(rst)) <= 1000, rst


@pytest.mark.parametrize(
    "rst", [rst for rst in CLASSICAL_UP_TO_RANK_8 if str(rst) in AUTO_FLATS], ids=str
)
def test_flats_equal_ffmethod_where_auto_is_flats(rst):
    # the lattice against the counting DP on every ideal of each classical
    # system auto sends to the lattice
    for ideal in iter_ideals(root_poset(rst)):
        want = coboundary_of_ideal(ideal, engine="ffmethod")
        assert coboundary_of_ideal(ideal, engine="flats") == want, ideal


def test_lattice_is_built_on_first_request_only():
    code = (
        "import idealtutte\n"
        "from idealtutte import flats, rootsystems\n"
        "for f in ('G2', 'F4', 'E6'):\n"
        "    rootsystems.root_poset(rootsystems.root_system_type(f))\n"
        "assert flats.flat_lattice.cache_info().currsize == 0\n"
    )
    subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)


@pytest.mark.parametrize(
    "rows, error", [((5,), "do not sum to q"), ((0, -1), "arrangement is not q")]
)
def test_corrupt_chi_row_fails_the_build_certificate(monkeypatch, rows, error):
    # one orbit's row off breaks the sum of chi_{M/F} = q^r; moving q from the
    # top flat's row to the bottom one's (both orbits of one flat) keeps that
    # sum and breaks chi_M = prod (q - e_i)
    real = flats.FlatLattice._chi_rows

    def corrupt(*args):
        chi = real(*args)
        chi[rows[0]][1] += 1
        if len(rows) > 1:
            chi[rows[1]][1] -= 1
        return chi

    monkeypatch.setattr(flats.FlatLattice, "_chi_rows", corrupt)
    with pytest.raises(InconsistencyError, match=error):
        flats.flat_lattice.__wrapped__(root_system_type("F4"))


@pytest.mark.parametrize(
    "family, rank, orbits",
    [
        ("G2", None, 4),
        ("F4", None, 12),
        ("E6", None, 17),
        ("A", 5, 11),
        ("A", 7, 22),
        ("B", 4, 12),
        ("B", 6, 30),
        ("C", 4, 12),
        ("C", 6, 30),
        ("D", 4, 11),
        ("D", 5, 14),
        ("D", 6, 26),
    ],
)
def test_orbit_lattice_equals_the_reference_build(family, rank, orbits):
    # B and C share their hyperplanes but not their root lengths, so the two
    # check the coroot pairing of the reflections; ``orbits`` counts the
    # conjugacy classes of parabolic subgroups, one chi row each
    rst = root_system_type(family, rank)
    roots = root_poset(rst).roots
    got = flats.orbit_lattice(rst)
    want = build_lattice([root.simple_coords for root in roots])
    assert sorted(_flat_rows(got)) == sorted(_flat_rows(want))
    assert len(got.kinds) == orbits
    # restrict takes the first flat that holds D for the one of least rank,
    # and the last flat for the whole arrangement
    assert got.ranks == sorted(got.ranks)
    assert got.masks[-1] == (1 << len(roots)) - 1


def _flat_rows(lattice):
    """(mask, rank, chi_{M/F} row) of every flat of ``lattice``."""
    return [
        (f, rank, row)
        for (start, stop, *_), row in zip(lattice._spans, lattice.kinds)
        for f, rank in zip(lattice.masks[start:stop], lattice.ranks[start:stop])
    ]


def test_restrict_refuses_an_indivisible_flat_sum_and_an_outside_mask(monkeypatch):
    # flats 0, {a}, {b}, {a, b} of two vectors, one orbit each, given rows that
    # sum to q^2, but D = {a} has rank 1 and its flat sum q^2 - q - 1 + (q + 1) t
    # keeps a q^0 term; bit 2 names no vector
    rows = [[1, -2, 1], [0, 1, 0], [-2, 1, 0], [1, 0, 0]]
    monkeypatch.setattr(flats.FlatLattice, "_chi_rows", lambda *args: rows)
    lattice = flats.FlatLattice([(0, [0b00]), (1, [0b01]), (1, [0b10]), (2, [0b11])])
    with pytest.raises(InconsistencyError, match="not divisible"):
        lattice.restrict(0b01)
    with pytest.raises(ConstraintError, match="outside the configuration"):
        lattice.restrict(0b101)


@pytest.mark.parametrize(
    "family, rank",
    [("G2", None), ("F4", None), ("E6", None), ("A", 5), ("B", 4), ("C", 4), ("D", 4)],
)
def test_swap_network_applies_every_simple_reflection(family, rank):
    # each 64-bit field of the packed frontier must be its mask with every bit
    # j moved to image[j], for every simple reflection
    reflections = simple_reflections(root_poset(root_system_type(family, rank)))
    m, r = len(reflections[0]), len(reflections)
    rng = random.Random(32)
    masks = [rng.getrandbits(m) for _ in range(50)] + [0, (1 << m) - 1]
    got = flats._reflect(masks, flats._swap_network(reflections), r).tolist()
    want = [
        sum(1 << image[j] for j in range(m) if f >> j & 1) for f in masks for image in reflections
    ]
    assert got == want


def test_guard_refuses_what_int64_cannot_hold():
    with pytest.raises(GuardExceeded):
        build_lattice([(1, i) for i in range(flats.MAX_VECTORS + 1)])
    with pytest.raises(GuardExceeded):
        build_lattice([(2 ** 20, 1), (1, 2 ** 20)])
    with pytest.raises(GuardExceeded):
        flats.orbit_lattice(root_system_type("A", 9))  # 45 roots


@st.composite
def configurations(draw):
    """Up to 9 vectors of full rank in dimension 1-4: random small entries,
    with parallel copies and zero vectors among them, and a subset mask."""
    dim = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    vectors = []
    for _ in range(draw(st.integers(dim, 9))):
        kind = draw(st.sampled_from(("random", "random", "parallel", "zero")))
        if kind == "zero":
            v = [0] * dim
        elif kind == "parallel" and vectors:
            v = [draw(st.sampled_from((-2, -1, 2))) * x for x in draw(st.sampled_from(vectors))]
        else:
            v = draw(st.lists(entries, min_size=dim, max_size=dim))
        vectors.append(tuple(v))
    assume(VectorConfig(vectors).rank == dim)
    mask = draw(st.integers(0, (1 << len(vectors)) - 1))
    return vectors, mask


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=configurations())
def test_flat_sum_matches_crapo_on_random_subsets(case):
    vectors, mask = case
    sub = VectorConfig([v for i, v in enumerate(vectors) if mask >> i & 1], dim=len(vectors[0]))
    cb, rank = build_lattice(vectors).restrict(mask)
    assert rank == sub.rank
    assert coboundary_to_tutte(cb, rank) == tutte_crapo(sub)
