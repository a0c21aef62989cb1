"""Hypothesis property tests for the finite-field pipeline on random small
classical ideals: the direct coboundary route against exhaustive point counts
and against the paper's route, Lagrange interpolation of the counting model's
values at rank+1 odd primes.  Further properties run the counting model on
random tuple sets that no ideal complement produces: any tuple set, sets of
x_i = x_j hyperplanes only (stride 1, one residue per step), such sets with
one hyperplane added that switches the model to stride 2 (one residue pair
per step), and tuple sets expanded from coarse blocks with uniform incidence,
which reach uneven splits inside a block and tied blocks, and a seeded
sample of components of 4 to 9 blocks from uniform A9, A10, B8 and D8
ideals.  Every model they build also holds exactly its pointed moves in its
move table, against a brute-force listing.  The
model's parts are held to tests-side references: its closing weights to r!
and its zero exponents to the quadratic form (also on every component of the
benchmark's ``classical-random`` pool), its signed-graph rank to Gaussian
elimination and the signed graph's classes to a breadth-first search, its
block flags and their refusals to the pair-by-pair reading of the tuple set,
and ``block_flags``'s default blocks to the pairwise test against every third
coordinate.  They sit beside the fixed-seed sweeps in
test_ffmethod and test_properties."""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    classical_random_pool,
    component_tuples,
    multi_block_components,
    uniform_type_a_ideal,
)
from idealtutte import crapo
from idealtutte.errors import ConstraintError
from idealtutte.exactpoly import lagrange_interpolate
from idealtutte.ffmethod import CountingModel, count_points_bruteforce
from idealtutte.ideals import (
    arrangement_of,
    block_flags,
    complement,
    decompose_components,
    enumerate_ideals,
    ideal_from_root_coords,
    signed_classes,
    tuple_normal,
)
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import coboundary_of_ideal

# every type here has at most 6 coordinates, so 7^n stays far below the
# brute-force counter's point guard
TYPES = (
    [("A", n) for n in range(1, 6)]
    + [(f, n) for f in "BC" for n in range(2, 5)]
    + [("D", 4), ("D", 5)]
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def _poset(family, rank):
    return root_poset(root_system_type(family, rank))


@st.composite
def classical_ideals(draw):
    """The union of the up-sets of a few roots of a small classical type."""
    family, rank = draw(st.sampled_from(TYPES))
    poset = _poset(family, rank)
    roots = sorted(r.simple_coords for r in poset.roots)
    picks = draw(st.lists(st.sampled_from(roots), max_size=4))
    coords = [c for c in roots if any(all(a <= b for a, b in zip(p, c)) for p in picks)]
    return ideal_from_root_coords(poset, coords)


@PROPERTY_SETTINGS
@given(ideal=classical_ideals(), p=st.sampled_from([3, 5, 7]))
def test_direct_route_matches_brute_force_counts(ideal, p):
    n = ideal.rst.ambient_dim
    hyperplanes = complement(ideal)
    cb = coboundary_of_ideal(ideal, engine="ffmethod")
    scale = p ** (n - arrangement_of(ideal).rank)
    profile = [0] * (len(hyperplanes) + 1)
    for (dq, dt), c in cb.coeffs.items():
        profile[dt] += scale * c * p ** dq
    assert profile == list(count_points_bruteforce(hyperplanes, n, p).counts)


@PROPERTY_SETTINGS
@given(ideal=classical_ideals())
def test_direct_route_matches_prime_interpolation(ideal):
    model = CountingModel(ideal.rst.ambient_dim, complement(ideal))
    primes = (3, 5, 7, 11, 13, 17)[: model.rank + 1]
    points = [(p, model.coboundary_at_prime(p)) for p in primes]
    assert coboundary_of_ideal(ideal, engine="ffmethod") == lagrange_interpolate(points)


@st.composite
def normal_tuple_sets(draw):
    """A random set of normal hyperplane tuples (i, j), i < |j|, or (i, 0), on
    m <= 5 coordinates.  Unlike ideal complements, these may hold x_i = -x_j
    inside an automorphism block without x_i = x_j."""
    m = draw(st.integers(1, 5))
    return m, draw(st.lists(st.sampled_from(_normal_tuples(m)), unique=True))


def _normal_tuples(m):
    """Every normal hyperplane tuple on m coordinates."""
    return [(i, 0) for i in range(1, m + 1)] + [
        (i, s * j) for i in range(1, m + 1) for j in range(i + 1, m + 1) for s in (1, -1)
    ]


def _pointed_moves(sizes, state):
    """The reference moves of a state r <= the block sizes n, brute force:
    the nonzero m <= r with an entry at a block >= the last nonzero block of
    n - r, and every nonzero m <= n at r = n."""
    consumed = [n - r for n, r in zip(sizes, state)]
    last = max((i for i, e in enumerate(consumed) if e), default=0)
    return {m for m in product(*(range(r + 1) for r in state)) if any(m[last:])}


def _assert_kernel_size(model):
    """Runs the counting DP and checks the move table of the state tables it
    builds, once: every state r <= the block sizes n holds the codes of
    exactly its pointed moves, each once.  Returns the table's total, which
    the guard's count of every nonzero m <= r over all r,
    prod_i C(n_i + 2, 2) - prod_i (n_i + 1), bounds."""
    assert model._rounds is None
    sizes = [len(b) for b in model.blocks]
    build = model._state_tables
    tables = []

    def spy(width):
        tables.append(build(width))
        return tables[-1]

    model._state_tables = spy
    try:
        model.coboundary()
    finally:
        del model._state_tables
    ((down, _, _),) = tables
    assert len(down) == prod(n + 1 for n in sizes)

    def vector(code):
        return tuple(code // radix % (n + 1) for n, radix in zip(sizes, model._radix))

    for code, codes in enumerate(down):
        consumed = list(map(vector, codes))
        assert len(set(consumed)) == len(codes)
        assert set(consumed) == _pointed_moves(sizes, vector(code))
    total = sum(map(len, down))
    assert total <= prod(comb(n + 2, 2) for n in sizes) - prod(n + 1 for n in sizes)
    return total


def _assert_matches_brute_force(m, tuples, blocks=None, primes=(3, 5, 7)):
    """The model's p^(m - rank) chi-bar(p, t) at each prime against
    exhaustive counts, and its move table against the pointed moves;
    returns the model."""
    model = CountingModel(m, tuples, blocks=blocks)
    _assert_kernel_size(model)
    cb = model.coboundary()
    for p in primes:
        expected = list(count_points_bruteforce(tuples, m, p).counts)
        profile = [0] * (len(tuples) + 1)
        for (dq, dt), c in cb.coeffs.items():
            profile[dt] += p ** (m - model.rank) * c * p ** dq
        assert profile == expected
    return model


@PROPERTY_SETTINGS
@given(mt=normal_tuple_sets())
def test_counting_model_matches_brute_force_on_any_tuple_set(mt):
    _assert_matches_brute_force(*mt)


@st.composite
def pos_only_tuple_sets(draw):
    """Any graph on m <= 6 coordinates, as hyperplanes x_i = x_j."""
    m = draw(st.integers(1, 6))
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    tuples = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    return m, tuples


@PROPERTY_SETTINGS
@given(mt=pos_only_tuple_sets())
def test_single_residue_kernel_matches_brute_force(mt):
    model = _assert_matches_brute_force(*mt)
    assert model.stride == 1


@PROPERTY_SETTINGS
@given(mt=pos_only_tuple_sets(), data=st.data())
def test_one_negative_or_zero_hyperplane_switches_to_the_pair_kernel(mt, data):
    m, tuples = mt
    extra = data.draw(st.sampled_from(
        [(i, 0) for i in range(1, m + 1)]
        + [(i, -j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    ))
    assert _assert_matches_brute_force(m, tuples).stride == 1
    assert _assert_matches_brute_force(m, tuples + [extra]).stride == 2


# an A7 ideal of the benchmark's random pool (seed 1) whose complement has a
# component on 8 coordinates in blocks of sizes 1, 2, 2, 2, 1
BENCH_A7 = [
    (0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1, 1), (0, 0, 1, 1, 1, 0, 0),
    (0, 0, 1, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1, 1), (0, 1, 1, 1, 1, 0, 0),
    (0, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1, 1, 1),
]


def _largest_bench_component(family, rank, coords):
    ideal = ideal_from_root_coords(_poset(family, rank), coords)
    comp = max(decompose_components(ideal), key=lambda c: c.size)
    return CountingModel(comp.size, comp.tuples)


def test_single_residue_kernel_size_on_a_bench_component():
    model = _largest_bench_component("A", 7, BENCH_A7)
    sizes = [len(b) for b in model.blocks]
    assert model.stride == 1 and sorted(sizes) == [1, 1, 2, 2, 2]
    # pointing keeps 1036 of the 1836 nonzero m <= r over all states r
    assert _assert_kernel_size(model) == 1036


# the slowest D8 ideal of the benchmark's random pool (seed 1): its largest
# complement component has 8 coordinates in blocks of sizes 2, 1, 2, 2, 1
BENCH_D8 = [
    (0, 0, 1, 1, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1, 1, 1), (0, 0, 1, 1, 1, 2, 1, 1),
    (0, 0, 1, 1, 2, 2, 1, 1), (0, 0, 1, 2, 2, 2, 1, 1), (0, 1, 1, 1, 1, 0, 0, 0),
    (0, 1, 1, 1, 1, 1, 0, 0), (0, 1, 1, 1, 1, 1, 0, 1), (0, 1, 1, 1, 1, 1, 1, 0),
    (0, 1, 1, 1, 1, 1, 1, 1), (0, 1, 1, 1, 1, 2, 1, 1), (0, 1, 1, 1, 2, 2, 1, 1),
    (0, 1, 1, 2, 2, 2, 1, 1), (0, 1, 2, 2, 2, 2, 1, 1), (1, 1, 1, 1, 1, 0, 0, 0),
    (1, 1, 1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 2, 1, 1), (1, 1, 1, 1, 2, 2, 1, 1),
    (1, 1, 1, 2, 2, 2, 1, 1), (1, 1, 2, 2, 2, 2, 1, 1), (1, 2, 2, 2, 2, 2, 1, 1),
]


def test_pair_kernel_size_on_a_bench_component():
    model = _largest_bench_component("D", 8, BENCH_D8)
    sizes = [len(b) for b in model.blocks]
    assert model.stride == 2 and sorted(sizes) == [1, 1, 2, 2, 2]
    # the pair's (a, b) splits live in each move's weight, not in more moves;
    # pointing keeps 1035 of the 1836 nonzero m <= r over all states r
    assert _assert_kernel_size(model) == 1035


def test_multi_block_components_match_brute_force():
    # a step moves past the last block consumed so far or stays on it, so
    # many blocks prune the most moves
    for m, tuples in multi_block_components():
        model = _assert_matches_brute_force(m, tuples, primes=(3, 5) if m <= 8 else (3,))
        assert len(model.blocks) >= 4


def test_uniform_type_a_ideals_reach_every_ideal_evenly():
    # 42 ideals of A4, 8400 draws: about 200 each
    rng = random.Random(5)
    counts = Counter(uniform_type_a_ideal(rng, 4) for _ in range(8400))
    assert set(counts) == set(enumerate_ideals(_poset("A", 4)))
    assert 140 < min(counts.values()) and max(counts.values()) < 260


@st.composite
def coarse_block_tuple_sets(draw):
    """Blocks of up to 3 coordinates (m <= 6, coordinates permuted), uniform
    x_i = x_j, x_i = -x_j and x_i = 0 flags within each block and across each
    pair of blocks, and the tuple set they expand to."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6).filter(lambda s: sum(s) <= 6))
    m = sum(sizes)
    coords = draw(st.permutations(range(1, m + 1)))
    blocks, start = [], 0
    for n in sizes:
        blocks.append(sorted(coords[start:start + n]))
        start += n
    tuples = set()
    for bi, block in enumerate(blocks):
        pos, neg, zero = (draw(st.booleans()) for _ in range(3))
        tuples.update((i, 0) for i in block if zero)
        pairs = [(i, j) for i in block for j in block if i < j]
        for bj in range(bi):
            pc, nc = draw(st.booleans()), draw(st.booleans())
            cross = [(min(i, j), max(i, j)) for i in blocks[bj] for j in block]
            tuples.update((i, j) for i, j in cross if pc)
            tuples.update((i, -j) for i, j in cross if nc)
        tuples.update((i, j) for i, j in pairs if pos)
        tuples.update((i, -j) for i, j in pairs if neg)
    return m, sorted(tuples), blocks


@PROPERTY_SETTINGS
@given(mtb=coarse_block_tuple_sets())
def test_counting_model_on_coarse_blocks_matches_brute_force(mtb):
    m, tuples, blocks = mtb
    _assert_matches_brute_force(m, tuples, blocks, (3, 5, 7) if m <= 5 else (3, 5))


@PROPERTY_SETTINGS
@given(mtb=coarse_block_tuple_sets())
def test_closing_table_matches_the_quadratic_form_on_coarse_blocks(mtb):
    m, tuples, blocks = mtb
    _assert_closing_table(CountingModel(m, tuples, blocks=blocks))


def test_closing_table_matches_the_quadratic_form_on_the_benchmark_pool():
    components = component_tuples(classical_random_pool())
    assert len(components) == 57
    for m, tuples in components:
        _assert_closing_table(CountingModel(m, tuples))


def _zero_exponent(model, r):
    """The reference t-exponent of sending r_i coordinates of each block i
    to residue 0, where x_i = x_j, x_i = -x_j and x_i = 0 all hold: the
    quadratic form of the block flags."""
    de = 0
    for bi, ri in enumerate(r):
        pw, nw, z = model.within[bi]
        de += (pw + nw) * comb(ri, 2) + z * ri
        for bj, pc, nc in model.cross[bi]:
            de += (pc + nc) * r[bj] * ri
    return de


def _assert_closing_table(model):
    """At every state code r, the state tables' closing weight D / r! and
    zero exponent (at width 1, the shift is the exponent) against r! and the
    quadratic form."""
    sizes = [len(b) for b in model.blocks]
    _, closes, exponents = model._state_tables(1)
    # every r <= the block sizes in code order, block 0 the fastest digit
    vectors = [r[::-1] for r in product(*(range(n + 1) for n in reversed(sizes)))]
    assert len(closes) == len(exponents) == len(vectors)
    scale = prod(map(factorial, sizes))
    for close, de, r in zip(closes, exponents, vectors):
        assert close * prod(map(factorial, r)) == scale
        assert de == _zero_exponent(model, r)


@PROPERTY_SETTINGS
@given(mt=normal_tuple_sets())
def test_balance_rank_matches_gaussian_elimination(mt):
    m, tuples = mt
    assert CountingModel(m, tuples).rank == crapo.rank_of([tuple_normal(t, m) for t in tuples])
    assert signed_classes(m, tuples)[0] == _coordinate_components(m, tuples)


def _coordinate_components(m, tuples):
    """The component of each coordinate 1..m in the graph whose edges join
    the coordinates of each tuple (i, j), j != 0, numbered by a breadth-first
    search from each unreached coordinate in ascending order."""
    nbrs = {x: set() for x in range(1, m + 1)}
    for i, j in tuples:
        if j:
            nbrs[i].add(abs(j))
            nbrs[abs(j)].add(i)
    component, label = {}, -1
    for start in range(1, m + 1):
        if start in component:
            continue
        label += 1
        component[start] = label
        queue = [start]
        for x in queue:
            for y in sorted(nbrs[x] - component.keys()):
                component[y] = label
                queue.append(y)
    return [component[x] for x in range(1, m + 1)]


def _pos(tset, i, j):
    """Whether x_i = x_j is among the hyperplane tuples."""
    return (min(i, j), max(i, j)) in tset


def _neg(tset, i, j):
    """Whether x_i = -x_j is among the hyperplane tuples."""
    return (min(i, j), -max(i, j)) in tset


def _pairwise_blocks(m, tset):
    """The reference automorphism blocks: x joins the first block whose first
    member carries the same zero flag and the same pos/neg flags against
    every third coordinate, read pair by pair off the tuple set."""

    def equivalent(i, j):
        return ((i, 0) in tset) == ((j, 0) in tset) and all(
            _pos(tset, i, z) == _pos(tset, j, z) and _neg(tset, i, z) == _neg(tset, j, z)
            for z in range(1, m + 1) if z not in (i, j)
        )

    blocks = []
    for x in range(1, m + 1):
        for b in blocks:
            if equivalent(b[0], x):
                b.append(x)
                break
        else:
            blocks.append([x])
    return blocks


@PROPERTY_SETTINGS
@given(mt=normal_tuple_sets())
def test_automorphism_blocks_match_the_pairwise_test(mt):
    m, tuples = mt
    assert block_flags(m, set(tuples))[0] == _pairwise_blocks(m, set(tuples))


@PROPERTY_SETTINGS
@given(mtb=coarse_block_tuple_sets())
def test_automorphism_blocks_match_the_pairwise_test_on_coarse_blocks(mtb):
    m, tuples, _ = mtb
    assert block_flags(m, set(tuples))[0] == _pairwise_blocks(m, set(tuples))


def _pairwise_flags(blocks, tset):
    """The reference block flags, in the counting model's shapes: each flag
    read off the first members of its blocks and checked on every pair of
    members, ConstraintError where it differs."""
    within = []
    for blk in blocks:
        z = (blk[0], 0) in tset
        pw = len(blk) > 1 and _pos(tset, blk[0], blk[1])
        nw = len(blk) > 1 and _neg(tset, blk[0], blk[1])
        if any(((x, 0) in tset) != z for x in blk):
            raise ConstraintError(f"block {blk} not uniform on the zero column")
        for a, b in combinations(blk, 2):
            if _pos(tset, a, b) != pw or _neg(tset, a, b) != nw:
                raise ConstraintError(f"block {blk} not pair-uniform")
        within.append((pw, nw, z))
    cross = [[] for _ in blocks]
    for (i, bi), (j, bj) in combinations(enumerate(blocks), 2):
        pc, nc = _pos(tset, bi[0], bj[0]), _neg(tset, bi[0], bj[0])
        for a in bi:
            for b in bj:
                if _pos(tset, a, b) != pc or _neg(tset, a, b) != nc:
                    raise ConstraintError(f"blocks {bi} x {bj} not pair-uniform")
        if pc or nc:
            cross[j].append((i, pc, nc))
    return within, cross


@st.composite
def partitioned_tuple_sets(draw):
    """A tuple set on m <= 6 coordinates and a partition of 1..m into blocks:
    half the draws any tuple set and any partition, half a coarse-block
    tuple set, uniform on its blocks, with up to two tuples flipped in or
    out."""
    if draw(st.booleans()):
        m, tuples, blocks = draw(coarse_block_tuple_sets())
        flips = draw(st.lists(st.sampled_from(_normal_tuples(m)), max_size=2, unique=True))
        return m, sorted(set(tuples) ^ set(flips)), blocks
    m = draw(st.integers(1, 6))
    tuples = draw(st.lists(st.sampled_from(_normal_tuples(m)), unique=True))
    labels = draw(st.lists(st.integers(1, m), min_size=m, max_size=m))
    blocks = {}
    for x, label in enumerate(labels, 1):
        blocks.setdefault(label, []).append(x)
    return m, tuples, list(blocks.values())


@PROPERTY_SETTINGS
@given(mtb=partitioned_tuple_sets())
def test_block_flags_match_the_pairwise_reference(mtb):
    m, tuples, blocks = mtb
    try:
        within, cross = _pairwise_flags(blocks, set(tuples))
    except ConstraintError:
        with pytest.raises(ConstraintError, match="uniform"):
            CountingModel(m, tuples, blocks=blocks)
        return
    model = CountingModel(m, tuples, blocks=blocks)
    assert (model.within, model.cross) == (within, cross)
