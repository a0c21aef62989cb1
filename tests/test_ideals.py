import pytest

from conftest import IDEAL_E, IDEAL_F, IDEAL_G, WORKED_CLASSICAL, exceptional_ideal, worked_ideal
from idealtutte.errors import ConstraintError, UnsupportedTypeError
from idealtutte.exactpoly import BivariatePolynomial
from idealtutte.ffmethod import CountingModel
from idealtutte.ideals import (
    arrangement_of,
    complement,
    decompose_components,
    diagram_boxes,
    enumerate_ideals,
    generated_box_set,
    ideal_from_boxes,
    ideal_from_mask,
    ideal_from_root_coords,
    iter_ideals,
)
from idealtutte.paper import (
    generating_boxes,
    is_connected,
    is_full,
    partition_in_accordance,
    reconstruct_tuples,
    rightmost_boxes,
    signature,
    signature_table,
)
from idealtutte.rootsystems import root_poset, root_system_type


def blocks_str(bp):
    return "|".join("{" + ",".join(map(str, b)) + "}" for b in bp.blocks)


# ---- enumeration -------------------------------------------------------------

IDEAL_COUNTS = [
    ("A", 2, 5),
    ("A", 3, 14),
    ("B", 2, 6),
    ("B", 3, 20),
    ("C", 3, 20),
    ("D", 4, 50),
    ("G2", 2, 8),
    ("F4", 4, 105),
    ("E6", 6, 833),
]


@pytest.mark.parametrize("family,rank,count", IDEAL_COUNTS)
def test_ideal_counts(family, rank, count):
    poset = root_poset(root_system_type(family, rank))
    ideals = enumerate_ideals(poset)
    assert len(ideals) == count
    assert len({i.mask for i in ideals}) == count


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)],
)
def test_ideal_counts_against_subset_filter(family, rank):
    # independent oracle: filter every subset of the poset for upward closure,
    # in the enumeration's order (by cardinality, then by mask value)
    poset = root_poset(root_system_type(family, rank))
    m = len(poset)
    brute = [
        mask
        for mask in range(1 << m)
        if not any(mask >> i & 1 and poset.up_masks[i] & ~mask for i in range(m))
    ]
    brute.sort(key=lambda mask: (mask.bit_count(), mask))
    assert [ideal.mask for ideal in enumerate_ideals(poset)] == brute


def test_enumeration_order_and_extremes(a3_poset):
    ideals = enumerate_ideals(a3_poset)
    sizes = [len(i) for i in ideals]
    assert sizes == sorted(sizes)
    assert ideals[0].mask == 0
    assert ideals[-1].mask == (1 << len(a3_poset)) - 1
    # within a size level, bitmasks ascend
    by_size = {}
    for i in ideals:
        by_size.setdefault(len(i), []).append(i.mask)
    for masks in by_size.values():
        assert masks == sorted(masks)


def test_iter_ideals_is_lazy(a3_poset):
    gen = iter_ideals(a3_poset)
    first = next(gen)
    assert first.mask == 0


def test_every_enumerated_complement_is_downward_closed():
    for family, rank in (("A", 3), ("B", 3), ("D", 4), ("G2", 2)):
        poset = root_poset(root_system_type(family, rank))
        for ideal in enumerate_ideals(poset):
            cmask = ideal.complement_mask()
            for i in range(len(poset)):
                if cmask >> i & 1:
                    assert poset.down_masks[i] & ~cmask == 0


def test_ideal_validation_names_violating_pair(g2_poset):
    with pytest.raises(ConstraintError) as err:
        ideal_from_root_coords(g2_poset, [(1, 0)])
    assert "lacks" in str(err.value)


@pytest.mark.parametrize("mask", [1 << 20, -1, 1 << 9])
def test_ideal_from_mask_rejects_roots_outside_the_poset(mask):
    # B3 has 9 roots, so a valid mask lies in [0, 2^9)
    with pytest.raises(ConstraintError, match="not a set of the 9 roots of B3"):
        ideal_from_mask(root_poset(root_system_type("B", 3)), mask)


# ---- arrangements -------------------------------------------------------------


def test_arrangement_of_extremes(a3_poset):
    full_ideal = ideal_from_mask(a3_poset, (1 << len(a3_poset)) - 1)
    nothing = arrangement_of(full_ideal)
    assert len(nothing) == 0 and nothing.rank == 0 and nothing.dim == 4
    empty = ideal_from_mask(root_poset(root_system_type("A", 2)), 0)
    arr = arrangement_of(empty)
    assert len(arr) == 3 and arr.rank == 2 and arr.dim == 3


def test_arrangement_of_worked_g2(g2_poset):
    ig = ideal_from_root_coords(g2_poset, IDEAL_G)
    arr = arrangement_of(ig)
    assert len(arr) == 4 and arr.rank == 2 and arr.dim == 3


# ---- the per-family closed forms, kept as the reference for the grid layout ---


def _pos_b(n, v):
    """Position of v in the order 1 < 2 < ... < n < 0 < -n < ... < -1."""
    if v == 0:
        return n + 1
    return v if v > 0 else 2 * n + 2 + v


def _pos_c(n, v):
    """Position of v in the order 1 < ... < n < -n < ... < -1 (no 0)."""
    return v if v > 0 else 2 * n + 1 + v


def reference_diagram_boxes(rst):
    """The diagram's boxes enumerated family by family."""
    f, n = rst.family, rst.n_param
    out = []
    if f == "A":
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                out.append((i, j))
    elif f in ("B", "C"):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out.append((i, j))
                out.append((i, -j))
            out.append((i, 0))
    else:  # D
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                out.append((i, j))
                out.append((i, -j))
    return out


def reference_generated_box_set(rst, box):
    """The generated box set from the per-family linear orders."""
    f, n = rst.family, rst.n_param
    i0, j0 = box
    out = set()
    if f == "A":
        for u in range(i0, j0):
            for v in range(u + 1, j0 + 1):
                out.add((u, v))
        return out
    if f == "B":
        top = _pos_b(n, j0)
        for (u, v) in reference_diagram_boxes(rst):
            if u >= i0 and _pos_b(n, v) <= top:
                out.add((u, v))
        return out
    if f == "C":
        if j0 > 0:
            for (u, v) in reference_diagram_boxes(rst):
                if v != 0 and u >= i0 and _pos_c(n, v) <= _pos_c(n, j0):
                    out.add((u, v))
        elif j0 < 0:
            for (u, v) in reference_diagram_boxes(rst):
                if v != 0 and u >= i0 and _pos_c(n, v) <= _pos_c(n, j0):
                    out.add((u, v))
            for u in range(-j0, n + 1):
                out.add((u, 0))
        else:
            if i0 + 1 <= n:
                out |= reference_generated_box_set(rst, (i0, -(i0 + 1)))
            for u in range(i0, n + 1):
                out.add((u, 0))
        return out
    # D
    top = _pos_c(n, j0)
    for (u, v) in reference_diagram_boxes(rst):
        if u >= i0 and u <= n - 1 and _pos_c(n, v) <= top:
            out.add((u, v))
    return out


def reference_rightmost_boxes(rst):
    f, n = rst.family, rst.n_param
    if f in ("B", "C"):
        return [(i, i + 1) for i in range(1, n)] + [(n, 0)]
    return [(i, i + 1) for i in range(1, n)]


def _signature_interval(rst, gen):
    """Generator (i, j) as a signature interval [lo, hi] in the type's linear order.

    Returns (row, hi_position, order_fn).  For C a zero generator (i, 0)
    behaves as the interval [i, -(i+1)]; for B the zero column sits inside
    the order itself.
    """
    f, n = rst.family, rst.n_param
    i, j = gen
    if f == "A":
        return i, j, lambda v: v
    if f == "B":
        return i, _pos_b(n, j), lambda v: _pos_b(n, v)
    # C and D share the order without zero
    if f == "C" and j == 0:
        # (i, 0) generates its row's tail plus the zero column below; as a
        # signature interval it reaches -(i+1), or stops at n in the corner
        hi = _pos_c(n, -(i + 1)) if i + 1 <= n else _pos_c(n, n)
        return i, hi, lambda v: _pos_c(n, v)
    return i, _pos_c(n, j), lambda v: _pos_c(n, v)


def reference_signature(comp, x):
    """Signature by the per-type interval closed forms, for x inside the diagram."""
    rst = comp.rst
    f = rst.family
    gens = generating_boxes(comp)
    if x == 0:
        if f == "B":
            n = rst.n_param
            return {
                l + 1
                for l, g in enumerate(gens)
                if _pos_b(n, g[1]) >= _pos_b(n, 0)
            }
        return {l + 1 for l, g in enumerate(gens) if g[1] <= 0}
    out = set()
    for l, g in enumerate(gens):
        row, hi, order = _signature_interval(rst, g)
        if x > 0:
            if row <= x and order(x) <= hi:
                out.add(l + 1)
        else:
            if order(x) <= hi:
                out.add(l + 1)
    return out


REFERENCE_TYPES = (
    [("A", r) for r in range(1, 13)]
    + [(f, r) for f in ("B", "C") for r in range(2, 11)]
    + [("D", r) for r in range(4, 11)]
)


def test_grid_layout_matches_closed_forms():
    # the poset's tuples laid out by grid_position reproduce the per-family
    # enumeration, generated box sets and rightmost boxes
    for family, rank in REFERENCE_TYPES:
        rst = root_system_type(family, rank)
        boxes = diagram_boxes(rst)
        assert set(boxes) == set(reference_diagram_boxes(rst)), rst
        assert len(set(boxes)) == len(boxes), rst
        for b in boxes:
            assert generated_box_set(rst, b) == reference_generated_box_set(rst, b), (rst, b)
        assert rightmost_boxes(rst) == reference_rightmost_boxes(rst), rst


@pytest.mark.parametrize("family", ["G2", "F4", "E6"])
def test_diagram_boxes_rejects_exceptional(family):
    with pytest.raises(UnsupportedTypeError, match=family):
        diagram_boxes(root_system_type(family))


# ---- diagrams, boxes, signatures ----------------------------------------------


def test_generating_boxes_worked_examples():
    for label, (fam, rank, gens) in WORKED_CLASSICAL.items():
        comp = complement(worked_ideal(label))
        got = generating_boxes(comp)
        assert got == sorted(gens, key=lambda b: b[0]), label
        # conditions: rows strictly increase, antichain, union reproduces the set
        rows = [b[0] for b in got]
        assert rows == sorted(set(rows))
        rst = comp.rst
        union = set()
        for g in got:
            union |= generated_box_set(rst, g)
        assert union == comp.tuple_set()
        gsets = [generated_box_set(rst, g) for g in got]
        for i in range(len(gsets)):
            for j in range(len(gsets)):
                if i != j:
                    assert not gsets[i] <= gsets[j]


def test_generating_boxes_full_diagram():
    poset = root_poset(root_system_type("A", 3))
    empty = ideal_from_mask(poset, 0)
    assert generating_boxes(complement(empty)) == [(1, 4)]


def test_generating_boxes_rejects_exceptional(g2_poset):
    ig = ideal_from_root_coords(g2_poset, IDEAL_G)
    with pytest.raises(UnsupportedTypeError):
        generating_boxes(complement(ig))


def test_box_round_trip_small_types():
    # boxes -> ideal -> boxes round trips on every representable ideal; the
    # D diagram cannot represent ideals separating a fork pair e_i -+ e_n,
    # and exactly those raise
    unrepresentable = {"A": 0, "B": 0, "C": 0, "D": 0}
    for family, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        poset = root_poset(root_system_type(family, rank))
        for ideal in enumerate_ideals(poset):
            comp = complement(ideal)
            if not comp.roots:
                continue
            try:
                boxes = generating_boxes(comp)
            except ConstraintError:
                unrepresentable[family] += 1
                continue
            again = ideal_from_boxes(poset, boxes)
            assert again.mask == ideal.mask
    assert unrepresentable == {"A": 0, "B": 0, "C": 0, "D": 15}


def test_fullness_examples():
    # open sets of one fixed diagram: a non-full and a full one
    poset = root_poset(root_system_type("B", 6))
    not_full = ideal_from_boxes(poset, [(3, 4)])
    assert not is_full(complement(not_full))
    assert is_full(complement(worked_ideal("b")))
    whole = ideal_from_mask(poset, 0)
    assert is_full(complement(whole)) and is_connected(complement(whole))


def test_worked_examples_full_connected():
    for label in WORKED_CLASSICAL:
        comp = complement(worked_ideal(label))
        assert is_full(comp) and is_connected(comp), label


def test_signature_tables_match_worked_examples():
    st = signature_table(complement(worked_ideal("a")))
    assert [st[i] for i in range(1, 9)] == [
        {1}, {1, 2}, {1, 2}, {2, 3}, {2, 3}, {3, 4}, {3, 4}, {4},
    ]
    st = signature_table(complement(worked_ideal("b")))
    assert [st[i] for i in range(1, 7)] == [
        {1}, {1, 2}, {1, 2}, {1, 2, 3}, {2, 3}, {2, 3},
    ]
    assert st[0] == {2, 3} and st[-6] == {3} and st[-5] == {3}
    st = signature_table(complement(worked_ideal("c")))
    assert [st[i] for i in range(1, 7)] == [
        {1}, {1, 2}, {1, 2}, {1, 2, 3}, {2, 3}, {2, 3},
    ]
    assert st[-6] == {2, 3} and st[-5] == {3} and st[0] == {2, 3}
    st = signature_table(complement(worked_ideal("d")))
    assert [st[i] for i in range(1, 7)] == [
        {1}, {1, 2}, {1, 2}, {2, 3}, {2, 3}, {2, 3},
    ]
    assert st[-6] == {3} and st[-5] == {3}


def test_signature_of_absent_integer_is_empty():
    comp = complement(worked_ideal("a"))
    assert signature(comp, 2) == {1, 2}
    poset = root_poset(root_system_type("A", 7))
    small = ideal_from_boxes(poset, [(1, 3)])
    assert signature(complement(small), 7) == set()
    # past the diagram's last column no box mentions x
    for family, rank, box, x in (("B", 4, (1, -2), 5), ("C", 4, (1, 0), 5), ("D", 5, (1, -2), 6)):
        poset = root_poset(root_system_type(family, rank))
        comp = complement(ideal_from_boxes(poset, [box]))
        assert signature(comp, x) == set(), (family, box, x)


def test_signature_definitional_scan_agreement():
    # the definition == the interval closed forms, for every ideal
    for family, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        poset = root_poset(root_system_type(family, rank))
        n = poset.rst.n_param
        for ideal in enumerate_ideals(poset):
            comp = complement(ideal)
            if not comp.roots:
                continue
            try:
                gens = generating_boxes(comp)
            except ConstraintError:
                continue  # no diagram presentation (D fork split)
            values = list(range(1, n + 1))
            if family != "A":
                values += [-v for v in range(1, n + 1)]
            if family in ("B", "C"):
                values.append(0)
            for x in values:
                assert signature(comp, x) == reference_signature(comp, x), (family, rank, gens, x)


def test_signature_zero_rejected_for_a_and_d():
    with pytest.raises(UnsupportedTypeError):
        signature(complement(worked_ideal("a")), 0)
    with pytest.raises(UnsupportedTypeError):
        signature(complement(worked_ideal("d")), 0)


def test_signature_checks_x_before_it_reads_the_diagram():
    # the first D4 ideal whose complement has no generating-box presentation
    ideal = ideal_from_root_coords(
        root_poset(root_system_type("D", 4)), [(1, 1, 1, 0), (1, 1, 1, 1), (1, 2, 1, 1)]
    )
    comp = complement(ideal)
    with pytest.raises(ConstraintError, match="not an open diagram set"):
        signature_table(comp)
    with pytest.raises(UnsupportedTypeError, match="signature of 0 undefined for type D"):
        signature(comp, 0)


# ---- the partition in accordance ----------------------------------------------


def test_partitions_match_worked_examples():
    assert blocks_str(partition_in_accordance(complement(worked_ideal("a")))) == "{1}|{2,3}|{4,5}|{6,7}|{8}"
    assert blocks_str(partition_in_accordance(complement(worked_ideal("b")))) == "{1}|{2,3}|{4}|{5,6}"
    assert blocks_str(partition_in_accordance(complement(worked_ideal("c")))) == "{1}|{2,3}|{4}|{5}|{6}"
    assert blocks_str(partition_in_accordance(complement(worked_ideal("d")))) == "{1}|{2,3}|{4}|{5,6}"


def test_partition_adjacency_sets_worked_b():
    bp = partition_in_accordance(complement(worked_ideal("b")))
    assert bp.r_sets == [[2, 3], [3], []]
    assert bp.ra_sets == [[3]]
    assert bp.s_sets == [[]]
    assert bp.r0 == [2, 3] and bp.s0 == [1]


def test_block_signature_constancy():
    for label in WORKED_CLASSICAL:
        comp = complement(worked_ideal(label))
        bp = partition_in_accordance(comp)
        for blk in bp.a_blocks:
            sigs = {frozenset(signature(comp, x)) for x in blk}
            assert len(sigs) == 1
        for blk in bp.b_blocks:
            sigs = {frozenset(signature(comp, -x)) for x in blk}
            assert len(sigs) == 1


def test_reconstruction_lemma_small_sweep():
    # the block decomposition reproduces the tuple set exactly, for every
    # full connected ideal of A4, B3, C3, D4 that the diagram can present
    for family, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        poset = root_poset(root_system_type(family, rank))
        for ideal in enumerate_ideals(poset):
            comp = complement(ideal)
            if not comp.roots or not (is_full(comp) and is_connected(comp)):
                continue
            try:
                bp = partition_in_accordance(comp)
            except ConstraintError:
                assert family == "D"
                continue
            assert reconstruct_tuples(bp) == comp.tuple_set(), (family, ideal)


# ---- components ----------------------------------------------------------------


def test_decompose_connected_is_identity_relabel():
    comp = complement(worked_ideal("b"))
    comps = decompose_components(comp)
    assert len(comps) == 1
    assert comps[0].index_map == (1, 2, 3, 4, 5, 6)
    assert set(comps[0].tuples) == comp.tuple_set()


def test_decompose_two_a_components():
    poset = root_poset(root_system_type("A", 5))
    ideal = ideal_from_boxes(poset, [(1, 2), (4, 6)])
    comps = decompose_components(complement(ideal))
    assert sorted(c.size for c in comps) == [2, 3]
    # components come in ascending order of their least coordinate
    assert [c.index_map for c in comps] == [(1, 2), (4, 5, 6)]


def test_decompose_off_diagonal_becomes_a_type():
    # B3 complement missing all zero/negative columns is A-like
    poset = root_poset(root_system_type("B", 3))
    ideal = ideal_from_boxes(poset, [(1, 2)])  # single box (1,2): positive pair only
    comps = decompose_components(complement(ideal))
    assert len(comps) == 1
    assert all(j > 0 for _, j in comps[0].tuples)


def test_component_ranks_add_up():
    for family, rank in (("A", 5), ("B", 4), ("C", 4), ("D", 4)):
        for ideal in enumerate_ideals(root_poset(root_system_type(family, rank))):
            comps = decompose_components(complement(ideal))
            ranks = [CountingModel(c.size, c.tuples).rank for c in comps]
            assert sum(ranks) == arrangement_of(ideal).rank, ideal


def test_component_row_compression_b3():
    # complement missing all boxes of row 1 compresses to a B2-shaped component
    poset = root_poset(root_system_type("B", 3))
    ideal = ideal_from_boxes(poset, [(2, -3)])
    comps = decompose_components(complement(ideal))
    assert len(comps) == 1
    c = comps[0]
    assert c.size == 2 and c.index_map == (2, 3)
    assert set(c.tuples) == {(1, 2), (1, -2), (1, 0), (2, 0)}


def test_component_tutte_products():
    # product of component Tutte polynomials equals the oracle Tutte of the
    # whole arrangement, for every ideal of A4 and B3
    from idealtutte.crapo import VectorConfig, tutte_corank_nullity
    from idealtutte.ideals import tuple_normal

    for family, rank in (("A", 4), ("B", 3)):
        poset = root_poset(root_system_type(family, rank))
        n = poset.rst.ambient_dim
        for ideal in enumerate_ideals(poset):
            comp = complement(ideal)
            whole = tutte_corank_nullity(
                VectorConfig([tuple_normal(t, n) for t in comp.hyperplanes], dim=n)
            )
            product = None
            for c in decompose_components(comp):
                t = tutte_corank_nullity(
                    VectorConfig([tuple_normal(u, c.size) for u in c.tuples], dim=c.size)
                )
                product = t if product is None else product * t
            if product is None:
                assert whole == BivariatePolynomial.one()
            else:
                assert product == whole, (family, ideal)


def test_diagram_box_counts():
    assert len(diagram_boxes(root_system_type("A", 7))) == 28
    assert len(diagram_boxes(root_system_type("B", 6))) == 36
    assert len(diagram_boxes(root_system_type("C", 6))) == 36
    assert len(diagram_boxes(root_system_type("D", 6))) == 30


def test_exceptional_ideals_accepted():
    for fam, coords in (("G2", IDEAL_G), ("F4", IDEAL_F), ("E6", IDEAL_E)):
        ideal = exceptional_ideal(fam, coords)
        assert len(ideal) == len(coords)
