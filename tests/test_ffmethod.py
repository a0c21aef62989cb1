import hashlib
import json
import tracemalloc
from math import comb

import pytest

from conftest import WORKED_CLASSICAL, component_tuples, full_tuples, load_poly, worked_ideal
from idealtutte import crapo
from idealtutte.errors import (
    ConstraintError,
    GuardExceeded,
    InconsistencyError,
    UnsupportedTypeError,
)
from idealtutte.exactpoly import BivariatePolynomial, UnivariatePolynomial, coboundary_to_tutte
from idealtutte.ffmethod import CountingModel, coboundary_and_rank, count_points_bruteforce
from idealtutte.ideals import (
    arrangement_of,
    complement,
    enumerate_ideals,
    ideal_from_mask,
    tuple_normal,
)
from idealtutte.paper import minor_set, partition_in_accordance
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import coboundary_of_ideal, tutte_of_ideal


def true_coordinates(family, rank):
    """Positive roots in plain standard coordinates (ambient2 halved)."""
    out = []
    for r in root_poset(root_system_type(family, rank)).roots:
        assert all(c % 2 == 0 for c in r.ambient2)
        out.append(tuple(c // 2 for c in r.ambient2))
    return out


# ---- minor sets ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_minor_set_type_a(n):
    minors = minor_set(true_coordinates("A", n - 1))
    # n = 2 is a single row, so the singular minor 0 only appears from n = 3 on
    want = {1, -1} if n == 2 else {0, 1, -1}
    assert minors == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minor_set_type_b(n):
    minors = minor_set(true_coordinates("B", n))
    want = {0} | {s * 2 ** k for k in range(n // 2 + 1) for s in (1, -1)}
    assert minors == want


def test_minor_set_single_row():
    assert minor_set([(2, 0, 0)]) == {0, 2, -2}


def test_minor_set_guard():
    with pytest.raises(GuardExceeded):
        minor_set([(1,) * 30] * 40)


# ---- brute-force point counts ---------------------------------------------------


def test_profile_a2_braid():
    tp = count_points_bruteforce([(1, 2), (1, 3), (2, 3)], 3, 3)
    assert tp.counts == (6, 18, 0, 3)
    assert tp.coboundary() == UnivariatePolynomial([2, 6, 0, 1])


def test_profile_single_hyperplane():
    tp = count_points_bruteforce([(1, 0)], 1, 3)
    assert tp.counts == (2, 1)
    assert tp.coboundary() == UnivariatePolynomial([2, 1])


def test_profile_empty_arrangement():
    tp = count_points_bruteforce([], 2, 3)
    assert tp.counts == (9,)
    assert tp.coboundary() == UnivariatePolynomial([1])


def test_profile_counts_a_repeated_tuple_once():
    tp = count_points_bruteforce([(1, 2), (1, 2)], 2, 3)
    assert tp.counts == (6, 3)
    assert tp.coboundary() == CountingModel(2, [(1, 2), (1, 2)]).coboundary_at_prime(3)


def test_profile_guard():
    with pytest.raises(GuardExceeded):
        count_points_bruteforce([(1, 2)], 12, 11)


@pytest.mark.parametrize("t", [(0, 1), (1, 1), (3, 1)])
def test_profile_rejects_what_the_counting_model_rejects(t):
    # (0, 1) would read coordinate 0 as the last one, (1, 1) would count
    # x_1 = x_1 on every point, and (3, 1) names a coordinate beyond n = 2
    for count in (lambda: CountingModel(2, [t]), lambda: count_points_bruteforce([t], 2, 3)):
        with pytest.raises(ConstraintError, match=r"is not a hyperplane tuple on 1\.\.2"):
            count()


# ---- Ardila's closed forms for full arrangements, the test oracle ----------------


def _compositions(n):
    """Ordered partitions (compositions) of n into positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _multinomial(n, parts):
    out = 1
    rem = n
    for a in parts:
        out *= comb(rem, a)
        rem -= a
    return out


def coboundary_full_at_prime(family, n, p):
    """chi-bar of the full classical arrangement at an odd prime, in closed form.

    A sums over compositions of n with binomial(p, u) weights divided by p; B
    and D split off the zero-valued coordinates (t-exponent a^2 resp. a(a-1))
    and distribute the rest over (p-1)/2 sign-symmetric residue pairs with
    doubled multiplicities.  Type C shares the B arrangement.
    """
    if family == "C":
        family = "B"
    assert p % 2 and p >= 3
    total = [0] * (n * n + 1)  # t-coefficients; no exponent exceeds n^2
    if family == "A":
        for parts in _compositions(n):
            w = comb(p, len(parts)) * _multinomial(n, parts)
            total[sum(a * (a - 1) // 2 for a in parts)] += w
        assert all(c % p == 0 for c in total)
        return UnivariatePolynomial([c // p for c in total])
    for a in range(n + 1):
        ea = a * a if family == "B" else a * (a - 1)
        for parts in _compositions(n - a):
            w = comb(n, a) * comb((p - 1) // 2, len(parts))
            w *= _multinomial(n - a, parts) * 2 ** (n - a)
            total[ea + sum(b * (b - 1) // 2 for b in parts)] += w
    return UnivariatePolynomial(total)


def at_q(cb, q):
    """chi-bar(q, t) as a polynomial in t at the integer q."""
    coeffs = [0] * (cb.degree(1) + 1)
    for (dq, dt), c in cb.coeffs.items():
        coeffs[dt] += c * q ** dq
    return UnivariatePolynomial(coeffs)


def test_full_formula_examples():
    assert coboundary_full_at_prime("A", 2, 3) == UnivariatePolynomial([2, 1])
    assert coboundary_full_at_prime("A", 3, 3) == UnivariatePolynomial([2, 6, 0, 1])


@pytest.mark.parametrize("family,n,p", [
    ("A", 3, 5), ("A", 4, 3), ("B", 2, 3), ("B", 3, 5), ("D", 4, 3), ("C", 3, 3),
])
def test_full_formula_matches_brute_force(family, n, p):
    got = coboundary_full_at_prime(family, n, p)
    assert got == count_points_bruteforce(full_tuples(family, n), n, p).coboundary()


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
@pytest.mark.parametrize("n", range(2, 9))
def test_full_arrangement_dp_matches_closed_forms(family, n):
    cb = CountingModel(n, full_tuples(family, n)).coboundary()
    for p in (3, 5, 7):
        assert at_q(cb, p) == coboundary_full_at_prime(family, n, p), (family, n, p)


@pytest.mark.parametrize("family", ["G2", "F4"])
def test_full_arrangements_reject_non_classical_families(family):
    poset = root_poset(root_system_type(family))
    assert poset.tuples is None
    with pytest.raises(UnsupportedTypeError):
        coboundary_and_rank(ideal_from_mask(poset, 0))


def test_ideal_closed_form_examples():
    # a single A-block of size 2 is one hyperplane: chi-bar(3, t) = t + 2
    poset = root_poset(root_system_type("A", 1))
    ideal = ideal_from_mask(poset, 0)
    bp = partition_in_accordance(ideal)
    model = CountingModel(ideal.rst.ambient_dim, bp.hyperplanes, blocks=bp.blocks)
    assert model.coboundary_at_prime(3) == UnivariatePolynomial([2, 1])


def test_ideal_closed_form_equals_brute_force_on_worked_examples():
    for label in WORKED_CLASSICAL:
        ideal = worked_ideal(label)
        bp = partition_in_accordance(ideal)
        n = ideal.rst.ambient_dim
        model = CountingModel(n, bp.hyperplanes, blocks=bp.blocks)
        for p in (3, 5):
            prof = model.coboundary_at_prime(p)
            assert prof == count_points_bruteforce(complement(ideal), n, p).coboundary(), (
                label,
                p,
            )


def test_counting_model_automorphism_blocks():
    # the braid on 3 coordinates has a single exchangeable block
    model = CountingModel(3, [(1, 2), (1, 3), (2, 3)])
    assert model.blocks == [[1, 2, 3]]
    # one isolated coordinate splits off
    model = CountingModel(3, [(1, 2)])
    assert model.blocks == [[1, 2], [3]]


def _gaussian_rank(m, tuples):
    return crapo.rank_of([tuple_normal(t, m) for t in tuples])


@pytest.mark.parametrize("m, tuples, rank", [
    (3, [], 0),  # isolated coordinates
    (2, [(1, 0)], 1),  # x_1 = 0 alone: a half-edge unbalances its component
    (3, [(1, 2), (2, 3), (1, 3)], 2),  # a balanced cycle
    (3, [(1, 2), (2, 3), (1, -3)], 3),  # an unbalanced cycle
    (3, [(1, 2), (1, -2)], 2),  # x_1 = +-x_2: an unbalanced 2-cycle
    (4, [(1, -2), (2, -3), (1, 3), (4, 0)], 3),  # two negative edges balance a cycle
])
def test_rank_is_m_minus_the_balanced_components(m, tuples, rank):
    assert CountingModel(m, tuples).rank == _gaussian_rank(m, tuples) == rank


def test_a_model_on_zero_coordinates_is_one():
    # with no blocks the move-weight table's one entry is 0
    model = CountingModel(0, [])
    assert model.coboundary() == BivariatePolynomial.one() and model.rank == 0
    assert model.coboundary_at_prime(3) == UnivariatePolynomial([1])


def test_rank_matches_gaussian_elimination_on_small_rank_components():
    distinct = set()
    for family, rank in [("A", 6), ("B", 5), ("C", 5), ("D", 5)]:
        poset = root_poset(root_system_type(family, rank))
        distinct.update(component_tuples(enumerate_ideals(poset)))
    assert len(distinct) == 607
    for m, tuples in distinct:
        assert CountingModel(m, tuples).rank == _gaussian_rank(m, tuples), (m, tuples)


def test_classical_pipeline_takes_no_gaussian_rank(monkeypatch):
    def refuse(_):
        raise AssertionError("crapo.rank_of was called")

    monkeypatch.setattr(crapo, "rank_of", refuse)
    for label in WORKED_CLASSICAL:
        tutte_of_ideal(worked_ideal(label))
    for ideal in enumerate_ideals(root_poset(root_system_type("C", 4))):
        tutte_of_ideal(ideal)


def test_counting_model_rejects_bad_blocks():
    braid = [(1, 2), (1, 3), (2, 3)]
    # blocks that do not partition 1..m: a coordinate missing, repeated, or out of range
    for blocks in ([[1, 2]], [[1, 2], [2, 3]], [[1, 2, 3, 4]], [[0, 1, 2, 3]]):
        with pytest.raises(ConstraintError, match="partition"):
            CountingModel(3, braid, blocks=blocks)
    # non-uniform blocks: within a block, across two blocks, on the zero column
    with pytest.raises(ConstraintError, match="pair-uniform"):
        CountingModel(3, [(1, 2)], blocks=[[1, 2, 3]])
    with pytest.raises(ConstraintError, match="pair-uniform"):
        CountingModel(3, [(1, 3)], blocks=[[1], [2, 3]])
    with pytest.raises(ConstraintError, match="pair-uniform"):
        CountingModel(3, [(1, -2)], blocks=[[1], [2, 3]])
    with pytest.raises(ConstraintError, match="zero column"):
        CountingModel(2, [(1, 0)], blocks=[[1, 2]])


def test_counting_model_rejects_an_empty_block():
    # the members still cover 1..m, but a partition has no empty part
    with pytest.raises(ConstraintError, match="partition"):
        CountingModel(2, [(1, 2)], blocks=[[1, 2], []])


def test_counting_model_counts_the_tuple_set():
    # a repeated tuple names one hyperplane: counted over the list, x_1 = x_2
    # would hold on 4 of the 3 pairs of the block [1, 2, 3]
    model = CountingModel(3, [(1, 2), (1, 2), (1, 3), (2, 3)])
    assert model.blocks == [[1, 2, 3]]
    assert model.coboundary() == CountingModel(3, [(1, 2), (1, 3), (2, 3)]).coboundary()


@pytest.mark.parametrize("t", [(2, 1), (2, -1), (1, 1), (0, 2), (1, 4), (4, 0), (1, -4)])
def test_counting_model_rejects_malformed_tuples(t):
    # (2, 1) names the hyperplane x_1 = x_2 out of normal form, which the
    # incidence flags would not see
    with pytest.raises(ConstraintError, match="hyperplane tuple"):
        CountingModel(3, [t])


def _rounds(model):
    """The model's packed rounds G_u, as dense t-coefficient lists."""
    width, rounds = model._packed_rounds()
    mask = (1 << width) - 1
    return tuple([g >> e * width & mask for e in range(len(model.tuples) + 1)] for g in rounds)


def test_residue_profile_single_hyperplane():
    # x1 = x2 needs no pairing, so one residue is one step: G_0 = t (both on
    # residue 0); one non-empty residue takes both coordinates (t) or one
    # while the other stays on residue 0 (2); a set of two residues takes
    # one each (1)
    model = CountingModel(2, [(1, 2)])
    assert model.stride == 1
    assert _rounds(model) == ([0, 1], [2, 1], [1, 0])
    assert model.coboundary_at_prime(5) == UnivariatePolynomial([4, 1])  # [20, 5] / 5
    assert model.coboundary() == BivariatePolynomial(
        {(1, 0): 1, (0, 0): -1, (0, 1): 1}, ("q", "t")
    )


def test_pair_profile_single_hyperplane():
    # x1 = -x2 pairs c with p-c: G_0 = t (both on residue 0); one non-empty
    # pair takes both coordinates (2 + 2t ways) or one after the other took
    # residue 0 (4); a set of two pairs takes one each (4)
    model = CountingModel(2, [(1, -2)])
    assert model.stride == 2
    assert _rounds(model) == ([0, 1], [6, 2], [4, 0])
    assert model.coboundary_at_prime(5) == UnivariatePolynomial([4, 1])  # [20, 5] / 5
    assert model.coboundary() == BivariatePolynomial(
        {(1, 0): 1, (0, 0): -1, (0, 1): 1}, ("q", "t")
    )


def test_pair_profile_reads_out_every_prime():
    # one DP serves every prime: the read-out equals brute force at several
    ideal = worked_ideal("b")
    tuples = complement(ideal)
    n = ideal.rst.ambient_dim
    model = CountingModel(n, tuples)
    for p in (3, 5, 7):
        assert model.coboundary_at_prime(p) == count_points_bruteforce(tuples, n, p).coboundary()


def _set_rounds(model, rounds):
    """Replace the model's packed rounds G_u by ``rounds``, dense t-lists."""
    width, _ = model._packed_rounds()
    model._rounds = (width, tuple(sum(c << e * width for e, c in enumerate(g)) for g in rounds))


def _tamper_checks(model, not_by_q, not_q_rank):
    _set_rounds(model, not_by_q)
    with pytest.raises(InconsistencyError, match="q\\^\\(m-rank\\)"):
        model.coboundary()
    _set_rounds(model, not_q_rank)  # divisible by q^(m-rank), but not q^rank at t = 1
    with pytest.raises(InconsistencyError, match="chi-bar\\(q, 1\\)"):
        model.coboundary()


def test_direct_coboundary_checks_its_divisions():
    # G = (t, 2 + t, 1), and N = G_0 + G_1 (q-1) + G_2 (q-1)(q-2): the
    # single-residue kernel divides no round, so a tampered round is caught
    # by the division by q^(m-rank) or by chi-bar(q, 1) = q^rank
    model = CountingModel(2, [(1, 2)])
    assert _rounds(model) == ([0, 1], [2, 1], [1, 0])
    _tamper_checks(model, ([0, 1], [2, 1], [2]), ([0, 2], [2, 2], [1]))


def test_direct_coboundary_checks_its_divisions_pair_kernel():
    # G = (t, 6 + 2t, 4), and N = G_0 + G_1 (q-1)/2 + G_2 (q-1)(q-3)/4: at
    # stride 2 every t-coefficient of G_u must be divisible by 2^u
    model = CountingModel(2, [(1, -2)])
    assert _rounds(model) == ([0, 1], [6, 2], [4, 0])
    for odd in (([0, 1], [7, 1], [4]), ([0, 1], [6, 2], [2])):
        _set_rounds(model, odd)
        with pytest.raises(InconsistencyError, match="not divisible by s"):
            model.coboundary()
    _tamper_checks(model, ([0, 1], [8, 0], [4]), ([0, 2], [6, 4], [4]))


def _complete_multipartite(parts, size):
    """Hyperplanes x_i = x_j between coordinates of different parts of
    ``parts`` blocks of ``size`` coordinates each."""
    m = parts * size
    return m, [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
               if (i - 1) // size != (j - 1) // size]


@pytest.mark.parametrize("zero", [False, True])
def test_counting_dp_retains_no_move_table(zero):
    # K_{2,2,2,2,2,2}: six blocks of 2, at stride 1, or stride 2 with every
    # x_i = 0 added.  Pointing keeps 27993 of the 6^6 - 3^6 = 45927 nonzero
    # m <= r over all states r.  The move table is one list slot per move,
    # about 0.25 MB, and is freed on return; the rest of the peak is the live
    # states.  The peak bounds keep a per-call cache of big-int move products
    # out.
    m, tuples = _complete_multipartite(6, 2)
    if zero:
        tuples += [(i, 0) for i in range(1, m + 1)]
    model = CountingModel(m, tuples)
    assert model.stride == (2 if zero else 1) and sorted(map(len, model.blocks)) == [2] * 6
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model._packed_rounds()
        retained, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    assert peak < (10 if zero else 2) << 20
    assert sum(map(len, model._state_tables(1)[0])) == 27993


@pytest.mark.parametrize("m, tuples", [
    (2, [(1, 2)]), (2, [(1, -2)]), _complete_multipartite(3, 2), (3, [(1, 0), (2, 0), (3, 0)]),
])
def test_counting_dp_checks_its_division_by_d(monkeypatch, m, tuples):
    # D = prod_i n_i! > 1: one more t^e in the weight of consuming one
    # coordinate of the first block leaves a state that D does not divide
    split_table = CountingModel._split_table

    def tampered(self, width):
        weights = split_table(self, width)
        w, shift = weights[1]
        weights[1] = (w + 1, shift)
        return weights

    monkeypatch.setattr(CountingModel, "_split_table", tampered)
    model = CountingModel(m, tuples)
    assert len(model.blocks[0]) >= 2
    with pytest.raises(InconsistencyError, match="not divisible by D"):
        model.coboundary()


def test_coboundary_polynomials_are_pinned():
    # every ideal of A6, B5, C5 and D5 in enumeration order, family by family,
    # as the JSON the CLI emits
    digest = hashlib.sha256()
    count = 0
    for family, rank in [("A", 6), ("B", 5), ("C", 5), ("D", 5)]:
        for ideal in enumerate_ideals(root_poset(root_system_type(family, rank))):
            poly = coboundary_of_ideal(ideal, engine="ffmethod").to_json_dict()
            digest.update((json.dumps(poly, sort_keys=True) + "\n").encode())
            count += 1
    assert count == 1115
    assert digest.hexdigest() == (
        "92de6b203bba87e10610f78d321410fa6f116529090a441cacc0674183418481"
    )


# ---- the full pipeline ------------------------------------------------------------


@pytest.mark.parametrize("label", ["a", "b", "c"])
def test_pipeline_matches_published_polynomials(label):
    ideal = worked_ideal(label)
    assert coboundary_of_ideal(ideal, engine="ffmethod") == load_poly(
        f"coboundary_i{label}.txt", ("q", "t")
    )
    tutte = tutte_of_ideal(ideal, engine="ffmethod")
    assert tutte == load_poly(f"tutte_i{label}.txt", ("x", "y"))


@pytest.mark.parametrize("family, rank", [("A", 6), ("B", 5), ("C", 5), ("D", 5)])
def test_component_ranks_add_up_to_the_arrangement_rank(family, rank):
    for ideal in enumerate_ideals(root_poset(root_system_type(family, rank))):
        assert coboundary_and_rank(ideal)[1] == arrangement_of(ideal).rank


def test_pipeline_full_ideal_is_one():
    poset = root_poset(root_system_type("B", 3))
    full_ideal = ideal_from_mask(poset, (1 << len(poset)) - 1)
    assert coboundary_of_ideal(full_ideal, engine="ffmethod") == BivariatePolynomial.one()


def test_pipeline_empty_ideal_braid_a3():
    # chi-bar of the braid arrangement; its Tutte transform has T(1,1) = 16
    poset = root_poset(root_system_type("A", 3))
    empty = ideal_from_mask(poset, 0)
    cb = coboundary_of_ideal(empty, engine="ffmethod")
    t = coboundary_to_tutte(cb, 3)
    assert t.evaluate(1, 1) == 16
    assert cb == CountingModel(4, full_tuples("A", 4)).coboundary()


def test_pipeline_rejects_exceptional():
    poset = root_poset(root_system_type("G2"))
    with pytest.raises(Exception):
        coboundary_and_rank(ideal_from_mask(poset, 0))


def test_theorem_identity_profile_vs_closed_form_sweep():
    # chi-bar(p, .) equals the brute-force profile over p^(n-rank) for every
    # ideal of B3 and D4 at the primes 3 and 5
    from idealtutte.ideals import enumerate_ideals

    for family, rank in (("B", 3), ("D", 4)):
        poset = root_poset(root_system_type(family, rank))
        n = poset.rst.ambient_dim
        for ideal in enumerate_ideals(poset):
            tuples = complement(ideal)
            if not tuples:
                continue
            model = CountingModel(n, tuples)
            for p in (3, 5):
                assert model.coboundary_at_prime(p) == count_points_bruteforce(
                    tuples, n, p
                ).coboundary(), (family, ideal, p)


def test_chi_bar_at_one_is_q_rank():
    for label in WORKED_CLASSICAL:
        ideal = worked_ideal(label)
        cb = coboundary_of_ideal(ideal, engine="ffmethod")
        r = arrangement_of(ideal).rank
        for q in (7, 97):
            assert cb.evaluate(q, 1) == q ** r


def test_q_degree_bounded_by_rank():
    for label in WORKED_CLASSICAL:
        ideal = worked_ideal(label)
        cb = coboundary_of_ideal(ideal, engine="ffmethod")
        assert cb.degree(0) <= arrangement_of(ideal).rank
