from collections import Counter

import pytest

from conftest import (
    IDEAL_F,
    IDEAL_G,
    TAMPERED_ENGINES,
    exceptional_ideal,
    full_coboundary,
    full_poset,
    swap_b3_restriction,
    tamper_engine,
    worked_ideal,
)
from idealtutte import specialize
from idealtutte.errors import InconsistencyError
from idealtutte.exactpoly import (
    BivariatePolynomial,
    UnivariatePolynomial,
    coboundary_to_characteristic,
    coboundary_to_tutte,
    parse_polynomial,
)
from idealtutte.ideals import (
    arrangement_of,
    check_exponent_factorization,
    enumerate_ideals,
    ideal_exponents,
    ideal_from_mask,
    iter_ideals,
)
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import (
    certify_tutte,
    characteristic_polynomial,
    coboundary_of_ideal,
    region_count,
    tutte_of_ideal,
    tutte_to_coboundary,
)


def test_ideal_exponents_g2():
    ig = exceptional_ideal("G2", IDEAL_G)
    ex = ideal_exponents(ig)
    assert ex.heights == (2, 1, 1)
    assert ex.exponents == (3, 1)
    assert ex.total() == 4


def test_ideal_exponents_empty_ideal_braid():
    for n in (3, 4, 5):
        poset = root_poset(root_system_type("A", n - 1))
        empty = ideal_from_mask(poset, 0)
        assert ideal_exponents(empty).exponents == tuple(range(n - 1, 0, -1))


def test_ideal_exponents_full_ideal():
    poset = root_poset(root_system_type("A", 3))
    full = ideal_from_mask(poset, (1 << len(poset)) - 1)
    assert ideal_exponents(full).exponents == ()


def test_exponent_sum_is_hyperplane_count():
    from idealtutte.ideals import enumerate_ideals

    for family, rank in (("B", 3), ("G2", 2)):
        poset = root_poset(root_system_type(family, rank))
        for ideal in enumerate_ideals(poset):
            assert ideal_exponents(ideal).total() == len(ideal.complement_indices())


def test_region_counts_weyl_orders():
    for family, n, order in (
        ("A", 2, 2), ("A", 3, 6), ("A", 4, 24),
        ("B", 2, 8), ("B", 3, 48), ("B", 4, 384),
        ("D", 4, 192),
    ):
        rank = n - 1 if family == "A" else n
        tutte = coboundary_to_tutte(full_coboundary(family, n), rank)
        assert region_count(tutte) == order
        # Zaslavsky's count from the default engine's chi, an independent
        # route to the same number
        chi = characteristic_polynomial(ideal_from_mask(full_poset(family, n), 0))
        assert (-1) ** n * chi.evaluate(-1) == order


def test_region_count_g2_full():
    poset = root_poset(root_system_type("G2"))
    tutte = tutte_of_ideal(ideal_from_mask(poset, 0), engine="crapo")
    assert region_count(tutte) == 12


def test_region_count_examples():
    one = parse_polynomial("1")
    assert region_count(one) == 1
    braid = parse_polynomial("x^2 + x + y")
    assert region_count(braid) == 6
    b2 = coboundary_to_tutte(full_coboundary("B", 2), 2)
    assert region_count(b2) == 8


def test_region_count_rejects_nonpositive():
    with pytest.raises(InconsistencyError):
        region_count(parse_polynomial("0"))


def _factorization(ideal):
    """check_exponent_factorization on the chi(q) of the default engine."""
    return check_exponent_factorization(ideal, characteristic_polynomial(ideal).coeffs)


def test_factorization_worked_examples():
    assert _factorization(exceptional_ideal("G2", IDEAL_G)) == (3, 1)
    assert _factorization(exceptional_ideal("F4", IDEAL_F)) == (5, 5, 5, 1)
    for label, exponents in (
        ("a", (3, 3, 2, 2, 2, 2, 1)),
        ("b", (5, 5, 4, 3, 3, 1)),
        ("c", (5, 5, 4, 3, 3, 1)),
        ("d", (4, 3, 3, 2, 2, 1)),
    ):
        assert _factorization(worked_ideal(label)) == exponents, label


def test_factorization_full_braid():
    poset = root_poset(root_system_type("A", 3))
    ideal = ideal_from_mask(poset, 0)
    chi = characteristic_polynomial(ideal)
    # q (q-1)(q-2)(q-3)
    assert chi == UnivariatePolynomial([0, -6, 11, -6, 1])
    assert check_exponent_factorization(ideal, chi.coeffs) == (3, 2, 1)


@pytest.mark.parametrize(
    "tamper",
    [
        # chi-bar(q, 0) = (q - 1)(q - 3) + 1 = (q - 2)^2
        lambda cb: cb + BivariatePolynomial.one(("q", "t")),
        # 2 (q - 1)(q - 3): both exponents divide and 2 is left over
        lambda cb: cb + cb,
    ],
    ids=["plus-one", "doubled"],
)
def test_factorization_refuses_a_tampered_coboundary(monkeypatch, tamper):
    real = specialize._coboundary_and_rank

    def tampered(*args):
        cb, rank = real(*args)
        return tamper(cb), rank

    monkeypatch.setattr(specialize, "_coboundary_and_rank", tampered)
    split = r"is not q\^3 - 4q\^2 \+ 3q, the product over its ideal exponents \[3, 1\]"
    with pytest.raises(InconsistencyError, match=split):
        _factorization(exceptional_ideal("G2", IDEAL_G))


@pytest.mark.parametrize(
    "family, rank, count",
    [("G2", None, 8), ("F4", None, 105), ("E6", None, 833),
     ("A", 6, 429), ("B", 5, 252), ("C", 5, 252), ("D", 5, 182)],
)
def test_every_ideal_splits_over_its_height_exponents(family, rank, count):
    # Abe-Barakat-Cuntz-Hoge-Terao on every ideal, with the heights counted
    # here from the complement's roots
    ideals = list(iter_ideals(root_poset(root_system_type(family, rank))))
    assert len(ideals) == count
    for ideal in ideals:
        counts = Counter(root.height for root in ideal.complement_roots())
        exps = ideal_exponents(ideal)
        assert exps.heights == tuple(counts[h] for h in range(1, max(counts, default=0) + 1))
        assert _factorization(ideal) == exps.exponents


def test_characteristic_polynomial_engines_agree():
    ideal = worked_ideal("d")
    assert characteristic_polynomial(ideal, engine="ffmethod") == characteristic_polynomial(
        ideal, engine="oracle"
    )


def test_coboundary_of_ideal_exceptional_route():
    ig = exceptional_ideal("G2", IDEAL_G)
    cb = coboundary_of_ideal(ig, engine="crapo")
    # rank 2, 4 hyperplanes: chi-bar(q, 1) = q^2 and the transform returns T
    assert cb.evaluate(5, 1) == 25
    assert coboundary_to_tutte(cb, 2) == parse_polynomial("x^2 + y^2 + 2x + 2y")


def test_tutte_to_coboundary_round_trip():
    for label in ("a", "d"):
        ideal = worked_ideal(label)
        t = tutte_of_ideal(ideal)
        r = arrangement_of(ideal).rank
        assert coboundary_to_tutte(tutte_to_coboundary(t, r), r) == t


def test_tutte_of_ideal_engine_equivalence_small():
    poset = root_poset(root_system_type("B", 2))
    from idealtutte.ideals import enumerate_ideals

    for ideal in enumerate_ideals(poset):
        t_ff = tutte_of_ideal(ideal, engine="ffmethod")
        t_cr = tutte_of_ideal(ideal, engine="crapo")
        t_or = tutte_of_ideal(ideal, engine="oracle")
        assert t_ff == t_cr == t_or


CERTIFICATE_0 = r"chi-bar\(1, t\) = t\^m"

@pytest.mark.parametrize("family, rank, owner, name", TAMPERED_ENGINES)
def test_tampered_coboundary_fails_the_tutte_certificate(monkeypatch, family, rank, owner, name):
    engine = tamper_engine(monkeypatch, owner, name)
    for ideal in enumerate_ideals(root_poset(root_system_type(family, rank))):
        with pytest.raises(InconsistencyError, match=CERTIFICATE_0):
            tutte_of_ideal(ideal, engine=engine)


@pytest.mark.parametrize("family, rank, owner, name", TAMPERED_ENGINES)
def test_tampered_coboundary_fails_every_command(monkeypatch, family, rank, owner, name):
    # the tampers above, caught by the coboundary's own certificate before
    # any Tutte transform
    engine = tamper_engine(monkeypatch, owner, name)
    for ideal in enumerate_ideals(root_poset(root_system_type(family, rank))):
        for command in (coboundary_of_ideal, characteristic_polynomial):
            with pytest.raises(InconsistencyError, match=CERTIFICATE_0):
                command(ideal, engine=engine)


def test_chi_bar_of_another_ideal_fails_the_factorization(monkeypatch):
    # the B3 lattice serves one ideal the true chi-bar of another with the
    # same m and rank: the degrees, the q^r column and chi-bar(1, t) = t^m
    # all hold, and only chi's split over the ideal exponents refuses it
    ideal, swap = swap_b3_restriction(monkeypatch)
    assert coboundary_of_ideal(swap) != coboundary_of_ideal(ideal, engine="crapo")
    for command in (tutte_of_ideal, coboundary_of_ideal, characteristic_polynomial):
        with pytest.raises(InconsistencyError, match=r"ideal exponents \[3, 1, 1\]"):
            command(ideal)


# ---- the certificate of a Tutte polynomial read back from the cache ----------


@pytest.mark.parametrize(
    "tutte, match",
    [
        ("2x^2 + y^2 + 2y", r"q\^r column"),  # T(2,2) = 2^4, x^2 column 2
        ("x^2 + y^3 + 4", "degree bounds"),  # T(2,2) = 2^4, y-degree 3 > m - r = 2
        ("3y + 2x + y^2 + x^2", CERTIFICATE_0),  # T(2,2) = 2^4 + 2
        # the true T plus xy - x - y, which sums to 0 on the hyperbola, but
        # chi = (q - 1)(q - 2) does not split over the exponents 3, 1
        ("x^2 + x + y + y^2 + xy", "ideal exponents"),
        # T(2,2) = 2^4, the degree bounds and the true chi, but t_10 = 2, t_01 = 4
        ("x^2 + 2x + 4y", CERTIFICATE_0),
        # T(2,2) = 2^4, t_10 = t_01, the degree bounds and the true chi
        ("x^2 + 2x + 2y + xy", CERTIFICATE_0),
        # the true T minus xy - x - y: on the hyperbola, a negative coefficient
        ("x^2 + 3x + 3y + y^2 - xy", "negative coefficient"),
    ],
    ids=["x-r-column", "y-degree", "t22-off-by-2", "chi-does-not-split", "x-y-coefficients",
         "xy-for-y2", "negative"],
)
def test_certify_tutte_refuses_a_wrong_g2_polynomial(tutte, match):
    ideal = exceptional_ideal("G2", IDEAL_G)  # 4 complement roots of rank 2
    with pytest.raises(InconsistencyError, match=match):
        certify_tutte(ideal, parse_polynomial(tutte))
    true = parse_polynomial("2y + 2x + y^2 + x^2")
    assert certify_tutte(ideal, true) == tutte_to_coboundary(true, 2)


@pytest.mark.parametrize(
    "family, rank", [("F4", None), ("E6", None), ("A", 5), ("B", 4), ("C", 4), ("D", 4)]
)
def test_certified_tutte_gives_the_dispatcher_chi(family, rank):
    # chi read off the chi-bar that the certificate returns, at its
    # q-degree, the rank, on every ideal
    rst = root_system_type(family, rank)
    for ideal in iter_ideals(root_poset(rst)):
        tutte = tutte_of_ideal(ideal)
        cb = certify_tutte(ideal, tutte)
        assert cb == tutte_to_coboundary(tutte, tutte.degree(0))
        chi = coboundary_to_characteristic(cb, rst.ambient_dim, cb.degree(0))
        assert chi == characteristic_polynomial(ideal), ideal
