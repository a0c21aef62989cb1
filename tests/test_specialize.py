from collections import Counter

import pytest

from conftest import (
    IDEAL_F,
    IDEAL_G,
    NEGATIVE_T,
    TAMPERED_ENGINES,
    exceptional_ideal,
    full_coboundary,
    full_poset,
    plus_t_minus_1_power,
    poly_sum,
    swap_b3_restriction,
    tamper_engine,
    worked_ideal,
)
from idealtutte import flats, specialize
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
    decompose_components,
    enumerate_ideals,
    ideal_exponents,
    ideal_from_boxes,
    ideal_from_mask,
    iter_ideals,
)
from idealtutte.rootsystems import root_poset, root_system_type
from idealtutte.specialize import (
    certify_coboundary,
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
            assert sum(ideal_exponents(ideal).heights) == len(ideal.complement_indices())


def test_region_counts_weyl_orders():
    for family, n, order in (
        ("A", 2, 2), ("A", 3, 6), ("A", 4, 24),
        ("B", 2, 8), ("B", 3, 48), ("B", 4, 384),
        ("D", 4, 192),
    ):
        tutte = coboundary_to_tutte(full_coboundary(family, n))
        assert region_count(tutte) == order
        # Zaslavsky's count from the default engine's chi, an independent
        # route to the same number
        chi = characteristic_polynomial(ideal_from_mask(full_poset(family, n), 0))
        assert (-1) ** n * sum(c * (-1) ** k for k, c in enumerate(chi.coeffs)) == order


def test_region_count_g2_full():
    poset = root_poset(root_system_type("G2"))
    tutte = tutte_of_ideal(ideal_from_mask(poset, 0), engine="crapo")
    assert region_count(tutte) == 12


def test_region_count_examples():
    one = parse_polynomial("1")
    assert region_count(one) == 1
    braid = parse_polynomial("x^2 + x + y")
    assert region_count(braid) == 6
    b2 = coboundary_to_tutte(full_coboundary("B", 2))
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
        lambda cb: poly_sum(cb, BivariatePolynomial.one(("q", "t"))),
        # 2 (q - 1)(q - 3): both exponents divide and 2 is left over
        lambda cb: poly_sum(cb, cb),
    ],
    ids=["plus-one", "doubled"],
)
def test_factorization_refuses_a_tampered_coboundary(monkeypatch, tamper):
    real = specialize.polynomials_of_ideal

    def tampered(*args):
        cb, tutte = real(*args)
        return tamper(cb), tutte

    monkeypatch.setattr(specialize, "polynomials_of_ideal", tampered)
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
    assert coboundary_to_tutte(cb) == parse_polynomial("x^2 + y^2 + 2x + 2y")


def test_tutte_to_coboundary_round_trip():
    for label in ("a", "d"):
        ideal = worked_ideal(label)
        t = tutte_of_ideal(ideal)
        cb = tutte_to_coboundary(t)
        assert cb.degree(0) == t.degree(0) == arrangement_of(ideal).rank
        assert coboundary_to_tutte(cb) == t


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


# ---- the certificate of a chi-bar read back from the cache ------------------


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
        # the true T minus xy - x - y: on the hyperbola, with a negative
        # coefficient, but chi = q^2 - 5q + 4 does not split
        ("x^2 + 3x + 3y + y^2 - xy", "ideal exponents"),
    ],
    ids=["x-r-column", "y-degree", "t22-off-by-2", "chi-does-not-split", "x-y-coefficients",
         "xy-for-y2", "negative"],
)
def test_certify_tutte_refuses_a_wrong_g2_polynomial(tutte, match):
    # each wrong T, read back as the chi-bar that a cache entry holds, fails
    # the certificate, and the true T is what the certificate returns
    ideal = exceptional_ideal("G2", IDEAL_G)  # 4 complement roots of rank 2
    with pytest.raises(InconsistencyError, match=match):
        certify_coboundary(ideal, tutte_to_coboundary(parse_polynomial(tutte)))
    good = parse_polynomial("2y + 2x + y^2 + x^2")
    assert certify_coboundary(ideal, tutte_to_coboundary(good)) == good


@pytest.mark.parametrize(
    "family, rank", [("F4", None), ("E6", None), ("A", 5), ("B", 4), ("C", 4), ("D", 4)]
)
def test_certified_tutte_gives_the_dispatcher_chi(family, rank):
    # T read back as chi-bar passes the certificate, which returns T, and
    # chi read off it is the dispatcher's, on every ideal
    rst = root_system_type(family, rank)
    for ideal in iter_ideals(root_poset(rst)):
        tutte = tutte_of_ideal(ideal)
        cb = tutte_to_coboundary(tutte)
        assert certify_coboundary(ideal, cb) == tutte
        assert cb == coboundary_of_ideal(ideal)
        chi = coboundary_to_characteristic(cb, rst.ambient_dim)
        assert chi == characteristic_polynomial(ideal), ideal


def rank_forgery(ideal, cb):
    """q chi-bar - (q - 1) t^m, for the m complement roots: it keeps
    chi-bar(1, t) = t^m and, read at its q-degree r + 1, the q^(r+1)
    column, and its chi is q chi, which splits over the ideal exponents when
    chi does."""
    m = ideal.complement_mask().bit_count()
    shifted = BivariatePolynomial({(a + 1, b): c for (a, b), c in cb.coeffs.items()}, cb.variables)
    return poly_sum(shifted, BivariatePolynomial({(1, m): -1, (0, m): 1}, cb.variables))


@pytest.mark.parametrize("family", ["G2", "F4"])
def test_a_chi_bar_claimed_at_another_rank_is_refused(family):
    # the certificate takes the rank from the simple roots in the complement,
    # never from the polynomial, so the forgery's q-degree r + 1 fails the
    # degree bounds: read at that q-degree instead, 69 of these 113
    # forgeries would pass every other part of the certificate.  On the
    # empty complement the forgery is chi-bar itself, 1
    for ideal in iter_ideals(root_poset(root_system_type(family, None))):
        if ideal.complement_mask():
            with pytest.raises(InconsistencyError, match="degree bounds"):
                certify_coboundary(ideal, rank_forgery(ideal, coboundary_of_ideal(ideal)))


@pytest.mark.parametrize("family, rank", [("B", 4), ("F4", None)])
def test_a_chi_bar_whose_tutte_has_a_negative_coefficient_is_refused(family, rank):
    # chi-bar + 1000 t (q - 1)(t - 1)^r passes every linear part of the
    # certificate when r >= 2 and m >= r + 2, and only T's signs refuse it
    forged = 0
    for ideal in iter_ideals(root_poset(root_system_type(family, rank))):
        cb = coboundary_of_ideal(ideal)
        r, m = cb.degree(0), ideal.complement_mask().bit_count()
        if r >= 2 and m >= r + 2:
            forged += 1
            with pytest.raises(InconsistencyError, match="negative coefficient"):
                certify_coboundary(ideal, plus_t_minus_1_power(cb, NEGATIVE_T))
    assert forged == {"B": 42, "F4": 77}[family]


# every classical system up to A7, B6, C6 and D6, whose 5502 ideals auto's
# own route is held to the counting DP on; the ideals of D4, D5 and D6 whose
# complement holds alpha_(n-1) and alpha_n but not alpha_(n-2), which stay
# one component on the DP, number Catalan(n - 2)
ROUTE_SYSTEMS = [
    root_system_type(family, rank)
    for family, low, high in (("A", 1, 7), ("B", 2, 6), ("C", 2, 6), ("D", 4, 6))
    for rank in range(low, high + 1)
]
D_PAIRS = {"D4": 2, "D5": 5, "D6": 14}


@pytest.mark.parametrize("rst", ROUTE_SYSTEMS, ids=str)
def test_auto_reads_each_component_off_its_own_system(rst):
    # each component names its own system and its complement there, which
    # must be the complement of an ideal of that system; the product of the
    # components' chi-bar, each read off its own lattice or by the DP, is the
    # DP's chi-bar of the whole ideal
    from idealtutte import ffmethod

    poset, pairs = root_poset(rst), 0
    for ideal in iter_ideals(poset):
        for c in decompose_components(ideal):
            if c.rst is None:
                assert rst.family == "D" and c.mask is None and c.size == 2
                pairs += 1
                continue
            own = root_poset(c.rst)
            ideal_from_mask(own, ((1 << len(own)) - 1) ^ c.mask)  # raises unless an ideal
            assert c.mask.bit_count() == len(c.tuples)
        pieces = specialize.route_pieces(ideal, "auto")
        assert specialize.polynomials_of_pieces(ideal, "auto", pieces)[0] == \
            ffmethod.coboundary_of_ideal(ideal)
    assert pairs == D_PAIRS.get(str(rst), 0)


def test_auto_takes_its_own_route_past_the_cut_and_certifies_the_product(monkeypatch):
    # A7 less the up-set of alpha_4 leaves A3 x A3: auto reads both off the
    # A3 lattice, names its route auto, and a tampered restriction fails the
    # one certificate on the whole ideal
    ideal = ideal_from_boxes(root_poset(root_system_type("A", 7)), [(1, 4), (5, 8)])
    assert specialize.resolve_engine("auto", ideal.rst) == "auto"
    a3 = root_system_type("A", 3)
    assert [piece[:2] for piece in specialize.route_pieces(ideal, "auto")] == [(a3, "flats")] * 2
    assert specialize.route_pieces(ideal, "ffmethod") == [(ideal.rst, "ffmethod", None)]
    assert coboundary_of_ideal(ideal) == coboundary_of_ideal(ideal, engine="ffmethod")
    tamper_engine(monkeypatch, flats.FlatLattice, "restrict")
    with pytest.raises(InconsistencyError, match="the auto result fails its certificate"):
        tutte_of_ideal(ideal)


def test_every_route_resolves_to_itself():
    # the CLI and verify pass a resolved name on, so each must name its route
    for rst in ROUTE_SYSTEMS + [root_system_type(f) for f in ("G2", "F4", "E6")]:
        for engine in specialize.ENGINES:
            if engine == "ffmethod" and not rst.is_classical:
                continue
            route = specialize.resolve_engine(engine, rst)
            assert specialize.resolve_engine(route, rst) == route
