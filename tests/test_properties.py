"""Randomized property suites with fixed seeds (the Hypothesis ones run
derandomized); together with the sweeps these cover well over a thousand
independently generated cases."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_sum
from idealtutte.crapo import VectorConfig, rank_of, tutte_corank_nullity, tutte_crapo
from idealtutte.exactpoly import (
    BivariatePolynomial,
    UnivariatePolynomial,
    coboundary_to_tutte,
    lagrange_interpolate,
    tutte_to_coboundary,
)
from idealtutte.ideals import Ideal, complement
from idealtutte.errors import ConstraintError
from idealtutte.paper import generating_boxes, partition_in_accordance, reconstruct_tuples
from idealtutte.rootsystems import root_poset, root_system_type


def total_degree(p):
    """The largest a + b of a term x^a y^b of p; -1 for the zero polynomial."""
    return max((a + b for a, b in p.coeffs), default=-1)


def random_bivariate(rng, max_deg=5, max_terms=8, variables=("x", "y")):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = rng.randint(-9, 9)
    return BivariatePolynomial(coeffs, variables)


def test_ring_laws_random():
    rng = random.Random(1001)
    for _ in range(300):
        p = random_bivariate(rng)
        q = random_bivariate(rng)
        r = random_bivariate(rng)
        assert poly_sum(p, q) * r == poly_sum(p * r, q * r)
        assert p * q == q * p
        assert p * (q * r) == (p * q) * r
        assert p * BivariatePolynomial.one() == p
        if p.coeffs and q.coeffs:
            assert total_degree(p * q) <= total_degree(p) + total_degree(q)
            # leading terms cannot cancel in a domain
            assert (p * q).coeffs


def test_interpolation_round_trip_random():
    rng = random.Random(1003)
    for _ in range(200):
        qdeg = rng.randint(0, 8)
        tdeg = rng.randint(0, 6)
        coeffs = {
            (dq, dt): rng.randint(-50, 50)
            for dq in range(qdeg + 1)
            for dt in range(tdeg + 1)
            if rng.random() < 0.5
        }
        poly = BivariatePolynomial(coeffs, ("q", "t"))
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29)[: qdeg + 1]
        points = []
        for p in primes:
            prof = [0] * (tdeg + 1)
            for (dq, dt), c in poly.coeffs.items():
                prof[dt] += c * p ** dq
            points.append((p, UnivariatePolynomial(prof)))
        assert lagrange_interpolate(points) == poly


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def tutte_like(draw):
    """(T, rank): random integer coefficients with x-degree at most rank."""
    rank = draw(st.integers(0, 7))
    coeffs = draw(st.dictionaries(
        st.tuples(st.integers(0, rank), st.integers(0, 9)), st.integers(-60, 60), max_size=12
    ))
    return BivariatePolynomial(coeffs, ("x", "y")), rank


def termwise_tutte_to_coboundary(tutte, rank):
    """Reference: expand (t-1)^rank x^a y^b as (q + t - 1)^a (t-1)^(rank-a) t^b, term by term."""
    tm1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1}, ("q", "t"))
    qplus = BivariatePolynomial({(1, 0): 1, (0, 1): 1, (0, 0): -1}, ("q", "t"))
    terms = [BivariatePolynomial({}, ("q", "t"))]
    for (a, b), c in tutte.coeffs.items():
        term = BivariatePolynomial({(0, b): c}, ("q", "t"))
        for factor in [qplus] * a + [tm1] * (rank - a):
            term = term * factor
        terms.append(term)
    return poly_sum(*terms)


@PROPERTY_SETTINGS
@given(tutte_like())
def test_tutte_coboundary_round_trip(case):
    tutte, rank = case
    assert coboundary_to_tutte(tutte_to_coboundary(tutte, rank), rank) == tutte


@PROPERTY_SETTINGS
@given(tutte_like())
def test_tutte_to_coboundary_matches_termwise_expansion(case):
    tutte, rank = case
    assert tutte_to_coboundary(tutte, rank) == termwise_tutte_to_coboundary(tutte, rank)


def test_crapo_order_invariance_random():
    rng = random.Random(1004)
    configs = 0
    while configs < 10:
        m, d = rng.randint(4, 7), rng.randint(2, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
        if rank_of(vecs) == 0:
            continue
        configs += 1
        want = tutte_crapo(VectorConfig(vecs))
        perm = list(vecs)
        for _ in range(20):
            rng.shuffle(perm)
            assert tutte_crapo(VectorConfig(perm)) == want


def test_deletion_contraction_random():
    from test_crapo import _contract

    rng = random.Random(1005)
    done = 0
    while done < 100:
        m, d = rng.randint(4, 9), rng.randint(2, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
        cfg = VectorConfig(vecs)
        r = cfg.rank
        if r == 0:
            continue
        choice = None
        for i, v in enumerate(vecs):
            if all(x == 0 for x in v):
                continue
            rest = vecs[:i] + vecs[i + 1 :]
            if rank_of(rest) < r:
                continue
            choice, vec, rest_v = i, v, rest
            break
        if choice is None:
            continue
        t_all = tutte_corank_nullity(cfg)
        t_del = tutte_corank_nullity(VectorConfig(rest_v, dim=d))
        t_con = tutte_corank_nullity(VectorConfig(_contract(rest_v, vec), dim=d - 1))
        assert t_all == poly_sum(t_del, t_con)
        done += 1


def random_ideal(rng, poset):
    seed_mask = 0
    for i in range(len(poset)):
        if rng.random() < 0.3:
            seed_mask |= poset.up_masks[i]
    return Ideal(poset, seed_mask)


def test_reconstruction_random_ideals():
    # 100 random ideals per classical family: partition flags rebuild the
    # hyperplane set exactly whenever a diagram presentation exists
    rng = random.Random(1006)
    checked = 0
    for family, rank in (("A", 6), ("B", 4), ("C", 4), ("D", 5)):
        poset = root_poset(root_system_type(family, rank))
        for _ in range(100):
            ideal = random_ideal(rng, poset)
            comp = complement(ideal)
            if not comp.roots:
                continue
            try:
                bp = partition_in_accordance(comp)
            except ConstraintError:
                continue  # no diagram presentation (D fork split)
            assert reconstruct_tuples(bp) == comp.tuple_set()
            checked += 1
    assert checked >= 250


def test_random_complements_downward_closed():
    rng = random.Random(1007)
    for family, rank in (("B", 5), ("D", 6)):
        poset = root_poset(root_system_type(family, rank))
        for _ in range(50):
            ideal = random_ideal(rng, poset)
            cmask = ideal.complement_mask()
            for i in range(len(poset)):
                if cmask >> i & 1:
                    assert poset.down_masks[i] & ~cmask == 0


def test_random_ideal_box_round_trip():
    rng = random.Random(1008)
    from idealtutte.ideals import ideal_from_boxes

    for family, rank in (("A", 7), ("B", 5), ("C", 5)):
        poset = root_poset(root_system_type(family, rank))
        for _ in range(50):
            ideal = random_ideal(rng, poset)
            comp = complement(ideal)
            if not comp.roots:
                continue
            boxes = generating_boxes(comp)
            assert ideal_from_boxes(poset, boxes).mask == ideal.mask
