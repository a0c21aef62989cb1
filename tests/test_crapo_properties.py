"""Hypothesis property tests for the basis-activity kernel: on random small
integer configurations the exact kernel (tutte_crapo) equals the literal route
(tutte_crapo_exact in crapo_reference), and the coboundary transforms invert
each other on its Tutte polynomials.  The draws reach rank 6, the depth of the
kernel's prefix tree on E6, and cover configurations whose rank is below
their dimension, rank 1, parallel and zero vectors (loops), and coordinates
large enough that int64 eliminations could overflow, so the kernel runs on
Python integers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crapo_reference import tutte_crapo_exact
from idealtutte.crapo import VectorConfig, tutte_crapo
from idealtutte.exactpoly import coboundary_to_tutte, tutte_to_coboundary

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# 2: small entries, always the int64 kernel; 10**6: above rank 1 the
# Hadamard bound on the minors nearly always exceeds 2^30, the Python-integer
# kernel
SCALES = (2, 10 ** 6)


@st.composite
def configurations(draw):
    """Up to 10 vectors in dimension 1-6, each an integer combination of
    ``k <= dim`` generators, a multiple of an earlier vector, or zero."""
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, dim))
    bound = draw(st.sampled_from(SCALES))
    entries = st.integers(-bound, bound)
    gens = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=k, max_size=k))
    vectors = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("span", "parallel", "zero")))
        if kind == "zero":
            v = [0] * dim
        elif kind == "parallel" and vectors:
            scale = draw(st.sampled_from((-2, -1, 1, 3)))
            v = [scale * x for x in draw(st.sampled_from(vectors))]
        else:
            coeffs = draw(st.lists(entries, min_size=k, max_size=k))
            v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
        vectors.append(tuple(v))
    return VectorConfig(vectors, dim=dim)


@PROPERTY_SETTINGS
@given(cfg=configurations())
def test_vectorized_engine_matches_literal_route(cfg):
    assert tutte_crapo(cfg) == tutte_crapo_exact(cfg)


@PROPERTY_SETTINGS
@given(cfg=configurations())
def test_coboundary_round_trip_on_configurations(cfg):
    tutte = tutte_crapo(cfg)
    cb = tutte_to_coboundary(tutte)
    # chi-bar(q, 1) = q^rank, with the rank read off T, loops or not
    at_one = {}
    for (a, _), c in cb.coeffs.items():
        at_one[a] = at_one.get(a, 0) + c
    assert {a: c for a, c in at_one.items() if c} == {cfg.rank: 1}
    assert coboundary_to_tutte(cb) == tutte
