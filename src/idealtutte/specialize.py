"""The one engine dispatcher and what is read off its results.

Each engine returns one polynomial and the arrangement's rank: chi-bar(q, t)
from the finite-field pipeline and the lattice of flats, T(x, y) from Crapo's
basis activities and the corank-nullity oracle.  One function takes every
result: it converts each T to chi-bar and certifies the chi-bar of every
engine; ``tutte_of_ideal`` transforms that, and ``characteristic_polynomial``
reads chi(q) off chi-bar(q, 0).  A Tutte polynomial that comes from
elsewhere, a cache entry, is certified by ``certify_tutte``.  Also region
counts.

``resolve_engine`` picks auto's engine from the root system alone: the
lattice of flats on G2, F4, E6 and the classical systems of at most
``flats.AUTO_MAX_CLASSICAL_ROOTS`` (25) positive roots (A1-A6, B2-B5, C2-C5,
D4, D5), the finite-field pipeline on larger classical ones.  The lattice is
built on a system's first request and kept for the process: one build of
1-7 ms on those classical systems, after which each request costs a
fraction of a DP.
"""

from __future__ import annotations

from . import crapo, ffmethod, flats
from .errors import ConstraintError, InconsistencyError
from .exactpoly import coboundary_to_characteristic, coboundary_to_tutte
from .exactpoly import tutte_to_characteristic, tutte_to_coboundary
from .ideals import check_exponent_factorization


ENGINES = ("auto", "ffmethod", "flats", "crapo", "oracle")


def resolve_engine(engine, rst):
    """The engine that computes for ``engine`` on the root system ``rst``.

    auto is the lattice of flats on exceptional types and on classical ones
    of at most ``flats.AUTO_MAX_CLASSICAL_ROOTS`` positive roots, whose
    lattice is cheap to build once per process, and the finite-field
    pipeline on larger classical ones.  flats is accepted on any system and
    refused by its own guard (``flats.MAX_VECTORS`` roots, GuardExceeded) when
    it runs.  ConstraintError for an unknown engine and for ffmethod on an
    exceptional type.
    """
    if engine not in ENGINES:
        raise ConstraintError(f"unknown engine {engine!r}")
    if engine == "auto":
        small = rst.positive_root_count() <= flats.AUTO_MAX_CLASSICAL_ROOTS
        engine = "flats" if small or not rst.is_classical else "ffmethod"
    elif engine == "ffmethod" and not rst.is_classical:
        raise ConstraintError(f"engine ffmethod rejects exceptional type {rst.family}")
    return engine


def _coboundary_and_rank(ideal, engine):
    """(chi-bar(q, t), rank) by the engine that ``resolve_engine`` picks: a
    Tutte polynomial from crapo or oracle is converted by
    ``exactpoly.tutte_to_coboundary``.  InconsistencyError unless
    chi-bar(1, 2) = T(2, 2) = 2^m for the m complement roots, with q-degree
    at most the rank and total degree at most m."""
    engine = resolve_engine(engine, ideal.rst)
    mask = ideal.complement_mask()
    if engine == "ffmethod":
        cb, rank = ffmethod.coboundary_and_rank(ideal)
    elif engine == "flats":
        cb, rank = flats.flat_lattice(ideal.rst).restrict(mask)
    else:
        vectors = [r.simple_coords for r in ideal.complement_roots()]
        cfg = crapo.VectorConfig(vectors, dim=ideal.rst.rank)
        tutte = crapo.tutte_crapo if engine == "crapo" else crapo.tutte_corank_nullity
        cb, rank = tutte_to_coboundary(tutte(cfg), cfg.rank), cfg.rank
    m = mask.bit_count()
    at_1_2 = sum(c << b for (_, b), c in cb.coeffs.items())  # chi-bar(1, 2)
    if at_1_2 != 1 << m or any(a > rank or a + b > m for a, b in cb.coeffs):
        raise InconsistencyError(
            f"the {engine} coboundary of {m} elements of rank {rank} fails "
            f"T(2,2) = 2^m or the degree bounds: {cb}"
        )
    return cb, rank


def certify_tutte(ideal, tutte):
    """The rank r of the arrangement of ``ideal``, once its claimed Tutte
    polynomial passes; InconsistencyError otherwise.  No loops, so r is T's
    x-degree and the x^r column is 1; r is at most the system's rank and the
    y-degree at most m - r, for the m complement roots.  Then T on the
    hyperbola (x - 1)(y - 1) = 1: sum_i y^i (y - 1)^(r - i) T_i(y) = y^m for
    T's x^i columns T_i, as every matroid of m elements and rank r has it
    (Brylawski's linear relations; Brylawski and Oxley, "The Tutte polynomial
    and its applications", 1992), with no negative coefficient; last, chi
    splits over the ideal exponents."""
    m = ideal.complement_mask().bit_count()
    r = tutte.degree(0)
    coeffs = tutte.coeffs
    top = {b: c for (a, b), c in coeffs.items() if a == r}
    if top != {0: 1} or r > ideal.rst.rank or tutte.degree(1) > m - r:
        raise InconsistencyError(
            f"T = {tutte} of {m} elements fails the x^r column or the degree bounds"
        )
    columns = [[] for _ in range(r + 1)]
    for (a, b), c in coeffs.items():
        columns[a].append((a + b, c))
    acc = [0] * (m + 1)  # Horner in (y - 1), dense in y; the degree bounds keep it in y^m
    for column in columns:
        acc = [-acc[0], *(lo - hi for lo, hi in zip(acc, acc[1:]))]
        for d, c in column:
            acc[d] += c
    if acc[m] != 1 or any(acc[:m]) or min(coeffs.values()) < 0:
        raise InconsistencyError(
            f"T = {tutte} of {m} elements fails sum_i y^i (y-1)^(r-i) T_i(y) = y^m "
            "or has a negative coefficient"
        )
    chi = tutte_to_characteristic(tutte, ideal.rst.ambient_dim, r)
    check_exponent_factorization(ideal, chi.coeffs)
    return r


def tutte_of_ideal(ideal, engine="auto"):
    """Tutte polynomial of an ideal arrangement by the requested engine.

    auto reads exceptional and small classical types off the lattice of
    flats and larger classical types off the finite-field pipeline (as
    decided by ``resolve_engine``); crapo forces the basis-activity formula
    and oracle the corank-nullity expansion.  Every engine's result is
    certified as a coboundary polynomial, and one that fails raises
    InconsistencyError.  Each engine refuses work past its own guard with
    GuardExceeded, before doing it: crapo past
    ``crapo.DEFAULT_MAX_BASIS_SUBSETS`` basis candidates, oracle past
    ``crapo.ORACLE_MAX_SUBSETS`` subsets, flats past ``flats.MAX_VECTORS``
    roots.
    """
    return coboundary_to_tutte(*_coboundary_and_rank(ideal, engine))


def coboundary_of_ideal(ideal, engine="auto"):
    """Coboundary polynomial of an ideal arrangement, by the engine as in
    ``tutte_of_ideal``."""
    return _coboundary_and_rank(ideal, engine)[0]


def characteristic_polynomial(ideal, engine="auto"):
    """chi(q) = q^(n - rank) chi-bar(q, 0) of an ideal arrangement in R^n:
    the t^0 column of ``coboundary_of_ideal`` with the same engine."""
    cb, rank = _coboundary_and_rank(ideal, engine)
    return coboundary_to_characteristic(cb, ideal.rst.ambient_dim, rank)


def region_count(tutte):
    """Number of chambers of a central arrangement: T(2, 0), which equals
    Zaslavsky's (-1)^n chi(-1), always strictly positive."""
    val = tutte.evaluate(2, 0)
    if val <= 0:
        raise InconsistencyError(f"nonpositive region count {val}")
    return val
