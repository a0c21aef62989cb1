"""The one engine dispatcher, the one certificate and what is read off them.

Each engine returns one polynomial and the arrangement's rank: chi-bar(q, t)
from the finite-field pipeline and the lattice of flats, T(x, y) from Crapo's
basis activities and the corank-nullity oracle.  One function takes every
result and converts each T to chi-bar.  ``certify_coboundary`` certifies
every polynomial the package serves, each a chi-bar: each engine's result
and each CLI cache entry.  ``tutte_of_ideal`` transforms the certified
chi-bar, and ``characteristic_polynomial`` reads chi(q) off chi-bar(q, 0),
as the certificate does.  Also region counts.

``resolve_engine`` picks auto's engine from the root system alone: the
lattice of flats on G2, F4, E6 and the classical systems of at most
``AUTO_MAX_CLASSICAL_ROOTS`` (25) positive roots (A1-A6, B2-B5, C2-C5,
D4, D5), the finite-field pipeline on larger classical ones.  The lattice is
built on a system's first request and kept for the process: one build of
0.4-2.3 ms on those classical systems, after which each request costs a
fraction of a DP.  Picking loads no engine: each engine's module is
imported by the first request that runs it, so a fresh process loads only
the one it needs.
"""

from __future__ import annotations

import functools

from .errors import ConstraintError, InconsistencyError
from .exactpoly import coboundary_to_characteristic, coboundary_to_tutte, tutte_to_coboundary
from .ideals import check_exponent_factorization


ENGINES = ("auto", "ffmethod", "flats", "crapo", "oracle")
# auto reads a classical system off its lattice of flats when its full
# arrangement has at most this many positive roots: A1-A6, B and C up to
# rank 5, D4 and D5, at most 877 flats built in 0.4-2.3 ms, after which a
# request costs 3.7-7x less than on the counting DP.  The next lattices, D6,
# A7, B6 and C6 (2546-4140 flats), take 5-10 ms each, more than a sequence
# of requests to one system saves unless it is long, and A8 50-57 ms
# (medians of in-process builds; 2-CPU VM, Python 3.11)
AUTO_MAX_CLASSICAL_ROOTS = 25


def resolve_engine(engine, rst):
    """The engine that computes for ``engine`` on the root system ``rst``.

    auto is the lattice of flats on exceptional types and on classical ones
    of at most ``AUTO_MAX_CLASSICAL_ROOTS`` positive roots, whose
    lattice is cheap to build once per process, and the finite-field
    pipeline on larger classical ones.  flats is accepted on any system and
    refused by its own guard (``flats.MAX_VECTORS`` roots, GuardExceeded) when
    it runs.  ConstraintError for an unknown engine and for ffmethod on an
    exceptional type.
    """
    if engine not in ENGINES:
        raise ConstraintError(f"unknown engine {engine!r}")
    if engine == "auto":
        small = rst.positive_root_count() <= AUTO_MAX_CLASSICAL_ROOTS
        engine = "flats" if small or not rst.is_classical else "ffmethod"
    elif engine == "ffmethod" and not rst.is_classical:
        raise ConstraintError(f"engine ffmethod rejects exceptional type {rst.family}")
    return engine


def certify_coboundary(ideal, cb, rank):
    """None once ``cb`` passes as the chi-bar(q, t) of ``ideal``'s
    arrangement of rank r = ``rank``; InconsistencyError otherwise.  First r
    must be the number of simple roots in the complement: the complement is
    a lower set, and a lower set spans what its simple roots span.  So a
    claimed rank is checked before any work of its size.  One pass over the
    terms then checks the degrees (q-degree at most r, total degree at most
    m, for the m complement roots) and the q^r column (exactly 1, with no
    loops), and sums its columns for Certificate 0: chi-bar(1, t) = t^m,
    which every matroid has (T on the hyperbola (x - 1)(y - 1) = 1, that is
    Brylawski's linear relations; Brylawski and Oxley, 1992).  Then chi, the
    t^0 column, must split over the ideal exponents
    (``ideals.check_exponent_factorization``)."""
    comp = ideal.complement_mask()
    m, simple = comp.bit_count(), (comp & ideal.poset.height_masks[0]).bit_count()
    if rank != simple:
        raise InconsistencyError(f"chi-bar = {cb} claims rank {rank}, not the {simple} "
                                 f"simple roots among its {m} elements")
    at_q1, chi = [0] * (m + 1), [0] * (rank + 1)  # chi-bar(1, t) and chi-bar(q, 0)
    for (a, b), c in cb.coeffs.items():
        if a + b > m or a > rank or (a == rank and b):
            raise InconsistencyError(f"chi-bar = {cb} of {m} elements of rank {rank} "
                                     "fails the degree bounds or the q^r column")
        at_q1[b] += c
        if not b:
            chi[a] = c
    if chi[rank] != 1 or at_q1[m] != 1 or any(at_q1[:m]):
        raise InconsistencyError(f"chi-bar = {cb} of {m} elements of rank {rank} "
                                 "fails the q^r column or chi-bar(1, t) = t^m")
    check_exponent_factorization(ideal, chi)


@functools.cache
def _engine_module(engine):
    """The module that runs ``engine``, imported on its first request.  A
    relative import in the dispatcher itself would cost about 1 us per
    request, 2% of a warm F4 request, to resolve its package again."""
    if engine == "ffmethod":
        from . import ffmethod as module
    elif engine == "flats":
        from . import flats as module
    else:
        from . import crapo as module
    return module


def _coboundary_and_rank(ideal, engine):
    """(chi-bar(q, t), rank) by the engine that ``resolve_engine`` picks,
    once it passes ``certify_coboundary``: a Tutte polynomial from crapo or
    oracle is converted by ``exactpoly.tutte_to_coboundary``."""
    engine = resolve_engine(engine, ideal.rst)
    module = _engine_module(engine)
    if engine == "ffmethod":
        cb, rank = module.coboundary_and_rank(ideal)
    elif engine == "flats":
        cb, rank = module.flat_lattice(ideal.rst).restrict(ideal.complement_mask())
    else:
        vectors = [r.simple_coords for r in ideal.complement_roots()]
        cfg = module.VectorConfig(vectors, dim=ideal.rst.rank)
        tutte = module.tutte_crapo if engine == "crapo" else module.tutte_corank_nullity
        cb, rank = tutte_to_coboundary(tutte(cfg), cfg.rank), cfg.rank
    try:
        certify_coboundary(ideal, cb, rank)
    except InconsistencyError as exc:
        raise InconsistencyError(f"the {engine} result fails its certificate: {exc}") from None
    return cb, rank


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
