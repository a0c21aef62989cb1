"""The one engine dispatcher, the one certificate and what is read off them.

Each engine returns one polynomial: chi-bar(q, t) from the finite-field
pipeline and the lattice of flats, T(x, y) from Crapo's basis activities
and the corank-nullity oracle.  None returns a rank: the transforms read it
off the polynomial.  ``polynomials_of_ideal`` reads chi-bar off the
pieces of the route (``route_pieces``: the whole arrangement, or each
component of the complement), converting each T to chi-bar, and returns
chi-bar with the T that ``certify_coboundary`` forms while it certifies
chi-bar.  Every command reads that pair, and a CLI cache hit is the pair
that the certificate gives of a stored chi-bar.
``characteristic_polynomial`` reads chi(q) off chi-bar(q, 0), as the
certificate does.  Also region counts.

``resolve_engine`` picks auto's route from the root system alone: the
lattice of flats on G2, F4, E6 and the classical systems of at most
``AUTO_MAX_CLASSICAL_ROOTS`` (25) positive roots (A1-A6, B2-B5, C2-C5,
D4, D5), and on larger classical ones a route of its own, named auto,
that applies the same cut per component.  The components of a classical
complement multiply, and each is the complement of an ideal of its own
system, the one its connected set of simple roots spans
(``ideals.decompose_components``): a component whose own system has at
most 25 roots (an A3 x A3 of A7, a B5 tail of B7) is read off that
system's lattice, a larger one by the counting DP, and the product passes
the one certificate on the whole ideal.  Named engines keep their routes:
ffmethod runs the DP on every component, flats restricts the whole
system's lattice.  A lattice is built on a system's first request and kept
for the process: one build of 0.4-2.3 ms on those classical systems, after
which each request costs a fraction of a DP; auto builds none of more
than 25 roots.  Picking loads no engine: each engine's module is imported
by the first request that runs it, so a fresh process loads only the ones
it needs.
"""

from __future__ import annotations

import functools

from .errors import ConstraintError, InconsistencyError
from .exactpoly import (
    BivariatePolynomial,
    coboundary_to_characteristic,
    coboundary_to_tutte,
    tutte_to_coboundary,
)
from .ideals import check_exponent_factorization, decompose_components


ENGINES = ("auto", "ffmethod", "flats", "crapo", "oracle")
# auto reads a classical system, or a component of a larger one's complement
# by its own system, off its lattice of flats when that system's full
# arrangement has at most this many positive roots: A1-A6, B and C up to
# rank 5, D4 and D5, at most 877 flats built in 0.4-2.3 ms, after which a
# request costs 3.7-7x less than on the counting DP.  The next lattices, D6,
# A7, B6 and C6 (2546-4140 flats), take 5-10 ms each, more than a sequence
# of requests to one system saves unless it is long, and A8 50-57 ms
# (medians of in-process builds; 2-CPU VM, Python 3.11)
AUTO_MAX_CLASSICAL_ROOTS = 25


def resolve_engine(engine, rst):
    """The route that computes for ``engine`` on the root system ``rst``.

    auto is the lattice of flats on exceptional types and on classical ones
    of at most ``AUTO_MAX_CLASSICAL_ROOTS`` positive roots, whose lattice is
    cheap to build once per process.  On larger classical ones it is its
    own route, named auto, that picks per component of the complement
    (``route_pieces``).  A name it returns resolves to itself.  flats
    is accepted on any system and refused by its own guard
    (``flats.MAX_VECTORS`` roots, GuardExceeded) when it runs.
    ConstraintError for an unknown engine and for ffmethod on an
    exceptional type.
    """
    if engine not in ENGINES:
        raise ConstraintError(f"unknown engine {engine!r}")
    if engine == "auto":
        return "flats" if _lattice_is_cheap(rst) or not rst.is_classical else "auto"
    if engine == "ffmethod" and not rst.is_classical:
        raise ConstraintError(f"engine ffmethod rejects exceptional type {rst.family}")
    return engine


def _lattice_is_cheap(rst):
    return rst is not None and rst.positive_root_count() <= AUTO_MAX_CLASSICAL_ROOTS


def route_pieces(ideal, route):
    """[(system, engine, component)]: the pieces that ``route`` (as
    ``resolve_engine`` returns it) reads ``ideal``'s chi-bar off, each with
    the root system it is read in and the engine that reads it; the one
    place where an engine is picked per piece.  auto's own route takes the
    components of the complement (``ideals.decompose_components``; the
    system is None for the pair alpha_(n-1), alpha_n of D_n, which is no
    complement of an ideal of its own system) and reads each off its own
    system's lattice of flats when that system has at most
    ``AUTO_MAX_CLASSICAL_ROOTS`` roots, else by the counting DP.  Every
    other route reads the whole arrangement: one piece of the ideal's own
    system, with component None (ffmethod's runs the DP on each component
    itself, ``ffmethod.coboundary_of_ideal``)."""
    if route != "auto":
        return [(ideal.rst, route, None)]
    return [(c.rst, "flats" if _lattice_is_cheap(c.rst) else "ffmethod", c)
            for c in decompose_components(ideal)]


def certify_coboundary(ideal, cb):
    """T(x, y) once ``cb`` passes as the chi-bar(q, t) of ``ideal``'s
    arrangement; InconsistencyError otherwise.  Its rank r is the number of
    simple roots in the complement: the complement is a lower set, and a
    lower set spans what its simple roots span.  So nothing is sized by the
    polynomial it checks.  One pass over the terms checks the degrees
    (q-degree at most r, total degree at most m, for the m complement roots)
    and the q^r column (exactly 1, with no loops), and sums its columns for
    Certificate 0: chi-bar(1, t) = t^m, which every matroid has (T on the
    hyperbola (x - 1)(y - 1) = 1, that is Brylawski's linear relations;
    Brylawski and Oxley, 1992).  Then chi, the t^0 column, must split over
    the ideal exponents (``ideals.check_exponent_factorization``), and T,
    formed by ``exactpoly.coboundary_to_tutte``, must have no negative
    coefficient, which no matroid's T has: the one check that is not
    linear in chi-bar."""
    comp = ideal.complement_mask()
    m, rank = comp.bit_count(), (comp & ideal.poset.height_masks[0]).bit_count()
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
    tutte = coboundary_to_tutte(cb)
    if min(tutte.coeffs.values()) < 0:
        raise InconsistencyError(f"chi-bar = {cb} gives T = {tutte}, "
                                 "which has a negative coefficient")
    return tutte


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


def _coboundary_of_piece(ideal, system, engine, component):
    """chi-bar of one piece of ``route_pieces``: a component of auto's own
    route, restricted from its own system's lattice of flats or counted by
    its DP, or the whole arrangement on the named engine, whose T (crapo,
    oracle) is converted by ``exactpoly.tutte_to_coboundary``."""
    module = _engine_module(engine)
    if component is not None:
        if engine == "flats":
            return module.flat_lattice(system).restrict(component.mask)
        return module.CountingModel(component.size, component.tuples).coboundary()
    if engine == "ffmethod":
        return module.coboundary_of_ideal(ideal)
    if engine == "flats":
        return module.flat_lattice(system).restrict(ideal.complement_mask())
    cfg = module.VectorConfig([r.simple_coords for r in ideal.complement_roots()])
    tutte = module.tutte_crapo if engine == "crapo" else module.tutte_corank_nullity
    return tutte_to_coboundary(tutte(cfg))


def polynomials_of_pieces(ideal, route, pieces):
    """(chi-bar(q, t), T(x, y)) of ``ideal`` on ``route``, read off its
    ``pieces`` (``route_pieces(ideal, route)``): the product of the pieces'
    chi-bar (1 for no piece, the empty complement), once it passes
    ``certify_coboundary`` on the whole ideal, which forms T.  Only the
    engines the pieces name are loaded."""
    cb = None
    for piece in pieces:
        factor = _coboundary_of_piece(ideal, *piece)
        cb = factor if cb is None else cb * factor
    if cb is None:
        cb = BivariatePolynomial.one(("q", "t"))
    try:
        return cb, certify_coboundary(ideal, cb)
    except InconsistencyError as exc:
        raise InconsistencyError(f"the {route} result fails its certificate: {exc}") from None


def polynomials_of_ideal(ideal, engine="auto"):
    """(chi-bar(q, t), T(x, y)) of an ideal arrangement on the route that
    ``resolve_engine`` picks, read off that route's pieces
    (``route_pieces``) and certified once on the whole ideal
    (``polynomials_of_pieces``): a Tutte polynomial from crapo or oracle is
    converted to chi-bar first, and auto's own route multiplies its
    components' chi-bar.  Every command reads this."""
    route = resolve_engine(engine, ideal.rst)
    return polynomials_of_pieces(ideal, route, route_pieces(ideal, route))


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
    return polynomials_of_ideal(ideal, engine)[1]


def coboundary_of_ideal(ideal, engine="auto"):
    """Coboundary polynomial of an ideal arrangement, by the engine as in
    ``tutte_of_ideal``."""
    return polynomials_of_ideal(ideal, engine)[0]


def characteristic_polynomial(ideal, engine="auto"):
    """chi(q) = q^(n - rank) chi-bar(q, 0) of an ideal arrangement in R^n:
    the t^0 column of ``coboundary_of_ideal`` with the same engine."""
    return coboundary_to_characteristic(coboundary_of_ideal(ideal, engine), ideal.rst.ambient_dim)


def region_count(tutte):
    """Number of chambers of a central arrangement: T(2, 0), which equals
    Zaslavsky's (-1)^n chi(-1), always strictly positive."""
    val = tutte.evaluate(2, 0)
    if val <= 0:
        raise InconsistencyError(f"nonpositive region count {val}")
    return val
