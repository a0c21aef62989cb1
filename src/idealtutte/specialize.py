"""Derived quantities: characteristic polynomials, region counts, ideal
exponents from the height partition, and the exponent-factorization
cross-check.  Also hosts the one engine dispatcher, ``resolve_engine``, which
picks the finite-field pipeline for classical types and the lattice of flats
for exceptional ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crapo, ffmethod
from .errors import ConstraintError, InconsistencyError
from .exactpoly import tutte_to_characteristic, tutte_to_coboundary
from .ideals import arrangement_of


@dataclass(frozen=True)
class IdealExponents:
    """Height partition of an ideal complement and its dual partition."""

    heights: tuple    # lambda_1 >= lambda_2 >= ...
    exponents: tuple  # m_{lambda_1} >= ... >= m_1

    def total(self):
        return sum(self.heights)


def ideal_exponents(ideal):
    """Ideal exponents from the height partition of the complement.

    lambda_i counts complement roots of height i; the exponents are the dual
    partition values m_i = #{j : lambda_j >= lambda_1 - i + 1}, reported in
    weakly decreasing order.
    """
    heights = {}
    for r in ideal.complement_roots():
        heights[r.height] = heights.get(r.height, 0) + 1
    if not heights:
        return IdealExponents((), ())
    lam = [heights.get(h, 0) for h in range(1, max(heights) + 1)]
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise InconsistencyError(f"height counts {lam} are not weakly decreasing")
    lam_sorted = sorted(lam, reverse=True)
    top = lam_sorted[0]
    exps = [
        sum(1 for l in lam_sorted if l >= top - i + 1) for i in range(1, top + 1)
    ]
    return IdealExponents(tuple(lam_sorted), tuple(sorted(exps, reverse=True)))


ENGINES = ("auto", "ffmethod", "flats", "crapo", "oracle")


def resolve_engine(engine, rst):
    """The engine that computes for ``engine`` on the root system ``rst``.

    auto is the finite-field pipeline on classical types and the lattice of
    flats on exceptional ones.  ConstraintError for an unknown engine, for
    ffmethod on an exceptional type and for flats on a classical one.
    """
    if engine not in ENGINES:
        raise ConstraintError(f"unknown engine {engine!r}")
    if engine == "auto":
        engine = "ffmethod" if rst.is_classical else "flats"
    elif engine == "ffmethod" and not rst.is_classical:
        raise ConstraintError(f"engine ffmethod rejects exceptional type {rst.family}")
    elif engine == "flats" and rst.is_classical:
        raise ConstraintError(f"engine flats rejects classical type {rst.family}")
    return engine


def tutte_of_ideal(ideal, engine="auto", max_subsets=None):
    """Tutte polynomial of an ideal arrangement by the requested engine.

    auto routes classical types through the finite-field pipeline and
    exceptional types through the lattice of flats (as decided by
    ``resolve_engine``); crapo forces the basis-activity formula and oracle
    the corank-nullity expansion.  ``max_subsets`` bounds the basis
    candidates (crapo) or the subsets (oracle) before any work is done; the
    other engines ignore it.
    """
    engine = resolve_engine(engine, ideal.rst)
    if engine == "ffmethod":
        return ffmethod.tutte_via_ffmethod(ideal)
    if engine == "flats":
        from . import flats  # flats imports this module

        return flats.tutte(ideal)
    comp_roots = ideal.complement_roots()
    vectors = [r.simple_coords for r in comp_roots]
    cfg = crapo.VectorConfig(vectors, dim=ideal.rst.rank)
    guard = {} if max_subsets is None else {"max_subsets": max_subsets}
    if engine == "crapo":
        return crapo.tutte_crapo(cfg, **guard)
    return crapo.tutte_corank_nullity(cfg, **guard)


def coboundary_of_ideal(ideal, engine="auto", max_subsets=None):
    """Coboundary polynomial of an ideal arrangement.

    The finite-field pipeline and the lattice of flats (auto on classical
    and on exceptional types) give it directly; otherwise the Tutte
    polynomial is computed first, under the same ``max_subsets`` guard as
    ``tutte_of_ideal``, and converted through ``exactpoly.tutte_to_coboundary``.
    """
    engine = resolve_engine(engine, ideal.rst)
    if engine == "ffmethod":
        return ffmethod.coboundary_polynomial(ideal)
    if engine == "flats":
        from . import flats  # flats imports this module

        return flats.coboundary(ideal)
    tutte = tutte_of_ideal(ideal, engine=engine, max_subsets=max_subsets)
    return tutte_to_coboundary(tutte, arrangement_of(ideal).rank)


def characteristic_polynomial(ideal, engine="auto", max_subsets=None):
    """chi(q) of an ideal arrangement, from its Tutte polynomial computed by
    ``tutte_of_ideal`` with the same engine and guard."""
    tutte = tutte_of_ideal(ideal, engine=engine, max_subsets=max_subsets)
    arr = arrangement_of(ideal)
    return tutte_to_characteristic(tutte, arr.dim, arr.rank)


def region_count(tutte):
    """Number of chambers of a central arrangement: T(2, 0), which equals
    Zaslavsky's (-1)^n chi(-1), always strictly positive."""
    val = tutte.evaluate(2, 0)
    if val <= 0:
        raise InconsistencyError(f"nonpositive region count {val}")
    return val


@dataclass
class FactorizationReport:
    """Outcome of checking chi(q) = q^(n - rank) * prod (q - m_i)."""

    ok: bool
    exponents: tuple
    characteristic: object
    leftover: object = None
    detail: str = ""

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "exponents": list(self.exponents),
            "characteristic": self.characteristic.to_text("q"),
            "detail": self.detail,
        }


def check_exponent_factorization(ideal, engine="auto"):
    """Whether the characteristic polynomial splits over the ideal exponents.

    Failure is reported, not raised: the factorization is a theorem only for
    the families where the ideal arrangements are free with ideal exponents.
    """
    exps = ideal_exponents(ideal)
    chi = characteristic_polynomial(ideal, engine=engine)
    arr = arrangement_of(ideal)
    n, rank = arr.dim, arr.rank
    work = chi
    # strip q^(n - rank)
    for _ in range(n - rank):
        quot, rem = work.divide_linear(0)
        if rem != 0:
            return FactorizationReport(
                False, exps.exponents, chi, work, "q^(n-rank) does not divide chi"
            )
        work = quot
    for m in exps.exponents:
        quot, rem = work.divide_linear(m)
        if rem != 0:
            return FactorizationReport(
                False, exps.exponents, chi, work, f"(q - {m}) does not divide the cofactor"
            )
        work = quot
    if work != 1:
        return FactorizationReport(
            False, exps.exponents, chi, work, f"cofactor {work} left over"
        )
    return FactorizationReport(True, exps.exponents, chi, None, "split")
