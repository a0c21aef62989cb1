"""Exact Tutte, coboundary, and characteristic polynomials of ideal
arrangements of root systems (families A, B, C, D; G2, F4, E6).  Full
classical arrangements go through at any rank, classical ideals while the
counting DP's guard admits them (the README gives measured refusals).

Every result comes from one of two objects.  Exceptional types, and the
classical ones of at most 25 positive roots (A1-A6, B2-B5, C2-C5, D4, D5),
read the coboundary polynomial off the lattice of flats of their full
arrangement, built once per root system and process (0.4-2.3 ms on
those classical systems, then a fraction of a DP per ideal).  So do the
components of a larger classical complement whose own system, the one
their simple roots span, has at most 25 roots; the other components go
through the finite field method: one dynamic program
over the blocks of exchangeable coordinates gives the coboundary polynomial
directly, with no primes and no interpolation.  The basis-activity formula
and a corank-nullity brute-force oracle give the Tutte polynomial instead,
and cross-validate the others.  One dispatcher
(``specialize``) converts every Tutte polynomial to a coboundary polynomial,
and one certificate, ``specialize.certify_coboundary``, passes every
coboundary polynomial served: each engine's, and each read back from the
CLI cache, which stores them.  It takes the rank from the complement's
simple roots, checks the degrees, chi-bar(1, t) = t^m and that chi splits
over the ideal exponents, and returns the Tutte polynomial, which must have
no negative coefficient.  No function takes a rank beside a polynomial: the
transforms read it off chi-bar's q-degree or T's x-degree.

The paper's own classical route (signatures, Algorithm P's block partition
and the minor sets that pick its primes) is ``idealtutte.paper``, which this
package does not export.  Only ``minors`` loads it, and it loads no engine:
``ideals.block_flags`` reads the flags of its blocks.

Importing the package runs none of its modules: each public name is
imported from its module on first access (``__getattr__``), and the
dispatcher imports only the engine a request runs, so a fresh process
loads what its request needs and no more.
"""

_EXPORTS = {
    "errors": ("ConstraintError", "GuardExceeded", "IdealTutteError",
               "InconsistencyError", "UnsupportedTypeError", "VerificationMismatch"),
    "exactpoly": ("BivariatePolynomial", "UnivariatePolynomial", "coboundary_to_tutte",
                  "lagrange_interpolate", "parse_polynomial"),
    "rootsystems": ("Root", "RootPoset", "RootSystemType", "hyperplane_tuple",
                    "linear_order_key", "root_poset", "root_system_type"),
    "ideals": ("Ideal", "IdealExponents", "arrangement_of", "check_exponent_factorization",
               "complement", "decompose_components", "enumerate_ideals", "ideal_exponents",
               "ideal_from_boxes", "ideal_from_mask", "ideal_from_root_coords", "iter_ideals"),
    "crapo": ("BasisActivity", "VectorConfig", "activity", "rank_of",
              "tutte_corank_nullity", "tutte_crapo"),
    "ffmethod": ("CountingModel", "TProfile", "count_points_bruteforce"),
    "specialize": ("characteristic_polynomial", "coboundary_of_ideal", "region_count",
                   "resolve_engine", "tutte_of_ideal"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    """Each public name, imported from its module on first access (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __package__), name)
    return value
