"""Exact Tutte, coboundary, and characteristic polynomials of ideal
arrangements of root systems (families A, B, C, D at any rank; G2, F4, E6).

Classical types go through the finite field method: one dynamic program over
the blocks of exchangeable coordinates gives the coboundary polynomial
directly, with no primes and no interpolation.  The same program's weighted
point counts at odd q, and exhaustive point counts at q = 3, check it.
Exceptional types are read off the lattice of flats of their full
arrangement, built once per root system, and checked against the
basis-activity formula.  A corank-nullity brute-force oracle cross-validates
all of them.

The paper's own classical route (signatures, Algorithm P's block partition
and the minor sets that pick its primes) is the reference module
``idealtutte.paper``, which no request loads and this package does not export.
"""

from .errors import (
    ConstraintError,
    GuardExceeded,
    IdealTutteError,
    InconsistencyError,
    UnsupportedTypeError,
    VerificationMismatch,
)
from .exactpoly import (
    BivariatePolynomial,
    UnivariatePolynomial,
    coboundary_to_tutte,
    lagrange_interpolate,
    parse_polynomial,
    tutte_to_characteristic,
)
from .rootsystems import (
    Root,
    RootPoset,
    RootSystemType,
    hasse_covers,
    hyperplane_tuple,
    linear_order_key,
    positive_roots,
    root_leq,
    root_poset,
    root_system_type,
)
from .ideals import (
    Ideal,
    IdealComplement,
    arrangement_of,
    complement,
    decompose_components,
    enumerate_ideals,
    ideal_from_boxes,
    ideal_from_mask,
    ideal_from_root_coords,
    iter_ideals,
)
from .crapo import (
    BasisActivity,
    VectorConfig,
    activity,
    enumerate_bases,
    rank_of,
    tutte_corank_nullity,
    tutte_crapo,
    tutte_crapo_exact,
)
from .ffmethod import (
    CountingModel,
    TProfile,
    coboundary_full,
    coboundary_polynomial,
    count_points_bruteforce,
    tutte_via_ffmethod,
)
from .specialize import (
    FactorizationReport,
    IdealExponents,
    characteristic_polynomial,
    check_exponent_factorization,
    coboundary_of_ideal,
    ideal_exponents,
    region_count,
    resolve_engine,
    tutte_of_ideal,
)

__version__ = "0.1.0"
