"""Full classical arrangements: coboundary evaluations at a prime, the braid
arrangement of A12, Weyl-order region counts, and minor sets.

A full arrangement is the complement of the empty ideal, and the
single-block case of the counting model: every coordinate is exchangeable
with every other.
"""

import math
import time

from idealtutte import (
    CountingModel,
    coboundary_of_ideal,
    coboundary_to_tutte,
    ideal_from_mask,
    region_count,
    root_poset,
    root_system_type,
)
from idealtutte.paper import minor_set


def full_ideal(family, n):
    """The empty ideal, whose complement is the full arrangement in R^n."""
    return ideal_from_mask(root_poset(root_system_type(family, n - (family == "A"))), 0)


# the one-block counting model read out at a single prime
print("chi-bar at p = 3 for small full arrangements:")
for family, n in (("A", 3), ("B", 2), ("D", 4)):
    prof = CountingModel(n, full_ideal(family, n).poset.tuples).coboundary_at_prime(3)
    print(f"  {family}, n={n}: {prof.to_text('t')}")

# minor sets decide which primes reduce correctly
print("\nminor sets of positive-root matrices (magnitudes):")
for family, rank in (("A", 3), ("B", 3), ("B", 4)):
    vectors = [
        tuple(c // 2 for c in r.ambient2)
        for r in root_poset(root_system_type(family, rank)).roots
    ]
    print(f"  {family}{rank}: {sorted({abs(d) for d in minor_set(vectors)})}")

# region counts of full arrangements are the Weyl group orders
print("\nregions of full arrangements vs Weyl group orders:")
for family, n in (("A", 4), ("B", 3), ("B", 4), ("D", 4)):
    tutte = coboundary_to_tutte(coboundary_of_ideal(full_ideal(family, n)))
    order = {
        "A": math.factorial(n),
        "B": 2 ** n * math.factorial(n),
        "D": 2 ** (n - 1) * math.factorial(n),
    }[family]
    print(f"  {family}, n={n}: {region_count(tutte)} (Weyl order {order})")

# the braid arrangement of A12: 78 hyperplanes in R^13
t0 = time.time()
cb = coboundary_of_ideal(full_ideal("A", 13))
tutte = coboundary_to_tutte(cb)
print(f"\nA12 braid arrangement in {time.time()-t0:.1f}s: "
      f"{len(tutte.coeffs)} Tutte terms")
print("  [y^66] =", tutte.coefficient(0, 66))
print("  [y^65] =", tutte.coefficient(0, 65))
print("  [x^12] =", tutte.coefficient(12, 0))
print("  [x]    =", tutte.coefficient(1, 0), "(= 11!)")
print("  T(1,1) =", tutte.evaluate(1, 1), "(= 13^11 spanning trees of K13)")
