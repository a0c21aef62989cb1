"""Positive roots, the root order, and ideal enumeration.

Walks through the basic objects: build a root poset, inspect heights and
Hasse covers, and enumerate the upward-closed subsets (ideals).
"""

from idealtutte import (
    enumerate_ideals,
    linear_order_key,
    root_poset,
    root_system_type,
)

# Positive roots of G2, with both coordinate systems and the digit words that
# define the linear order used by the basis-activity formula.
g2 = root_poset(root_system_type("G2"))
print("G2 positive roots (simple coords | doubled standard coords | word):")
for r in g2.roots:
    print(f"  {str(r):8s} {str(r.ambient2):15s} height {r.height}  word {linear_order_key(r)}")

print("\nHasse covers of the G2 root order (a chain above the two simple roots):")
for u, v in g2.covers:
    print(f"  {u}  <  {v}")

# Ideal counts grow quickly with rank; these small systems enumerate instantly.
print("\nideal counts:")
for family, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6)):
    poset = root_poset(root_system_type(family, rank))
    print(f"  {poset.rst}: {len(enumerate_ideals(poset))} ideals over {len(poset)} roots")

# Every ideal of G2, by its member roots.
print("\nall 8 ideals of G2:")
for ideal in enumerate_ideals(g2):
    print("  ", sorted(str(r) for r in ideal.roots()) or "(empty)")
