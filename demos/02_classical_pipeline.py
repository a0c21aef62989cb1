"""The finite field pipeline on a B6 ideal arrangement, step by step.

The ideal is specified by the generating boxes of its complement.  The
pipeline: diagram and signatures -> block partition -> one counting dynamic
program -> coboundary polynomial -> Tutte polynomial -> characteristic
polynomial and regions.  The same model's weighted point count over F_3 is
checked against the polynomial at q = 3.
"""

from idealtutte import (
    CountingModel,
    arrangement_of,
    characteristic_polynomial,
    coboundary_of_ideal,
    coboundary_to_tutte,
    complement,
    ideal_from_boxes,
    region_count,
    root_poset,
    root_system_type,
)
from idealtutte.paper import generating_boxes, partition_in_accordance, signature_table

poset = root_poset(root_system_type("B", 6))
ideal = ideal_from_boxes(poset, [(1, 4), (2, 0), (4, -5)])
hyperplanes = complement(ideal)

print(f"ideal of B6 with |I| = {len(ideal)}; complement has {len(hyperplanes)} hyperplanes:")
print("  ", sorted(hyperplanes))
print("generating boxes:", generating_boxes(ideal))

print("\nsignatures (which generating box sets mention each integer):")
for x, s in signature_table(ideal).items():
    print(f"  s({x:3d}) = {sorted(s)}")

bp = partition_in_accordance(ideal)
print("\npartition in accordance:", " | ".join(str(set(b)) for b in bp.blocks))
print("A-block adjacency R:", bp.r_sets, " B-block adjacency R_A:", bp.ra_sets, "S:", bp.s_sets)
print("zero column sets R0:", bp.r0, "S0:", bp.s0)

rank = arrangement_of(ideal).rank
print(f"\nrank {rank}")
model = CountingModel(6, bp.hyperplanes, blocks=bp.blocks)
profile = model.coboundary_at_prime(3)
print(f"chi-bar(3, t) = {profile.to_text('t')}")

cb = coboundary_of_ideal(ideal)
print(f"\ncoboundary polynomial has {len(cb.coeffs)} terms; chi-bar(q, 1) = q^{rank}:",
      cb.evaluate(97, 1) == 97 ** rank)
print("agrees with chi-bar(3, t) at q = 3:",
      all(sum(c * t ** k for k, c in enumerate(profile.coeffs)) == cb.evaluate(3, t)
          for t in range(len(hyperplanes) + 1)))

tutte = coboundary_to_tutte(cb, rank)
print(f"Tutte polynomial T(x, y), {len(tutte.coeffs)} terms:")
print(" ", tutte.to_text())
print("T(2,2) = 2^#hyperplanes:", tutte.evaluate(2, 2) == 2 ** len(hyperplanes))

chi = characteristic_polynomial(ideal)
print("\ncharacteristic polynomial:", chi.to_text("q"))
print("regions:", region_count(tutte))
