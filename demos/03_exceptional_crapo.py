"""Exceptional types via the basis-activity formula.

For G2, F4, and E6 the Tutte polynomial of an ideal arrangement is the sum of
x^internal y^external over all bases of the complement, with activities taken
against the digit-word order on roots.  The G2 case is small enough to list
every basis: each 2-subset of full rank is a basis, its activities come from
rank tests (activity), and their tally is checked against the exact integer
kernel (tutte_crapo, the one used at every size) and the 2^m corank-nullity
expansion.  The kernel finds the bases with a prefix tree that drops a
dependent prefix with all of its supersets, and reads the activities off their
exchange table.
"""

import itertools
import time

from idealtutte import (
    BivariatePolynomial,
    VectorConfig,
    activity,
    ideal_from_root_coords,
    rank_of,
    root_poset,
    root_system_type,
    tutte_corank_nullity,
    tutte_crapo,
)

# --- G2, small enough to show every basis ------------------------------------
g2 = root_poset(root_system_type("G2"))
ideal = ideal_from_root_coords(g2, [(3, 1), (3, 2)])
vectors = [r.simple_coords for r in ideal.complement_roots()]
cfg = VectorConfig(vectors, dim=2)
print("G2 ideal complement:", vectors)
print("bases and activities:")
tally = {}
for basis in itertools.combinations(range(len(cfg)), cfg.rank):
    if rank_of([vectors[i] for i in basis]) < cfg.rank:
        continue
    act = activity(cfg, basis)
    print(f"  basis {basis}: internal {act.internal}, external {act.external}")
    key = (act.internal, act.external)
    tally[key] = tally.get(key, 0) + 1
t = BivariatePolynomial(tally, ("x", "y"))
print("T(x,y) =", t)
print("integer kernel agrees:", t == tutte_crapo(cfg))
print("corank-nullity oracle agrees:", t == tutte_corank_nullity(cfg))

# --- F4 and E6: the published 8-root ideals ------------------------------------
f4 = root_poset(root_system_type("F4"))
i_f = ideal_from_root_coords(f4, [
    (1, 1, 2, 2), (1, 2, 2, 1), (1, 2, 2, 2), (1, 2, 3, 1),
    (1, 2, 3, 2), (1, 2, 4, 2), (1, 3, 4, 2), (2, 3, 4, 2),
])
cfg = VectorConfig([r.simple_coords for r in i_f.complement_roots()], dim=4)
t0 = time.time()
t = tutte_crapo(cfg)
print(f"\nF4 ideal: {len(cfg)} vectors, rank {cfg.rank}, "
      f"{t.evaluate(1, 1)} bases, {time.time()-t0:.2f}s")
print("T(x,y) =", t)

e6 = root_poset(root_system_type("E6"))
i_e = ideal_from_root_coords(e6, [
    (1, 1, 1, 2, 1, 0), (1, 1, 1, 2, 1, 1), (1, 1, 2, 2, 1, 0),
    (1, 1, 2, 2, 1, 1), (1, 1, 1, 2, 2, 1), (1, 1, 2, 2, 2, 1),
    (1, 1, 2, 3, 2, 1), (1, 2, 2, 3, 2, 1),
])
cfg = VectorConfig([r.simple_coords for r in i_e.complement_roots()], dim=6)
t0 = time.time()
t = tutte_crapo(cfg)
print(f"\nE6 ideal: {len(cfg)} vectors, rank {cfg.rank}, "
      f"{t.evaluate(1, 1)} bases of the C(28,6) = 376740 6-subsets, "
      f"{time.time()-t0:.2f}s")
print("leading terms:", {k: v for k, v in t.terms()[-5:]})
print("T(2,2) = 2^28:", t.evaluate(2, 2) == 2 ** 28)
