"""The lattice of flats of a full exceptional arrangement, and the coboundary
polynomial of every one of its ideals read off it.

Every ideal arrangement D is a subarrangement of its root system's full
arrangement M, of rank r.  Grouping Ardila's point count of Crapo's
coboundary polynomial by the flat of M on which each point lies gives, for
every D,

    q^(r - r(D)) chi-bar_D(q, t) = sum over flats F of M of chi_{M/F}(q) t^|F & D|,

where chi_{M/F}(q) = q^(r - r(F)) - sum over flats G > F of chi_{M/G}(q)
counts the points on F and on no larger flat.  (Expand t^|F & D| as the sum
of (t-1)^|S| over S in F & D; the flats above the closure of S contribute
q^(r - r(S)), which is Crapo's subset expansion.)  So one lattice per root
system serves all its ideals: ``flat_lattice`` builds it on the first request
and keeps it for the process, and each ideal then costs one pass over the
flats' bitmasks (``FlatLattice.restrict``, which returns chi-bar_D and r(D) to
the engine dispatcher in ``specialize``).  G2 has 8 flats, F4 268 and E6 4598.

The lattice comes from the Weyl group W (``orbit_lattice``).  The fixator of
a subspace is a parabolic subgroup (Steinberg), so every flat is
W-conjugate to a standard parabolic flat, the roots supported on a set J of
simple roots, of rank |J|; and chi_{M/F} is the same on each W-orbit.  The
simple reflections permute the hyperplanes, so the orbits of the 2^r
standard flats, closed under them, are all the flats, and chi_{M/F} is
filled once per orbit.  The tests hold the orbit build to a reference that
enumerates the flats of any integer configuration by linear algebra
(``tests/flat_reference.py``).
"""

from __future__ import annotations

import functools

from .errors import GuardExceeded, InconsistencyError
from .exactpoly import BivariatePolynomial, UnivariatePolynomial
from .ideals import ideal_exponents, ideal_from_mask
from .rootsystems import root_poset, simple_reflections

# every coefficient the engine forms is at most 3^m in absolute value (the
# coefficients of sum_S q^(r - r(S)) (t-1)^|S| over the subsets S of m
# vectors add up to at most sum_S 2^|S| = 3^m), under 2^63 for m <= 39; int64
# sums that wrap on the way still end exact
MAX_VECTORS = 39


class FlatLattice:
    """The flats of a vector configuration of rank ``rank``, by rank and then
    by mask value.

    ``masks`` (uint64) has bit i set when vector i lies on the flat, and
    ``ranks`` the rank of each flat (weakly increasing, so the least flat
    comes first and the whole configuration last).  Few chi_{M/F} differ:
    ``kinds[k, j]`` (int64) is the coefficient of q^j in the k-th of them,
    and ``kind`` the k of each flat.  Raises ``InconsistencyError`` unless
    the chi_{M/F} sum to q^r.
    """

    def __init__(self, masks, ranks, kind, kinds):
        import numpy as np

        self.masks, self.ranks, self.kind, self.kinds = masks, ranks, kind, kinds
        self.rank = kinds.shape[1] - 1
        total = np.bincount(kind, minlength=len(kinds)) @ kinds
        if total.tolist() != [0] * self.rank + [1]:
            raise InconsistencyError(
                f"the chi_(M/F) of {int(masks[-1]).bit_count()} vectors do not sum "
                f"to q^{self.rank}"
            )

    @property
    def chi(self):
        """chi[F, j], the coefficient of q^j in chi_{M/F}(q)."""
        return self.kinds[self.kind]

    def __len__(self):
        return len(self.masks)

    def restrict(self, mask):
        """(chi-bar_D(q, t), r(D)) of the subconfiguration D whose vectors are
        the bits of ``mask``.

        r(D) is the rank of the smallest flat containing D.  The sum over the
        flats is binned by |F & D| and must vanish below q^(r - r(D)), which
        is divided out; InconsistencyError otherwise.
        """
        import numpy as np

        counts = np.bitwise_count(self.masks & np.uint64(mask)).astype(np.intp)
        m = mask.bit_count()
        # the flats holding all of D; the first of them has the least rank
        rank = int(self.ranks[np.argmax(counts == m)])
        # table[j] sums the chi rows of the flats F with |F & D| = j: flats
        # counted by (j, kind), times the distinct rows
        k = len(self.kinds)
        hist = np.bincount(counts * k + self.kind, minlength=(m + 1) * k)
        table = hist.reshape(m + 1, k) @ self.kinds
        shift = self.rank - rank
        if table[:, :shift].any():
            raise InconsistencyError(
                f"flat sum of {m} elements of rank {rank} is not divisible by "
                f"q^{shift}"
            )
        ts, qs = np.nonzero(table)
        coeffs = zip((qs - shift).tolist(), ts.tolist(), table[ts, qs].tolist())
        return BivariatePolynomial({(a, b): c for a, b, c in coeffs}, ("q", "t")), rank


def orbit_lattice(rst):
    """The ``FlatLattice`` of the full arrangement of a root system, over its
    simple coordinates in root-poset order, read off the Weyl group.

    The standard parabolic flats, the roots supported on each subset J of
    the simple roots, are closed under the simple reflections, each applied
    to a round's new masks through one 256-entry table per mask byte; each
    flat carries the J it was reached from, and two J whose flats meet are
    merged, which leaves one label per W-orbit.  ``_orbit_rows`` then fills
    chi_{M/F} once per orbit.  Raises ``GuardExceeded`` for more than
    ``MAX_VECTORS`` positive roots.
    """
    import numpy as np

    poset = root_poset(rst)
    m, r = len(poset), rst.rank
    if m > MAX_VECTORS:
        raise GuardExceeded(f"flats of {m} roots need at most {MAX_VECTORS}")
    bits = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    support = (np.array([root.simple_coords for root in poset.roots]) != 0) @ (1 << np.arange(r))
    subsets = np.arange(1 << r)
    inside = (support & ~subsets[:, None]) == 0  # root j supported on J
    standard = np.bitwise_or.reduce(np.where(inside, bits, np.uint64(0)), axis=1)
    # tables[i, b, v]: s_i's image of the roots in byte b of a mask whose byte b is v
    images = np.zeros((r, -(-m // 8) * 8), dtype=np.uint64)
    images[:, :m] = bits[np.array(simple_reflections(poset))]
    in_byte = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
    tables = np.bitwise_or.reduce(
        np.where(in_byte, images.reshape(r, -1, 1, 8), np.uint64(0)), axis=3
    )
    masks, label = standard, subsets
    frontier, reached_from = masks, label
    met = []
    while len(frontier):
        reached = np.zeros((r, len(frontier)), dtype=np.uint64)
        for b in range(tables.shape[1]):
            byte = (frontier >> np.uint64(8 * b)) & np.uint64(255)
            reached |= tables[:, b, byte.astype(np.intp)]
        every = np.concatenate((masks, reached.ravel()))
        labels = np.concatenate((label, np.tile(reached_from, r)))
        old = len(masks)
        masks, first, inverse = np.unique(every, return_index=True, return_inverse=True)
        label = labels[first]
        met.append((label[inverse] << r | labels)[label[inverse] != labels])
        new = first >= old
        frontier, reached_from = masks[new], label[new]
    # merge the labels that met, each to the least of its class
    root = list(range(1 << r))

    def find(j):
        while root[j] != j:
            j = root[j]
        return j

    for pair in set(np.concatenate(met).tolist()):
        a, b = find(pair >> r), find(pair & (1 << r) - 1)
        root[max(a, b)] = min(a, b)
    label = np.array([find(j) for j in range(1 << r)])[label]
    ranks = np.bitwise_count(label).astype(np.intp)
    order = np.lexsort((masks, ranks))
    masks, label, ranks = masks[order], label[order], ranks[order]
    # number the orbits by their first flat in that order
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    kind = np.argsort(np.argsort(first))[inverse]
    reps = np.sort(first)
    kinds = _orbit_rows(masks, kind, masks[reps], ranks[reps], r)
    return FlatLattice(masks, ranks, kind, kinds)


def _orbit_rows(masks, kind, reps, ranks, r):
    """rows[o, j], the coefficient of q^j in chi_{M/F}(q) for the flats F of
    orbit o, filled from the last orbit back: q^(r - r(F)) minus the
    chi_{M/G} of every flat G strictly above the orbit's representative
    flat ``reps[o]``, of rank ``ranks[o]``, as a count of them per orbit.
    The flats above a flat have larger ranks, and so come in later orbits.
    """
    import numpy as np

    rows = np.zeros((len(reps), r + 1), dtype=np.int64)
    for o in range(len(reps) - 1, -1, -1):
        f = reps[o]
        above = kind[((masks & f) == f) & (masks != f)]
        rows[o] = -(np.bincount(above, minlength=len(reps)) @ rows)
        rows[o, r - ranks[o]] += 1
    return rows


@functools.cache
def flat_lattice(rst):
    """The ``FlatLattice`` of the full arrangement of a root system (the
    engine serves G2, F4 and E6), over its simple coordinates in root-poset
    order (``orbit_lattice``), built on the first call and kept for the
    process.

    Besides the build's own check, chi_M(q) must split as prod (q - e_i) over
    the exponents of the empty ideal; InconsistencyError otherwise.
    """
    lattice = orbit_lattice(rst)
    want = UnivariatePolynomial([1])
    for e in ideal_exponents(ideal_from_mask(root_poset(rst), 0)).exponents:
        want = want * UnivariatePolynomial([-e, 1])
    if UnivariatePolynomial(lattice.chi[0].tolist()) != want:
        raise InconsistencyError(
            f"chi of the full {rst} arrangement is not {want.to_text()}"
        )
    return lattice
