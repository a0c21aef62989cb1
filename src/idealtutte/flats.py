"""The lattice of flats of a full arrangement, and the coboundary polynomial
of every one of its ideals read off it.

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
flats (``FlatLattice.restrict``, which returns chi-bar_D and r(D) to the
engine dispatcher in ``specialize``).  G2 has 8 flats, F4 268 and E6 4598.
auto also serves the classical systems of at most
``specialize.AUTO_MAX_CLASSICAL_ROOTS`` positive roots from here: D4 has 72
flats, B4 and C4 116, A5 203, D5 403, B5 and C5 648 and A6 877.  Any system
of at most ``MAX_VECTORS`` roots is served when the flats engine is named.
The dispatcher imports this module on the first request that reads a
lattice, so no other request loads it.

The lattice comes from the Weyl group W (``orbit_lattice``).  The fixator of
a subspace is a parabolic subgroup (Steinberg), so every flat is
W-conjugate to a standard parabolic flat, the roots supported on a set J of
simple roots, of rank |J|; and chi_{M/F} is the same on each W-orbit.  The
simple reflections permute the hyperplanes, so the orbits of the 2^r
standard flats under them are all the flats, and chi_{M/F} is filled once
per orbit.  The orbits are closed breadth first in lockstep, and each simple
reflection permutes the hyperplanes by disjoint transpositions, so a round
reflects the frontiers of every growing orbit with one delta swap per
transposition distance on one packed int (Knuth, TAOCP 4A 7.1.3).  The
tests hold the orbit build to a reference that enumerates the flats of any
integer configuration by linear algebra (``tests/flat_reference.py``).

Everything here is plain Python integers, so a request on the lattice
imports no numpy.  A flat is an int bitmask over the roots, and the lattice
holds the flats orbit by orbit, by rank.  ``restrict`` adds up, four roots
at a time, columns that hold one byte per flat, so |F & D| of
every flat comes out as one ``bytes`` object; it counts each orbit's
histogram of those bytes, sums the orbit's chi row, packed into signed
64-bit fields of one int, once per count, and decodes the sums in one pass.
On a 2-CPU VM (Python 3.11) the E6 build takes a median of 9-10 ms, the F4
build about 0.9 ms, and a restriction about 0.18 ms on E6 and 0.05 ms on
F4 (the means over their 833 and 105 ideals).  The classical lattices that
auto builds take 0.4-2.3 ms, from D4 to A6, and a restriction with its
Tutte transform 0.04-0.13 ms, 3.7-7x less than the counting DP.
"""

from __future__ import annotations

import functools
from array import array
from itertools import chain

from .errors import ConstraintError, GuardExceeded, InconsistencyError
from .exactpoly import BivariatePolynomial
from .ideals import check_exponent_factorization, ideal_from_mask
from .rootsystems import root_poset, simple_reflections

# restrict keeps |F & D| of each flat in one byte, which holds counts up to
# MAX_VECTORS, and every coefficient it forms in a signed 64-bit field: at
# most 3^m in absolute value (the coefficients of sum_S q^(r - r(S)) (t-1)^|S|
# over the subsets S of m vectors add up to at most sum_S 2^|S| = 3^m), under
# 2^63 for m <= 39.  orbit_lattice's closure and FlatLattice's byte columns
# hold a mask in a 64-bit word, up to 64 roots, so the bound of 39 is the one
# that binds
MAX_VECTORS = 39
FIELD_BITS = 64

# bit i of each byte, as a bytes.translate table
_BITS = [bytes(x >> i & 1 for x in range(256)) for i in range(8)]


class FlatLattice:
    """The flats of a vector configuration of rank ``rank``, orbit by orbit,
    by rank.

    ``orbits`` is a list of (rank, flats): the flats of one orbit share their
    rank and their chi_{M/F} (as a W-orbit does), each a list of int masks
    with bit i set when vector i lies on the flat.  The caller orders them
    so that the ranks weakly increase, the least flat first and the whole
    configuration, which holds every vector, last.  ``masks`` and ``ranks``
    list the flats in that order, and the constructor fills ``kinds[k][j]``,
    the coefficient of q^j in the chi_{M/F} of the k-th orbit.  All are lists
    of Python ints.  Raises ``InconsistencyError`` unless the chi_{M/F} sum
    to q^r.
    """

    def __init__(self, orbits):
        self.masks = masks = list(chain.from_iterable(orbit for _, orbit in orbits))
        self.ranks = list(chain.from_iterable([rank] * len(orbit) for rank, orbit in orbits))
        self.rank = r = self.ranks[-1]
        n = masks[-1].bit_length()  # the last flat holds every vector
        # each orbit is one span of bytes for restrict; a span's counts
        # |F & D| lie between its least flat size less the n - m vectors off D
        # and its greatest size
        spans, stop = [], 0
        for _, orbit in orbits:
            sizes = set(map(int.bit_count, orbit))
            start, stop = stop, stop + len(orbit)
            spans.append((start, stop, min(sizes) - n, max(sizes)))
        # nibbles[g][v]: for each flat in that order, one byte holding how
        # many of the vectors 4g + i for the bits i of v lie on it, read as
        # an int; a mask's counts then take one addition per 4 bits.  Byte b
        # of every flat's mask is every 8th byte of their packed words, and
        # the table of v is the sum of those of its lowest bit and the rest
        joined = array("Q", masks).tobytes()
        self._nibbles = []
        for g in range(0, n, 4):
            column = joined[g // 8 :: 8]
            table = [0] * 16
            for i in range(4):
                table[1 << i] = int.from_bytes(column.translate(_BITS[g % 8 + i]), "little")
            for v in range(3, 16):
                if v & (v - 1):
                    table[v] = table[v & (v - 1)] + table[v & -v]
            self._nibbles.append(table)
        self.kinds = kinds = self._chi_rows(orbits, spans)
        total = [sum(len(o) * row[j] for (_, o), row in zip(orbits, kinds)) for j in range(r + 1)]
        if total != [0] * r + [1]:
            raise InconsistencyError(
                f"the chi_(M/F) of {masks[-1].bit_count()} vectors do not sum "
                f"to q^{self.rank}"
            )
        # each chi row packed into one int, the coefficient of q^j a signed
        # field at bit FIELD_BITS * j
        self._spans = [
            (*span, sum(c << FIELD_BITS * j for j, c in enumerate(row)))
            for span, row in zip(spans, kinds)
        ]
        # 2^63 in each field of a row: adding it and XORing it back turns the
        # signed fields into the two's complement words memoryview.cast("q") reads
        ones = ((1 << FIELD_BITS * (r + 1)) - 1) // ((1 << FIELD_BITS) - 1)
        self._bias = ones << FIELD_BITS - 1
        # terms[shift][(r + 1) j + a]: the key of q^a t^j once q^shift is
        # divided out, None below it
        self._terms = [
            [(f % (r + 1) - shift, f // (r + 1)) if f % (r + 1) >= shift else None
             for f in range((n + 1) * (r + 1))]
            for shift in range(r + 1)
        ]

    def _chi_rows(self, orbits, spans):
        """rows[k][j], the coefficient of q^j in chi_{M/F}(q) for the flats F
        of the k-th orbit, read off its first flat F: q^(r - r(F)) minus the
        chi_{M/G} of every flat G strictly above F, counted per orbit as the
        flats G with |G & F| = |F|.  The flats above F have larger ranks and
        so lie in later orbits, and the orbits are filled from last to first.
        """
        r, rows = self.rank, [None] * len(orbits)
        for k in range(len(orbits) - 1, -1, -1):
            rank, orbit = orbits[k]
            counts, size = self._counts(orbit[0]), orbit[0].bit_count()
            row = [int(j == r - rank) for j in range(r + 1)]
            for (start, stop, *_), above in zip(spans[k + 1 :], rows[k + 1 :]):
                c = counts.count(size, start, stop)
                row = [x - c * y for x, y in zip(row, above)]
            rows[k] = row
        return rows

    def _counts(self, mask):
        """|F & mask| of every flat F, one byte each, in ``masks`` order."""
        sums = 0
        for table in self._nibbles:
            sums += table[mask & 15]
            mask >>= 4
        return sums.to_bytes(len(self.masks), "little")

    def __len__(self):
        return len(self.masks)

    def restrict(self, mask):
        """(chi-bar_D(q, t), r(D)) of the subconfiguration D whose vectors are
        the bits of ``mask``.

        r(D) is the rank of the smallest flat containing D.  The sum over the
        flats is binned by |F & D| and must vanish below q^(r - r(D)), which
        is divided out; InconsistencyError otherwise.  ConstraintError for a
        mask with bits outside the configuration.
        """
        if mask & ~self.masks[-1]:
            raise ConstraintError(f"mask {mask:#x} names vectors outside the configuration")
        m, r = mask.bit_count(), self.rank
        counts = self._counts(mask)  # |F & D| per flat
        # the flats holding all of D; the first of them has the least rank
        rank = self.ranks[counts.find(m)]
        # by[j]: the sum of the packed chi rows of the flats F with |F & D| = j;
        # a span shorter than a few bytes per count it may hold is walked, a
        # longer one counted once per count
        by = [0] * (m + 1)
        for start, stop, lowest, large, row in self._spans:
            size, lo, hi = stop - start, lowest + m, large if large < m else m
            if lo < 0:
                lo = 0
            if lo == hi:
                by[lo] += size * row
            elif size < 4 * (hi - lo):
                for j in counts[start:stop]:
                    by[j] += row
            else:
                for j, c in zip(range(lo, hi), map(counts[start:stop].count, range(lo, hi))):
                    by[j] += c * row
                    size -= c
                by[hi] += size * row
        bias, row_bytes = self._bias, FIELD_BITS // 8 * (r + 1)
        words = b"".join([((x + bias) ^ bias).to_bytes(row_bytes, "little") for x in by])
        terms = zip(self._terms[r - rank], memoryview(words).cast("q"))
        coeffs = {key: c for key, c in terms if c}
        if None in coeffs:
            raise InconsistencyError(
                f"flat sum of {m} elements of rank {rank} is not divisible by "
                f"q^{r - rank}"
            )
        return BivariatePolynomial._of(coeffs, ("q", "t")), rank


def orbit_lattice(rst):
    """The ``FlatLattice`` of the full arrangement of a root system, over its
    simple coordinates in root-poset order, read off the Weyl group.

    The standard parabolic flats, the roots supported on each subset J of
    the simple roots, are closed under the simple reflections in batches
    (``_close``), and every flat a closure reaches is its W-orbit.  W keeps
    a flat's rank and size, so each batch takes, by ascending J, the first
    standard flat of each (rank, size) key that no orbit of its key holds
    yet; another flat of a key already taken waits for a later batch, which
    skips it if it is reached by then.  The orbits of a batch grow in
    lockstep, and a round applies every simple reflection to all their
    frontiers at once (``_reflect``): each reflection permutes the
    hyperplanes by disjoint transpositions (j, j + d), so one delta swap per
    distance d moves the bits of all the round's masks.  E6 takes 30 rounds,
    A8 52.  The flats come orbit by orbit, by rank and then by least flat,
    each orbit by mask value; ``FlatLattice`` fills chi_{M/F} once per
    orbit.  On a 2-CPU VM (Python 3.11) the E6 build takes a median of 9-10
    ms, and the A8 build (21147 flats) 50-57 ms.  Raises ``GuardExceeded``
    for more than ``MAX_VECTORS`` positive roots.
    """
    poset = root_poset(rst)
    m, r = len(poset), rst.rank
    if m > MAX_VECTORS:
        raise GuardExceeded(f"flats of {m} roots need at most {MAX_VECTORS}")
    support = [sum(1 << i for i, c in enumerate(root.simple_coords) if c) for root in poset.roots]
    standard = [
        sum(1 << j for j, s in enumerate(support) if not s & ~subset) for subset in range(1 << r)
    ]
    network = _swap_network(simple_reflections(poset))
    # W keeps rank and size, so only the orbits of a flat's key can hold it
    waiting = [((subset.bit_count(), f.bit_count()), f) for subset, f in enumerate(standard)]
    orbits, by_key = [], {}
    while waiting:
        seeds, later = {}, []
        for key, start in waiting:
            if any(start in orbit for orbit in by_key.get(key, ())):
                continue
            if key in seeds:
                later.append((key, start))
            else:
                seeds[key] = start
        waiting = later
        for key, orbit in zip(seeds, _close(list(seeds.values()), network, r)):
            by_key.setdefault(key, []).append(orbit)
            orbits.append((key[0], sorted(orbit)))
    orbits.sort()  # by rank, then least flat: no two orbits share a flat
    return FlatLattice(orbits)


def _close(seeds, network, r):
    """The orbit of each seed mask under the simple reflections of
    ``network``, each a set, in seed order, closed breadth first in
    lockstep: each round is one ``_reflect`` over the frontiers of every
    orbit still growing, its images split back by position.
    """
    growing = [({seed}, [seed]) for seed in seeds]
    done = [orbit for orbit, _ in growing]
    while growing:
        images = _reflect(chain.from_iterable(front for _, front in growing), network, r)
        at, still = 0, []
        for orbit, front in growing:
            at, start = at + r * len(front), at
            front = set(images[start:at]).difference(orbit)
            if front:
                orbit |= front
                still.append((orbit, front))
        growing = still
    return done


def _swap_network(reflections):
    """[[d, fields, count, wide]]: per distance d of a transposition
    (j, j + d) that some simple reflection makes of the hyperplanes, the
    bytes of one 64-bit field per reflection, in order, with bit j set for
    each of its transpositions at d (``reflections`` as from
    ``rootsystems.simple_reflections``).  ``wide``, the int of ``fields``
    repeated ``count`` times, starts empty; ``_reflect`` builds it again,
    at least doubling ``count``, only when a frontier holds more than
    ``count`` masks, so a whole build makes it a few times per distance.
    """
    swaps = {}
    for i, image in enumerate(reflections):
        for j, k in enumerate(image):
            if k > j:
                swaps.setdefault(k - j, [0] * len(reflections))[i] |= 1 << j
    return [[d, array("Q", row).tobytes(), 0, 0] for d, row in swaps.items()]


def _reflect(masks, network, r):
    """The images of ``masks`` under the r simple reflections of ``network``
    (``_swap_network``), mask by mask, as a memoryview of 64-bit words: item
    r k + i is the k-th mask's image under the i-th reflection.  The masks
    are packed into one int, r copies of the k-th in the 64-bit fields r k to
    r k + r - 1 (one extended-slice assignment per reflection), and each
    distance takes one delta swap over all of them (Knuth, TAOCP 4A 7.1.3).
    """
    masks = array("Q", masks)
    n = len(masks)
    packed = array("Q", bytes(8 * r * n))
    for i in range(r):
        packed[i::r] = masks
    y = int.from_bytes(packed, "little")
    for swap in network:
        d, fields, count, wide = swap
        if count < n:
            count = max(n, 2 * count)
            wide = int.from_bytes(fields * count, "little")
            swap[2:] = count, wide
        t = ((y >> d) ^ y) & wide
        y ^= t | t << d
    return memoryview(y.to_bytes(8 * r * n, "little")).cast("Q")


@functools.cache
def flat_lattice(rst):
    """The ``FlatLattice`` of the full arrangement of a root system, over its
    simple coordinates in root-poset order (``orbit_lattice``), built on the
    first call and kept for the process.  auto serves G2, F4, E6 and the
    classical systems of at most ``specialize.AUTO_MAX_CLASSICAL_ROOTS``
    roots from it.

    Besides the build's own check, chi_M(q) must split over the exponents of
    the empty ideal (``ideals.check_exponent_factorization``);
    InconsistencyError otherwise.
    """
    lattice = orbit_lattice(rst)
    check_exponent_factorization(ideal_from_mask(root_poset(rst), 0), lattice.kinds[0])
    return lattice
