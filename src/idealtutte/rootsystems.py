"""Positive root systems, simple systems, heights, the root partial order, and the
linear order used by the basis-activity formula.

Roots carry two coordinate systems at once: integer coefficients over the
simple system, and doubled standard coordinates (so the half-integer roots of
F4 and E6 stay exact integers).  The partial order is coefficientwise
dominance in the simple basis; each of its covers adds one simple root, and
every strict relation is a chain of covers.  So one pass up the heights, with
the root strings read off the Cartan matrix, finds the positive roots and the
covers together, and the up- and down-sets are closed along the covers alone.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import ConstraintError, UnsupportedTypeError

# family -> (positive-root count, simple roots in doubled standard coordinates,
# Bourbaki conventions); the rank and the ambient dimension are read off them
_EXCEPTIONAL_SYSTEMS = {
    "G2": (6, ((2, -2, 0), (-4, 2, 2))),
    "F4": (24, ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))),
    "E6": (
        36,
        (
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
        ),
    ),
}
CLASSICAL = ("A", "B", "C", "D")
EXCEPTIONAL = tuple(_EXCEPTIONAL_SYSTEMS)
FAMILIES = CLASSICAL + EXCEPTIONAL


class RootSystemType(namedtuple("RootSystemType", "family rank")):
    """An irreducible root-system family with its rank.

    For family A the rank r names A_r, living in R^(r+1); for B/C/D the rank
    equals the ambient dimension.  Exceptional families have fixed rank.
    """

    __slots__ = ()

    def __new__(cls, family, rank):
        if family in ("E7", "E8"):
            raise UnsupportedTypeError(f"{family} is not supported")
        if family not in FAMILIES:
            raise ConstraintError(f"unknown family {family!r}")
        if rank is None:
            raise ConstraintError(f"family {family} requires an explicit rank")
        if family == "A" and rank < 1:
            raise ConstraintError("family A needs rank >= 1 (A_{n-1} with n >= 2)")
        if family in ("B", "C") and rank < 2:
            raise ConstraintError(f"family {family} needs rank >= 2")
        if family == "D" and rank < 4:
            raise ConstraintError("family D needs rank >= 4 (D_n, n >= 4)")
        if family in EXCEPTIONAL and rank != (fixed := len(_EXCEPTIONAL_SYSTEMS[family][1])):
            raise ConstraintError(f"{family} has fixed rank {fixed}")
        return super().__new__(cls, family, rank)

    @property
    def is_classical(self):
        return self.family in CLASSICAL

    @property
    def ambient_dim(self):
        if self.is_classical:
            return self.rank + (self.family == "A")
        return len(simple_system_ambient2(self)[0])

    @property
    def n_param(self):
        """The classical parameter n: A_{n-1} has n_param = rank+1, B/C/D_n have n."""
        if not self.is_classical:
            raise UnsupportedTypeError(f"{self.family} has no classical parameter")
        return self.ambient_dim

    def positive_root_count(self):
        f, r = self.family, self.rank
        if f in EXCEPTIONAL:
            return _EXCEPTIONAL_SYSTEMS[f][0]
        return {"A": r * (r + 1) // 2, "B": r * r, "C": r * r, "D": r * (r - 1)}[f]

    def __str__(self):
        return self.family if self.family in EXCEPTIONAL else f"{self.family}{self.rank}"


def root_system_type(family, rank=None):
    """Build a RootSystemType; exceptional families may omit the rank."""
    family = str(family).upper()
    if rank is None and family in EXCEPTIONAL:
        rank = len(_EXCEPTIONAL_SYSTEMS[family][1])
    return RootSystemType(family, rank if rank is None else int(rank))


class Root(namedtuple("Root", "simple_coords ambient2 index")):
    """A positive root with simple-basis and doubled-standard coordinates."""

    __slots__ = ()

    @property
    def height(self):
        return sum(self.simple_coords)

    def __str__(self):
        return "(" + ",".join(map(str, self.simple_coords)) + ")"


def simple_system_ambient2(rst):
    """Doubled standard coordinates of the simple roots, in Bourbaki conventions."""
    f, r = rst.family, rst.rank
    if f in EXCEPTIONAL:
        return _EXCEPTIONAL_SYSTEMS[f][1]
    d = rst.ambient_dim

    def vec(*entries):
        v = [0] * d
        for k, c in entries:
            v[k] = c
        return tuple(v)

    last = {
        "A": ((r - 1, 2), (r, -2)),
        "B": ((r - 1, 2),),
        "C": ((r - 1, 4),),
        "D": ((r - 2, 2), (r - 1, 2)),
    }[f]
    return tuple(vec((i, 2), (i + 1, -2)) for i in range(r - 1)) + (vec(*last),)


def _roots_along_covers(rst):
    """RootPoset.cartan, the positive roots {simple coordinates: doubled standard
    coordinates}, and the covers (beta, beta + alpha_i) found a height at a time.

    The alpha_i-string through a positive root beta != alpha_i has no gaps and
    s_i reverses it, so beta + alpha_i is a root exactly when <beta, alpha_i^vee>
    < 0 or beta - (<beta, alpha_i^vee> + 1) alpha_i is a positive root, a lower
    one and so already found.  Every root of height h + 1 is one of height h
    plus a simple root.
    """
    simples = simple_system_ambient2(rst)
    cartan = []
    for alpha in simples:
        norm = sum(c * c for c in alpha)
        pairings2 = [2 * sum(a * c for a, c in zip(other, alpha)) for other in simples]
        if any(p % norm for p in pairings2):
            raise ConstraintError("non-crystallographic pairing")
        cartan.append(tuple((j, p // norm) for j, p in enumerate(pairings2) if p))
    level = [tuple(int(j == i) for j in range(len(simples))) for i in range(len(simples))]
    roots = dict(zip(level, simples))
    covers = []
    while level:
        found = []
        for beta in level:
            for i, row in enumerate(cartan):
                pairing = 0
                for j, c in row:
                    pairing += beta[j] * c
                if pairing >= beta[i]:  # beta - (pairing + 1) alpha_i is not positive
                    continue
                head, tail = beta[:i], beta[i + 1 :]
                if pairing >= 0 and head + (beta[i] - pairing - 1,) + tail not in roots:
                    continue
                up = head + (beta[i] + 1,) + tail
                covers.append((beta, up))
                if up not in roots:
                    roots[up] = tuple(a + c for a, c in zip(roots[beta], simples[i]))
                    found.append(up)
        level = found
    return tuple(cartan), roots, covers


def hyperplane_tuple(rst, ambient2):
    """The tuple (i, j) naming the hyperplane of a classical root.

    (i, j) is x_i = x_j, (i, -j) is x_i = -x_j, and (i, 0) is x_i = 0, with
    1-based indices and i < |j|.
    """
    if not rst.is_classical:
        raise UnsupportedTypeError(f"{rst.family} roots have no tuple form")
    support = [(k, c) for k, c in enumerate(ambient2) if c]
    if len(support) == 1:
        (k, c) = support[0]
        if c <= 0:
            raise ConstraintError(f"not a positive classical root: {ambient2}")
        return (k + 1, 0)
    if len(support) == 2:
        (k1, c1), (k2, c2) = support
        if c1 <= 0 or abs(c1) != abs(c2):
            raise ConstraintError(f"not a positive classical root: {ambient2}")
        return (k1 + 1, (k2 + 1) if c2 < 0 else -(k2 + 1))
    raise ConstraintError(f"not a classical root: {ambient2}")


def linear_order_key(root):
    """The digit word l(u): digit i repeated u_i times, ascending i.

    Words compare as natural numbers, i.e. by (length, lexicographic), since
    every digit is nonzero.  For ranks above 9 the string form is ambiguous;
    comparisons should use sort_key() instead.
    """
    return "".join(str(i + 1) * c for i, c in enumerate(root.simple_coords))


def sort_key(coords):
    """Structured comparison key for the linear order: (height, digit sequence)."""
    digits = []
    for i, c in enumerate(coords):
        digits.extend([i + 1] * c)
    return (len(digits), tuple(digits))


class RootPoset:
    """Indexed positive roots, found with their covers beta < beta + alpha_i a
    height at a time, and the dominance order closed along those covers (if
    beta < gamma, some such cover stays <= gamma)."""

    def __init__(self, rst):
        self.rst = rst
        # cartan[i] = the nonzero pairs (j, <alpha_j, alpha_i^vee>)
        self.cartan, raw, found = _roots_along_covers(rst)
        expected = rst.positive_root_count()
        if len(raw) != expected:
            raise ConstraintError(
                f"generated {len(raw)} positive roots for {rst}, expected {expected}"
            )
        if rst.is_classical:
            keyed = [(hyperplane_tuple(rst, amb), coords, amb) for coords, amb in raw.items()]
        else:
            keyed = [(sort_key(coords), coords, amb) for coords, amb in raw.items()]
        keyed.sort()
        self.roots = tuple(
            Root(coords, amb, i) for i, (_, coords, amb) in enumerate(keyed)
        )
        # tuples[i] = the hyperplane tuple of root i; None for exceptional types
        self.tuples = tuple(key for key, _, _ in keyed) if rst.is_classical else None
        self._index = {r.simple_coords: r.index for r in self.roots}
        # covers: (root_i, root_j) with root_j = root_i + alpha_k, in increasing (i, j)
        by_height = [(self._index[beta], self._index[up]) for beta, up in found]
        self.covers = tuple((self.roots[i], self.roots[j]) for i, j in sorted(by_height))
        # up_masks[i] = bitmask of indices j with root_i <= root_j, closed along the
        # covers from the top down; down_masks the converse, from the bottom up
        self.up_masks = [1 << i for i in range(len(self.roots))]
        self.down_masks = list(self.up_masks)
        for i, j in reversed(by_height):
            self.up_masks[i] |= self.up_masks[j]
        for i, j in by_height:
            self.down_masks[j] |= self.down_masks[i]
        # height_masks[h - 1] = bitmask of the roots of height h, h = 1, 2, ...
        self.height_masks = [0] * max(r.height for r in self.roots)
        for r in self.roots:
            self.height_masks[r.height - 1] |= 1 << r.index

    def __len__(self):
        return len(self.roots)

    def index_of(self, coords):
        coords = tuple(int(c) for c in coords)
        if coords not in self._index:
            raise ConstraintError(f"{coords} is not a positive root of {self.rst}")
        return self._index[coords]

    def leq(self, i, j):
        return bool(self.up_masks[i] >> j & 1)


@functools.lru_cache(maxsize=None)
def root_poset(rst):
    return RootPoset(rst)


def simple_reflections(poset):
    """For each simple root alpha_i, the permutation of the positive roots'
    indices by which s_i(beta) = beta - <beta, alpha_i^vee> alpha_i permutes
    their hyperplanes; alpha_i, which s_i negates, maps to itself."""
    perms = [[] for _ in poset.cartan]
    for root in poset.roots:
        beta = root.simple_coords
        for i, row in enumerate(poset.cartan):
            image = beta[:i] + (beta[i] - sum(beta[j] * c for j, c in row),) + beta[i + 1 :]
            perms[i].append(poset._index.get(image, root.index))
    return perms
