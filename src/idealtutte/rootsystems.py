"""Positive root systems, simple systems, heights, the root partial order, and the
linear order used by the basis-activity formula.

Roots carry two coordinate systems at once: integer coefficients over the
simple system, and doubled standard coordinates (so the half-integer roots of
F4 and E6 stay exact integers).  The partial order is coefficientwise
dominance in the simple basis, which reproduces the Hasse diagrams of all
supported families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ConstraintError, UnsupportedTypeError

CLASSICAL = ("A", "B", "C", "D")
EXCEPTIONAL = ("G2", "F4", "E6")
FAMILIES = CLASSICAL + EXCEPTIONAL

_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6}


@dataclass(frozen=True)
class RootSystemType:
    """An irreducible root-system family with its rank.

    For family A the rank r names A_r, living in R^(r+1); for B/C/D the rank
    equals the ambient dimension.  Exceptional families have fixed rank.
    """

    family: str
    rank: int

    def __post_init__(self):
        fam = self.family
        if fam in ("E7", "E8"):
            raise UnsupportedTypeError(f"{fam} is not supported")
        if fam not in FAMILIES:
            raise ConstraintError(f"unknown family {fam!r}")
        if fam == "A" and self.rank < 1:
            raise ConstraintError("family A needs rank >= 1 (A_{n-1} with n >= 2)")
        if fam in ("B", "C") and self.rank < 2:
            raise ConstraintError(f"family {fam} needs rank >= 2")
        if fam == "D" and self.rank < 4:
            raise ConstraintError("family D needs rank >= 4 (D_n, n >= 4)")
        if fam in _EXCEPTIONAL_RANK and self.rank != _EXCEPTIONAL_RANK[fam]:
            raise ConstraintError(f"{fam} has fixed rank {_EXCEPTIONAL_RANK[fam]}")

    @property
    def is_classical(self):
        return self.family in CLASSICAL

    @property
    def ambient_dim(self):
        if self.family == "A":
            return self.rank + 1
        if self.family in ("B", "C", "D"):
            return self.rank
        return {"G2": 3, "F4": 4, "E6": 8}[self.family]

    @property
    def n_param(self):
        """The classical parameter n: A_{n-1} has n_param = rank+1, B/C/D_n have n."""
        if not self.is_classical:
            raise UnsupportedTypeError(f"{self.family} has no classical parameter")
        return self.rank + 1 if self.family == "A" else self.rank

    def positive_root_count(self):
        f, r = self.family, self.rank
        if f == "A":
            return r * (r + 1) // 2
        if f in ("B", "C"):
            return r * r
        if f == "D":
            return r * (r - 1)
        return {"G2": 6, "F4": 24, "E6": 36}[f]

    def __str__(self):
        return self.family if self.family in EXCEPTIONAL else f"{self.family}{self.rank}"


def root_system_type(family, rank=None):
    """Build a RootSystemType; exceptional families may omit the rank."""
    family = str(family).upper()
    if rank is None:
        if family in _EXCEPTIONAL_RANK:
            rank = _EXCEPTIONAL_RANK[family]
        else:
            raise ConstraintError(f"family {family} requires an explicit rank")
    return RootSystemType(family, int(rank))


@dataclass(frozen=True)
class Root:
    """A positive root with simple-basis and doubled-standard coordinates."""

    simple_coords: tuple
    ambient2: tuple
    index: int

    @property
    def height(self):
        return sum(self.simple_coords)

    def __str__(self):
        return "(" + ",".join(map(str, self.simple_coords)) + ")"


def simple_system_ambient2(rst):
    """Doubled standard coordinates of the simple roots, in Bourbaki conventions."""
    f, r = rst.family, rst.rank
    d = rst.ambient_dim

    def e(i, c=2):
        v = [0] * d
        v[i] = c
        return v

    def e2(i, j, ci, cj):
        v = [0] * d
        v[i] = ci
        v[j] = cj
        return tuple(v)

    if f == "A":
        return tuple(e2(i, i + 1, 2, -2) for i in range(r))
    if f == "B":
        return tuple(e2(i, i + 1, 2, -2) for i in range(r - 1)) + (tuple(e(r - 1)),)
    if f == "C":
        return tuple(e2(i, i + 1, 2, -2) for i in range(r - 1)) + (tuple(e(r - 1, 4)),)
    if f == "D":
        return tuple(e2(i, i + 1, 2, -2) for i in range(r - 1)) + (e2(r - 2, r - 1, 2, 2),)
    if f == "G2":
        return ((2, -2, 0), (-4, 2, 2))
    if f == "F4":
        return (
            (0, 2, -2, 0),
            (0, 0, 2, -2),
            (0, 0, 0, 2),
            (1, -1, -1, -1),
        )
    if f == "E6":
        return (
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
        )
    raise UnsupportedTypeError(f)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _generate_positive_roots(rst):
    """All positive roots by height induction from the simple system.

    A candidate v + alpha_i is a root exactly when the alpha_i-string through
    v extends upward: q = r - <v, alpha_i^vee> >= 1, where r counts how far the
    string extends downward.  Everything below height h is known when height
    h+1 is built, so r is computable.
    """
    simples = simple_system_ambient2(rst)
    nsimple = len(simples)
    norms = [_dot(s, s) for s in simples]
    known = {}
    frontier = []
    for i, s in enumerate(simples):
        coords = tuple(1 if j == i else 0 for j in range(nsimple))
        known[coords] = tuple(s)
        frontier.append(coords)
    while frontier:
        nxt = []
        for coords in frontier:
            amb = known[coords]
            for i in range(nsimple):
                pairing2 = 2 * _dot(amb, simples[i])
                if pairing2 % norms[i]:
                    raise ConstraintError("non-crystallographic pairing")
                cartan = pairing2 // norms[i]
                down = 0
                cur = list(coords)
                while True:
                    cur[i] -= 1
                    if cur[i] < 0 or tuple(cur) not in known:
                        break
                    down += 1
                if down - cartan >= 1:
                    up = tuple(
                        c + (1 if j == i else 0) for j, c in enumerate(coords)
                    )
                    if up not in known:
                        known[up] = tuple(
                            a + b for a, b in zip(amb, simples[i])
                        )
                        nxt.append(up)
        frontier = nxt
    return known


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
    """Indexed positive roots with the dominance partial order and its Hasse diagram."""

    def __init__(self, rst):
        self.rst = rst
        raw = _generate_positive_roots(rst)
        expected = rst.positive_root_count()
        if len(raw) != expected:
            raise ConstraintError(
                f"generated {len(raw)} positive roots for {rst}, expected {expected}"
            )
        items = list(raw.items())
        if rst.is_classical:
            items.sort(key=lambda kv: hyperplane_tuple(rst, kv[1]))
        else:
            items.sort(key=lambda kv: sort_key(kv[0]))
        self.roots = tuple(
            Root(coords, amb, i) for i, (coords, amb) in enumerate(items)
        )
        self._index = {r.simple_coords: r.index for r in self.roots}
        m = len(self.roots)
        # up_masks[i] = bitmask of indices j with root_i <= root_j
        self.up_masks = []
        for i, u in enumerate(self.roots):
            mask = 0
            for j, v in enumerate(self.roots):
                if all(a <= b for a, b in zip(u.simple_coords, v.simple_coords)):
                    mask |= 1 << j
            self.up_masks.append(mask)
        self.down_masks = [0] * m
        for i in range(m):
            for j in range(m):
                if self.up_masks[i] >> j & 1:
                    self.down_masks[j] |= 1 << i
        self._covers = None

    def __len__(self):
        return len(self.roots)

    def index_of(self, coords):
        coords = tuple(int(c) for c in coords)
        if coords not in self._index:
            raise ConstraintError(f"{coords} is not a positive root of {self.rst}")
        return self._index[coords]

    def leq(self, i, j):
        return bool(self.up_masks[i] >> j & 1)

    def highest_root(self):
        for i in range(len(self.roots)):
            if self.down_masks[i] == (1 << len(self.roots)) - 1:
                return self.roots[i]
        raise ConstraintError("poset has no maximum element")

    def covers(self):
        """Hasse edges (u, v): the transitive reduction of the dominance order."""
        if self._covers is None:
            m = len(self.roots)
            out = []
            for i in range(m):
                for j in range(m):
                    if i == j or not self.leq(i, j):
                        continue
                    between = self.up_masks[i] & self.down_masks[j] & ~(1 << i) & ~(1 << j)
                    if between == 0:
                        out.append((self.roots[i], self.roots[j]))
            self._covers = tuple(out)
        return self._covers


@functools.lru_cache(maxsize=None)
def root_poset(rst):
    return RootPoset(rst)


def simple_reflections(poset):
    """For each simple root alpha_i, the permutation of the positive roots'
    indices by which s_i(beta) = beta - <beta, alpha_i^vee> alpha_i permutes
    their hyperplanes.

    The pairing is taken in the doubled standard coordinates, so long and
    short roots keep their lengths; the image is sign-normalized, so alpha_i
    maps to itself.
    """
    r = poset.rst.rank
    perms = []
    for i in range(r):
        alpha = poset.roots[poset.index_of([int(j == i) for j in range(r)])].ambient2
        norm = _dot(alpha, alpha)
        perm = []
        for beta in poset.roots:
            image = list(beta.simple_coords)
            image[i] -= 2 * _dot(beta.ambient2, alpha) // norm
            if min(image) < 0:
                image = [-c for c in image]
            perm.append(poset.index_of(image))
        perms.append(perm)
    return perms


def positive_roots(rst):
    """All positive roots of the system, canonically indexed.

    Classical families order by the hyperplane tuple (i, j); exceptional
    families by the linear digit-word order.
    """
    return root_poset(rst).roots


def root_leq(u, v):
    """Dominance test: v - u has nonnegative coefficients over the simple system."""
    return all(a <= b for a, b in zip(u.simple_coords, v.simple_coords))


def hasse_covers(poset):
    return poset.covers()
