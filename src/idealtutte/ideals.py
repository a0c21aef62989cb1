"""Ideals of positive root systems: enumeration, construction from roots or
from generating boxes, ideal arrangements, the automorphism blocks that the
counting engine takes by default, the classes of the tuples' signed graph
(which give both the components and the counting model's rank), component
decomposition, and the ideal exponents read off the complement's heights,
with the one check that a characteristic polynomial splits over them.

Classical roots are named throughout by the hyperplane tuple notation:
(i, j) is x_i = x_j, (i, -j) is x_i = -x_j, (i, 0) is x_i = 0, always with
i < |j|.  The diagram's boxes are the root poset's tuples, laid out by
``grid_position``, the one per-family table here: a box generates every box
weakly below and to its right, which is all ``ideal_from_boxes`` needs.  The
paper's reading of the diagram (generating boxes of a complement, fullness,
connectivity, signatures and Algorithm P) lives in ``paper``.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import ConstraintError, InconsistencyError, UnsupportedTypeError
from .exactpoly import UnivariatePolynomial
from .rootsystems import root_poset


class Ideal:
    """An upward-closed subset of a root poset, stored as a bitmask over root indices."""

    __slots__ = ("poset", "mask")

    def __init__(self, poset, mask):
        self.poset = poset
        self.mask = int(mask)

    @property
    def rst(self):
        return self.poset.rst

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.poset.rst == other.poset.rst
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.poset.rst, self.mask))

    def root_indices(self):
        return [i for i in range(len(self.poset)) if self.mask >> i & 1]

    def roots(self):
        return [self.poset.roots[i] for i in self.root_indices()]

    def complement_mask(self):
        return ((1 << len(self.poset)) - 1) ^ self.mask

    def complement_indices(self):
        m = self.complement_mask()
        return [i for i in range(len(self.poset)) if m >> i & 1]

    def complement_roots(self):
        return [self.poset.roots[i] for i in self.complement_indices()]

    def __repr__(self):
        return f"Ideal({self.poset.rst}, {sorted(str(r) for r in self.roots())})"


def _check_upward_closed(poset, mask):
    for i in range(len(poset)):
        if mask >> i & 1:
            missing = poset.up_masks[i] & ~mask
            if missing:
                j = missing.bit_length() - 1
                raise ConstraintError(
                    f"not an ideal of {poset.rst}: contains u={poset.roots[i]} "
                    f"with u ⪯ v but lacks v={poset.roots[j]}"
                )


def ideal_from_mask(poset, mask):
    if not 0 <= mask < 1 << len(poset):
        raise ConstraintError(f"mask {mask} is not a set of the {len(poset)} roots of {poset.rst}")
    _check_upward_closed(poset, mask)
    return Ideal(poset, mask)


def ideal_from_root_coords(poset, coords_list):
    """Build and validate an ideal from explicit simple-coordinate vectors."""
    mask = 0
    for coords in coords_list:
        mask |= 1 << poset.index_of(coords)
    return ideal_from_mask(poset, mask)


def ideal_from_boxes(poset, boxes):
    """Build an ideal of a classical system from generating boxes of its complement.

    Any box list is accepted; the complement is the union of the generated box
    sets, normalized internally.
    """
    rst = poset.rst
    if not rst.is_classical:
        raise UnsupportedTypeError(f"{rst.family} ideals take explicit root lists")
    tuple_index = {t: i for i, t in enumerate(poset.tuples)}
    comp = set()
    for b in boxes:
        b = (int(b[0]), int(b[1]))
        if b not in tuple_index:
            raise ConstraintError(f"{b} is not a box of the {rst} diagram")
        comp |= generated_box_set(rst, b)
    mask = 0
    full = (1 << len(poset)) - 1
    for t in comp:
        mask |= 1 << tuple_index[t]
    return ideal_from_mask(poset, full ^ mask)


# ---- enumeration -----------------------------------------------------------


def iter_ideals(poset):
    """All ideals, streamed by ascending cardinality, ascending mask value within.

    Breadth first by level sets: the ideals of size k+1 are the sorted set of
    the size-k ideals each grown by one addable root (one whose strict up-set
    the ideal already holds), so the set dedupes them and only one level is
    held in memory.
    """
    bits = [(1 << i, up & ~(1 << i)) for i, up in enumerate(poset.up_masks)]
    level = [0]
    while level:
        yield from (Ideal(poset, mask) for mask in level)
        level = sorted(
            {mask | bit for mask in level for bit, above in bits
             if not (mask & bit or above & ~mask)}
        )


def enumerate_ideals(poset):
    """Materialized list of all ideals, ordered as iter_ideals streams them."""
    return list(iter_ideals(poset))


# ---- diagram geometry ------------------------------------------------------


def diagram_boxes(rst):
    """All boxes of the shifted Young diagram: the positive roots' hyperplane tuples."""
    if not rst.is_classical:
        raise UnsupportedTypeError(f"{rst.family} has no shifted Young diagram")
    return list(root_poset(rst).tuples)


def grid_position(rst, box):
    """(row, column) of a box in the drawn diagram, for adjacency tests."""
    f, n = rst.family, rst.n_param
    i, v = box
    if f == "A":
        return (i, n - v + 1)
    if f == "B":
        if v < 0:
            return (i, -v - 1)
        if v == 0:
            return (i, n)
        return (i, 2 * n - v + 1)
    if f == "C":
        if v == 0:
            return (i, i)
        if v < 0:
            return (i, -v)
        return (i, 2 * n - v + 1)
    # D
    if v < 0:
        return (i, -v - 1)
    return (i, 2 * n - v)


@functools.lru_cache(maxsize=None)
def diagram_grid(rst):
    """{box: (row, column)} over the whole diagram."""
    return {b: grid_position(rst, b) for b in diagram_boxes(rst)}


def generated_box_set(rst, box):
    """The box set generated by one box: everything weakly below and to its right."""
    grid = diagram_grid(rst)
    row, col = grid[box]
    return {b for b, (r, c) in grid.items() if r >= row and c >= col}


class IdealComplement:
    """The complement of an ideal: a downward-closed root set, with its
    hyperplane tuples and diagram structure for classical types."""

    def __init__(self, ideal):
        self.ideal = ideal
        self.poset = ideal.poset
        self.rst = ideal.rst
        self.root_indices = ideal.complement_indices()
        self.roots = [self.poset.roots[i] for i in self.root_indices]
        if self.rst.is_classical:
            self.hyperplanes = [self.poset.tuples[i] for i in self.root_indices]
        else:
            self.hyperplanes = None

    def __len__(self):
        return len(self.roots)

    def tuple_set(self):
        if self.hyperplanes is None:
            raise UnsupportedTypeError(
                f"{self.rst.family} has no shifted-diagram tuple form"
            )
        return set(self.hyperplanes)


def complement(ideal):
    return IdealComplement(ideal)


def signed_classes(m, tuples):
    """The classes of coordinates 1..m under hyperplane tuples read as a
    signed graph, and whether each class is balanced.

    x_i = x_j is a positive edge, x_i = -x_j a negative edge and x_i = 0 a
    half-edge.  A class is balanced when it holds no half-edge and no cycle
    of an odd number of negative edges; the normals span Zaslavsky's frame
    matroid of the graph, of rank m minus the number of balanced classes.
    One union-find keeps each coordinate's sign against its root,
    x_i = +-x_root.  Returns (classes, balanced): classes[x - 1] is the class
    of coordinate x, numbered 0, 1, ... in ascending order of their least
    coordinate, and balanced[c] the flag of class c.
    """
    parent = list(range(m + 1))
    flip = [0] * (m + 1)  # 1 when x_i = -x_parent
    balanced = [True] * (m + 1)

    def find(x):
        sign = 0
        while parent[x] != x:
            sign ^= flip[x]
            x = parent[x]
        return x, sign

    for i, j in tuples:
        ri, si = find(i)
        if j == 0:
            balanced[ri] = False
            continue
        rj, sj = find(abs(j))
        odd = si ^ sj ^ (j < 0)
        if ri == rj:
            balanced[ri] = balanced[ri] and not odd
        else:
            parent[rj], flip[rj] = ri, odd
            balanced[ri] = balanced[ri] and balanced[rj]
    roots = {}
    classes = [roots.setdefault(find(x)[0], len(roots)) for x in range(1, m + 1)]
    return classes, [balanced[root] for root in roots]


# ---- automorphism blocks ---------------------------------------------------


def automorphism_blocks(m, tuple_set):
    """Coordinates 1..m grouped into classes of exchangeable coordinates:
    x and y share a class when they carry the same zero flag and the same
    pos/neg flags against every third coordinate.  The tuples are normal,
    (i, j) with i < |j| <= m or (i, 0), and each coordinate's zero flag and
    pos/neg neighbour sets are read off them once.  Each coordinate joins the
    first class whose first member it matches, else opens a new class."""
    zero = [False] * (m + 1)
    pos = [set() for _ in range(m + 1)]
    neg = [set() for _ in range(m + 1)]
    for i, j in tuple_set:
        if j == 0:
            zero[i] = True
        else:
            nbrs = pos if j > 0 else neg
            nbrs[i].add(abs(j))
            nbrs[abs(j)].add(i)

    def equivalent(i, j):
        return (
            zero[i] == zero[j]
            and pos[i] - {j} == pos[j] - {i}
            and neg[i] - {j} == neg[j] - {i}
        )

    blocks = []
    for x in range(1, m + 1):
        for b in blocks:
            if equivalent(b[0], x):
                b.append(x)
                break
        else:
            blocks.append([x])
    return blocks


# ---- arrangements and components -------------------------------------------


def arrangement_of(ideal):
    """The ideal arrangement as a ``crapo.VectorConfig``: its normals are the
    doubled coordinates of the complement, in R^ambient_dim."""
    from . import crapo

    return crapo.VectorConfig(
        [r.ambient2 for r in ideal.complement_roots()], dim=ideal.rst.ambient_dim
    )


class IdealExponents(namedtuple("IdealExponents", "heights exponents")):
    """Height partition of an ideal complement, lambda_1 >= lambda_2 >= ...,
    and its dual partition, the exponents m_{lambda_1} >= ... >= m_1."""

    __slots__ = ()

    def total(self):
        return sum(self.heights)


def _height_counts(ideal):
    """lambda_h, the complement's roots of height h: one popcount per
    ``RootPoset.height_masks`` entry, trailing zeros kept."""
    comp = ideal.complement_mask()
    return tuple([(comp & heights).bit_count() for heights in ideal.poset.height_masks])


def _conjugate(lam):
    """The exponents, the conjugate partition mu_k = #{h : lambda_h >= k} of
    the height counts ``lam``, which must weakly decrease."""
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise InconsistencyError(f"height counts {list(lam)} are not weakly decreasing")
    return tuple(sum(1 for l in lam if l >= k) for k in range(1, lam[0] + 1)) if lam else ()


def ideal_exponents(ideal):
    """Ideal exponents from the height partition of the complement."""
    lam = _height_counts(ideal)
    exps = _conjugate(lam)
    return IdealExponents(lam[:exps[0]] if exps else (), exps)  # mu_1 counts the nonzero heights


@functools.lru_cache(maxsize=1024)
def _factorization(lam, length):
    """The exponents of the height counts ``lam`` and the coefficients,
    lowest first, of q^(length - 1 - k) prod (q - m_i) over those k, as
    tuples; the most recent 1024 are kept for the next check."""
    exps = _conjugate(lam)
    want = [0] * (length - 1 - len(exps)) + [1]
    for m in exps:
        want = [a - m * b for a, b in zip([0] + want, want + [0])]  # times (q - m)
    return exps, tuple(want)


def check_exponent_factorization(ideal, chi):
    """The ideal exponents of ``ideal`` (``ideal_exponents``), once its
    characteristic polynomial is seen to split over them.

    ``chi`` lists chi(q)'s coefficients lowest first, say a
    ``UnivariatePolynomial.coeffs`` or a ``FlatLattice.kinds`` row.  Every
    ideal arrangement of a Weyl arrangement is free with the ideal exponents
    m_1, ..., m_k (Abe, Barakat, Cuntz, Hoge and Terao, 2016), so ``chi`` must
    be q^(len(chi) - 1 - k) prod (q - m_i); InconsistencyError otherwise.  A
    check costs the popcounts and one lookup in ``_factorization``.
    """
    exps, want = _factorization(_height_counts(ideal), len(chi))
    if tuple(chi) != want:
        raise InconsistencyError(
            f"chi = {UnivariatePolynomial(chi)} of the {ideal.rst} ideal arrangement "
            f"is not {UnivariatePolynomial(want)}, the product over its ideal "
            f"exponents {list(exps)}"
        )
    return exps


def tuple_normal(t, n):
    """Integer normal vector of a hyperplane tuple inside R^n."""
    i, j = t
    v = [0] * n
    v[i - 1] = 1
    if j > 0:
        v[j - 1] = -1
    elif j < 0:
        v[-j - 1] = 1
    return tuple(v)


class IdealComponent(namedtuple("IdealComponent", "index_map tuples size")):
    """One connected component of an ideal complement, relabeled to compressed
    coordinates: the old index of each new coordinate (1-based), the
    relabeled hyperplane tuples and the number of compressed coordinates."""

    __slots__ = ()


def decompose_components(comp):
    """Split the complement into independent subarrangements with compressed labels.

    Components are the classes of the coordinate-interaction graph
    (``signed_classes`` on the ambient coordinates) that carry a hyperplane,
    in ascending order of their least coordinate, ``index_map[0]``:
    hyperplanes on disjoint coordinate sets are matroid-independent, so Tutte
    and coboundary polynomials multiply across the returned components.
    (This can be coarser than the drawn diagram's grid components, which for
    the D family may split dependent hyperplanes.)
    """
    boxes = comp.tuple_set()
    classes, _ = signed_classes(comp.rst.ambient_dim, boxes)
    groups = {}
    for i, j in boxes:
        groups.setdefault(classes[i - 1], []).append((i, j))
    out = []
    for _, boxset in sorted(groups.items()):
        indices = sorted(
            {i for (i, j) in boxset} | {abs(j) for (i, j) in boxset if j != 0}
        )
        remap = {old: new + 1 for new, old in enumerate(indices)}
        tuples = tuple(
            sorted(
                (remap[i], (remap[j] if j > 0 else (-remap[-j] if j < 0 else 0)))
                for (i, j) in boxset
            )
        )
        out.append(IdealComponent(tuple(indices), tuples, len(indices)))
    return out
