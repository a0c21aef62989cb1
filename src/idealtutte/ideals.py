"""Ideals of positive root systems: enumeration, construction from roots or
from generating boxes, ideal arrangements, the block incidence model that the
counting engine consumes with its automorphism blocks, and component
decomposition.

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
import itertools
from dataclasses import dataclass

from . import crapo
from .errors import ConstraintError, UnsupportedTypeError
from .rootsystems import hyperplane_tuple, root_poset


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
    valid = set(diagram_boxes(rst))
    comp = set()
    for b in boxes:
        b = (int(b[0]), int(b[1]))
        if b not in valid:
            raise ConstraintError(f"{b} is not a box of the {rst} diagram")
        comp |= generated_box_set(rst, b)
    mask = 0
    tuple_index = {
        hyperplane_tuple(rst, r.ambient2): r.index for r in poset.roots
    }
    full = (1 << len(poset)) - 1
    for t in comp:
        mask |= 1 << tuple_index[t]
    return ideal_from_mask(poset, full ^ mask)


# ---- enumeration -----------------------------------------------------------


def iter_ideals(poset):
    """All ideals, streamed by ascending cardinality, lexicographic bitmask within.

    Uses canonical-parent breadth-first generation: an ideal of size k+1 is
    produced only from the parent obtained by deleting its lowest-index
    minimal element, so each ideal appears exactly once and only one level is
    held in memory.
    """
    m = len(poset)
    up = poset.up_masks

    def min_removable(mask):
        # lowest index i in the ideal that is minimal within it
        for i in range(m):
            if mask >> i & 1 and not (poset.down_masks[i] & mask & ~(1 << i)):
                return i
        return -1

    level = [0]
    while level:
        yield from (Ideal(poset, mask) for mask in level)
        nxt = set()
        for mask in level:
            for i in range(m):
                if mask >> i & 1:
                    continue
                if up[i] & ~mask & ~(1 << i):
                    continue  # not addable: something above i is missing
                child = mask | 1 << i
                if min_removable(child) == i:
                    nxt.add(child)
        level = sorted(nxt)


def enumerate_ideals(poset):
    """Materialized list of all ideals, ordered as iter_ideals streams them."""
    return list(iter_ideals(poset))


# ---- diagram geometry ------------------------------------------------------


def diagram_boxes(rst):
    """All boxes of the shifted Young diagram: the positive roots' hyperplane tuples."""
    return [hyperplane_tuple(rst, r.ambient2) for r in root_poset(rst).roots]


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
def _grid(rst):
    """{box: (row, column)} over the whole diagram."""
    return {b: grid_position(rst, b) for b in diagram_boxes(rst)}


def generated_box_set(rst, box):
    """The box set generated by one box: everything weakly below and to its right."""
    grid = _grid(rst)
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
            self.hyperplanes = [
                hyperplane_tuple(self.rst, r.ambient2) for r in self.roots
            ]
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


def _components_by_coordinates(boxes):
    """Group hyperplane tuples by connected coordinate support (union-find)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (i, j) in boxes:
        for k in (i, abs(j)):
            if k and k not in parent:
                parent[k] = k
        if j:
            union(i, abs(j))
    groups = {}
    for (i, j) in boxes:
        groups.setdefault(find(i), []).append((i, j))
    return [sorted(g) for _, g in sorted(groups.items())]


# ---- the incidence model ---------------------------------------------------


def _pos(tset, i, j):
    """Whether x_i = x_j is among the hyperplane tuples."""
    return (min(i, j), max(i, j)) in tset


def _neg(tset, i, j):
    """Whether x_i = -x_j is among the hyperplane tuples."""
    return (min(i, j), -max(i, j)) in tset


def _zero(tset, i):
    """Whether x_i = 0 is among the hyperplane tuples."""
    return (i, 0) in tset


@dataclass(frozen=True)
class BlockIncidence:
    """Which hyperplanes hold within each block of coordinates and across each
    pair of blocks: x_i = x_j (pos), x_i = -x_j (neg), x_i = 0 (zero).

    The cross flags are keyed by block-index pairs (i, j) with i < j.
    """

    pos_within: tuple
    neg_within: tuple
    zero_flags: tuple
    pos_cross: dict
    neg_cross: dict


def block_incidence(blocks, tuple_set):
    """The incidence flags of a list of coordinate blocks in a hyperplane tuple set.

    Each flag is read off the first members and verified on every member:
    ConstraintError unless the zero column is uniform on each block and the
    pos/neg flags are uniform on every pair within a block and across two
    blocks.
    """
    tset = tuple_set
    pos_within, neg_within, zero_flags = [], [], []
    for blk in blocks:
        z = _zero(tset, blk[0])
        pw = len(blk) > 1 and _pos(tset, blk[0], blk[1])
        nw = len(blk) > 1 and _neg(tset, blk[0], blk[1])
        if any(_zero(tset, x) != z for x in blk):
            raise ConstraintError(f"block {blk} not uniform on the zero column")
        for a, b in itertools.combinations(blk, 2):
            if _pos(tset, a, b) != pw or _neg(tset, a, b) != nw:
                raise ConstraintError(f"block {blk} not pair-uniform")
        pos_within.append(pw)
        neg_within.append(nw)
        zero_flags.append(z)
    pos_cross, neg_cross = {}, {}
    for (i, bi), (j, bj) in itertools.combinations(enumerate(blocks), 2):
        pc = _pos(tset, bi[0], bj[0])
        nc = _neg(tset, bi[0], bj[0])
        for a in bi:
            for b in bj:
                if _pos(tset, a, b) != pc or _neg(tset, a, b) != nc:
                    raise ConstraintError(f"blocks {bi} x {bj} not pair-uniform")
        pos_cross[(i, j)] = pc
        neg_cross[(i, j)] = nc
    return BlockIncidence(
        tuple(pos_within), tuple(neg_within), tuple(zero_flags), pos_cross, neg_cross
    )


def automorphism_blocks(m, tuple_set):
    """Coordinates 1..m grouped into classes of exchangeable coordinates:
    x and y share a class when they carry the same zero flag and the same
    pos/neg flags against every third coordinate."""
    tset = tuple_set

    def equivalent(i, j):
        if _zero(tset, i) != _zero(tset, j):
            return False
        for z in range(1, m + 1):
            if z in (i, j):
                continue
            if _pos(tset, i, z) != _pos(tset, j, z) or _neg(tset, i, z) != _neg(tset, j, z):
                return False
        return True

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
    return crapo.VectorConfig(
        [r.ambient2 for r in ideal.complement_roots()], dim=ideal.rst.ambient_dim
    )


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


@dataclass(frozen=True)
class IdealComponent:
    """One connected component of an ideal complement, relabeled to compressed
    coordinates."""

    index_map: tuple          # old index of each new coordinate, 1-based
    tuples: tuple             # relabeled hyperplane tuples
    size: int                 # number of compressed coordinates


def decompose_components(comp):
    """Split the complement into independent subarrangements with compressed labels.

    Components are the classes of the coordinate-interaction graph: hyperplanes
    on disjoint coordinate sets are matroid-independent, so Tutte and coboundary
    polynomials multiply across the returned components.  (This can be coarser
    than the drawn diagram's grid components, which for the D family may split
    dependent hyperplanes.)
    """
    boxes = comp.tuple_set()
    out = []
    for boxset in _components_by_coordinates(boxes):
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
        out.append(
            IdealComponent(
                index_map=tuple(indices),
                tuples=tuples,
                size=len(indices),
            )
        )
    return out
