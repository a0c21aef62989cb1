"""Ideals of positive root systems: enumeration, ideal arrangements, the shifted
Young diagram view (generating boxes, fullness, connectivity), signatures, the
block partition in accordance with an ideal, the block incidence model that
the counting engine consumes, and component decomposition.

Classical roots are named throughout by the hyperplane tuple notation:
(i, j) is x_i = x_j, (i, -j) is x_i = -x_j, (i, 0) is x_i = 0, always with
i < |j|.  The diagram's boxes are the root poset's tuples, laid out by
``grid_position``, the one per-family table here: a box generates every box
weakly below and to its right, and the row maxima are the rightmost boxes.
For families A, B, C every ideal complement is an open set of the diagram
topology (a box set closed toward the lower right); the D diagram flattens one
incomparable pair per row, so a few D ideals lack a box presentation and only
their diagram views raise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

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


def rightmost_boxes(rst):
    """The rightmost box of every diagram row; their presence defines fullness."""
    last = {}
    for b, (row, _) in sorted(_grid(rst).items(), key=lambda kv: kv[1]):
        last[row] = b
    return list(last.values())


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


def generating_boxes(comp):
    """The unique minimal generating antichain: the maximal roots of the complement.

    Returned in ascending row order.  For families A, B, C the drawn diagram
    encodes the root order faithfully, so every ideal complement is an open
    set with such a presentation.  The D diagram flattens the incomparable
    pair e_i - e_n, e_i + e_n into one row, so a D ideal separating such a
    pair has no generating-box presentation and raises ConstraintError.
    """
    tset = comp.tuple_set()  # raises for non-classical
    rst = comp.rst
    grid = _grid(rst)

    def dominated(b):
        # b lies in the generated set of another box of the complement
        row, col = grid[b]
        return any(b2 != b and grid[b2][0] <= row and grid[b2][1] <= col for b2 in tset)

    gens = sorted((b for b in tset if not dominated(b)), key=lambda b: b[0])
    union = set()
    for g in gens:
        union |= generated_box_set(rst, g)
    if union != tset:
        raise ConstraintError(
            f"complement of {rst} ideal is not an open diagram set: "
            f"generated box sets of {gens} do not reproduce it"
        )
    rows = [b[0] for b in gens]
    if len(set(rows)) != len(rows):
        raise ConstraintError(f"generating boxes {gens} share a row")
    return gens


def is_full(comp):
    """Full means every diagram row's rightmost box lies in the complement."""
    return set(rightmost_boxes(comp.rst)) <= comp.tuple_set()


def _components_of_boxes(rst, boxes):
    boxes = list(boxes)
    pos = {b: grid_position(rst, b) for b in boxes}
    by_pos = {p: b for b, p in pos.items()}
    seen = set()
    comps = []
    for b in boxes:
        if b in seen:
            continue
        stack, comp = [b], []
        seen.add(b)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            r, c = pos[cur]
            for p2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                nb = by_pos.get(p2)
                if nb is not None and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    comps.sort()
    return comps


def is_connected(comp):
    """Connectivity of the complement in the 4-neighborhood of the diagram grid."""
    boxes = comp.tuple_set()
    if not boxes:
        return True
    return len(_components_of_boxes(comp.rst, boxes)) == 1


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


# ---- signatures and the partition in accordance ----------------------------


def signature(comp, x):
    """Signature s(x): indices of the generating boxes whose box set mentions x.

    x = 0 is only meaningful for B and C diagrams, negative x only where the
    diagram has negative columns.
    """
    f = comp.rst.family
    table = signature_table(comp)
    x = int(x)
    if x == 0 and f in ("A", "D"):
        raise UnsupportedTypeError(f"signature of 0 undefined for type {f}")
    if x < 0 and f == "A":
        raise UnsupportedTypeError("type A has no negative columns")
    return table.get(x, set())


def signature_table(comp):
    """Signatures of every integer appearing in some box of the complement,
    built in one pass over the generators' box sets (which cover it).

    Keys follow the worked-example layout: positive indices, then 0 when a
    zero column is present, then negative columns.
    """
    table = {}
    for l, g in enumerate(generating_boxes(comp), 1):
        for box in generated_box_set(comp.rst, g):
            for x in box:
                table.setdefault(x, set()).add(l)
    order = sorted(table, key=lambda v: (v <= 0, v == 0, abs(v)))
    return {x: table[x] for x in order}


@dataclass
class BlockPartition:
    """The partition A^(1)|...|A^(r)|B^(1)|...|B^(s) of [n], with signatures,
    the adjacency index sets of the counting theorems, and the block
    incidence over the combined block list (A-blocks then B-blocks)."""

    rst: object
    a_blocks: list
    b_blocks: list
    signatures: dict
    hyperplanes: tuple = ()
    # spec'd adjacency sets (1-based block indices)
    r_sets: list = field(default_factory=list)      # R^(u) per A-block
    ra_sets: list = field(default_factory=list)     # R_A^(v) per B-block
    s_sets: list = field(default_factory=list)      # S^(v) per B-block
    r0: list = field(default_factory=list)
    s0: list = field(default_factory=list)
    incidence: BlockIncidence = None

    @property
    def blocks(self):
        return self.a_blocks + self.b_blocks


def partition_in_accordance(comp):
    """Algorithm P: partition [n] in accordance with the ideal.

    Negative-column membership splits [n] into A and B parts; A-members group
    by their signature, B-members by the pair (negative signature, positive
    signature).  The refinement by the positive signature is needed so every
    block is exchangeable in the hyperplane set; on partitions where positive
    signatures are constant per negative-signature class this reduces to the
    plain grouping.
    """
    rst = comp.rst
    n = rst.n_param
    tset = comp.tuple_set()
    negatives = {j for (_, j) in tset if j < 0}
    table = signature_table(comp)
    sig = {x: frozenset(table.get(x, ())) for x in range(1, n + 1)}
    nsig = {x: frozenset(table.get(-x, ())) for x in range(1, n + 1)}
    a_members = [x for x in range(1, n + 1) if -x not in negatives]
    b_members = [x for x in range(1, n + 1) if -x in negatives]
    a_blocks = _group_consecutive(a_members, key=lambda x: sig[x])
    b_blocks = _group_consecutive(b_members, key=lambda x: (nsig[x], sig[x]))
    bp = BlockPartition(
        rst=rst,
        a_blocks=a_blocks,
        b_blocks=b_blocks,
        signatures={x: set(sig[x]) for x in range(1, n + 1)}
        | {-x: set(nsig[x]) for x in b_members},
        hyperplanes=tuple(sorted(tset)),
    )
    if rst.family in ("B", "C"):
        bp.signatures[0] = table.get(0, set())
    # theorem-style adjacency sets
    r = len(a_blocks)
    s = len(b_blocks)
    sA = [sig[blk[0]] for blk in a_blocks]
    sBneg = [nsig[blk[0]] for blk in b_blocks]
    s0 = frozenset(bp.signatures.get(0, set()))
    bp.r_sets = [
        [v + 1 for v in range(u + 1, r) if sA[u] & sA[v]] for u in range(r)
    ]
    bp.ra_sets = [[l + 1 for l in range(r) if sBneg[v] & sA[l]] for v in range(s)]
    bp.s_sets = [
        [h + 1 for h in range(v) if sBneg[v] & sBneg[h]] for v in range(s)
    ]
    bp.r0 = [l + 1 for l in range(r) if s0 & sA[l]]
    bp.s0 = [h + 1 for h in range(s) if s0 & sBneg[h]]
    bp.incidence = block_incidence(bp.blocks, tset)
    return bp


def _group_consecutive(members, key):
    blocks = []
    for x in members:
        if blocks and key(blocks[-1][-1]) == key(x):
            blocks[-1].append(x)
        else:
            blocks.append([x])
    return blocks


def reconstruct_tuples(bp):
    """Rebuild the hyperplane tuple set from the block partition and its flags.

    This is the disjoint-union decomposition of the arrangement: binomial
    pairs and cross products over A-blocks, signed pairs and signed products
    over B-blocks, and the zero column, each switched by its incidence flag.
    """
    blocks = bp.blocks
    inc = bp.incidence
    out = set()
    for bi, blk in enumerate(blocks):
        if inc.pos_within[bi]:
            out.update(
                (blk[a], blk[b]) for a in range(len(blk)) for b in range(a + 1, len(blk))
            )
        if inc.neg_within[bi]:
            out.update(
                (blk[a], -blk[b]) for a in range(len(blk)) for b in range(a + 1, len(blk))
            )
        if inc.zero_flags[bi]:
            out.update((x, 0) for x in blk)
    for (i, j), flag in inc.pos_cross.items():
        if flag:
            for a in blocks[i]:
                for b in blocks[j]:
                    out.add((min(a, b), max(a, b)))
    for (i, j), flag in inc.neg_cross.items():
        if flag:
            for a in blocks[i]:
                for b in blocks[j]:
                    out.add((min(a, b), -max(a, b)))
    return out


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
