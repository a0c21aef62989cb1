"""The paper's classical route, kept as a reference that no request takes.

The paper reads an ideal of type A, B, C or D off the shifted Young diagram:
the generating boxes of its complement, the signature of each integer (which
generating box sets mention it), and Algorithm P, the partition of [n] in
accordance with the ideal, whose blocks reach the counting model through
``CountingModel(blocks=...)``.  It then counts points over F_p for primes
outside the minor set of the root matrix and interpolates.  Production takes
``ideals.automorphism_blocks`` instead, which are never finer than Algorithm
P's blocks and exist for every type-D ideal, and reads chi-bar directly from
one dynamic program.  ``tests/test_paper.py`` holds this route to production.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .errors import ConstraintError, GuardExceeded, UnsupportedTypeError
from .ideals import BlockIncidence, _grid, block_incidence, generated_box_set, grid_position


# ---- the shifted diagram ---------------------------------------------------


def rightmost_boxes(rst):
    """The rightmost box of every diagram row; their presence defines fullness."""
    last = {}
    for b, (row, _) in sorted(_grid(rst).items(), key=lambda kv: kv[1]):
        last[row] = b
    return list(last.values())


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


# ---- signatures and the partition in accordance ----------------------------


def signature(comp, x):
    """Signature s(x): indices of the generating boxes whose box set mentions x.

    x = 0 is only meaningful for B and C diagrams, negative x only where the
    diagram has negative columns.
    """
    f = comp.rst.family
    x = int(x)
    if x == 0 and f in ("A", "D"):
        raise UnsupportedTypeError(f"signature of 0 undefined for type {f}")
    if x < 0 and f == "A":
        raise UnsupportedTypeError("type A has no negative columns")
    return signature_table(comp).get(x, set())


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


# ---- minor sets -------------------------------------------------------------


@dataclass(frozen=True)
class MinorProfile:
    """All k x k minors (k <= max_order) of the matrix with the given rows.

    The minor set is stored symmetrically: row swaps realize both signs, so d
    and -d are recorded together.
    """

    vectors: tuple
    minors: frozenset
    max_order: int

    def magnitudes(self):
        return sorted({abs(d) for d in self.minors})


def _det(rows):
    """Exact determinant by fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_set(vectors, max_order=None, max_minors=5_000_000):
    """Every minor of the matrix whose rows are the given vectors.

    Exhaustive over row and column subsets, so intended for ambient dimension
    at most 5; the guard refuses anything combinatorially larger.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return MinorProfile((), frozenset(), 0)
    dim = len(vectors[0])
    m = len(vectors)
    if max_order is None:
        max_order = min(m, dim)
    if max_order > min(m, dim):
        raise ConstraintError("max_order exceeds matrix dimensions")
    total = sum(comb(m, k) * comb(dim, k) for k in range(1, max_order + 1))
    if total > max_minors:
        raise GuardExceeded(f"{total} minors exceeds guard {max_minors}")
    minors = set()
    for k in range(1, max_order + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(dim), k):
                d = _det([[vectors[r][c] for c in cols] for r in rows])
                minors.add(d)
                minors.add(-d)
    return MinorProfile(tuple(vectors), frozenset(minors), max_order)
